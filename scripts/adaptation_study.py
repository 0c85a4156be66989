#!/usr/bin/env python3
"""Train a unidirectional transformer, adapt it on partial inputs, and compare
streaming accuracy before and after.

A model trained only on complete streams over-commits when it decodes from a
partial one: the tail of each chunk's hypothesis reflects guesses the next
chunk revises, so an aggressive strategy like hold-0 ships those guesses.
Fine-tuning on a mix of full utterances and truncated prefixes (paired with
proportionally truncated transcripts) teaches the decoder to stop where the
evidence stops. The offline decode should stay where it was; the streaming
error should drop.

Runs in a couple of minutes on one CPU. Example:
    python3 scripts/adaptation_study.py --outdir runs/adapt
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from streamdec.core import DEFAULT_CHUNK_SEC
from streamdec.data import SyntheticTaskSpec, gen_dataset, task_vocab
from streamdec.decoder import BeamConfig, run_session
from streamdec.io import save_model
from streamdec.metrics import score_logs
from streamdec.strategies import HoldN
from streamdec.training import TrainConfig, adapt, token_error_rate, train, write_curve
from streamdec.transformer import UNIDIRECTIONAL, TinyTransformer, TransformerConfig


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--train-utts", type=int, default=1200)
    p.add_argument("--dev-utts", type=int, default=64)
    p.add_argument("--eval-utts", type=int, default=60)
    p.add_argument("--train-steps", type=int, default=1000)
    p.add_argument("--adapt-steps", type=int, default=200)
    p.add_argument("--d-model", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunk-sec", type=float, default=DEFAULT_CHUNK_SEC)
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--outdir", default=None, help="save models and curves here")
    return p.parse_args(argv)


def streaming_eval(model, utts, chunk_sec, beam):
    """Hold-0 WER breakdown and mean output time (nan if nothing committed)."""
    logs = {u.id: run_session(model, u, HoldN(0), chunk_sec, beam) for u in utts}
    wer, latency = score_logs(utts, logs)
    return wer, latency.mean_output_time_sec if latency else float("nan")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = SyntheticTaskSpec(min_tokens=3, max_tokens=6)
    train_set = gen_dataset(spec, args.train_utts, seed=args.seed + 3)
    dev_set = gen_dataset(spec, args.dev_utts, seed=args.seed + 4)
    eval_set = gen_dataset(spec, args.eval_utts, seed=args.seed + 5)
    vocab = task_vocab(spec)

    cfg = TransformerConfig(
        frame_dim=spec.frame_dim,
        vocab_size=len(vocab),
        d_model=args.d_model,
        heads=2,
        ff_dim=args.d_model * 2,
        enc_layers=2,
        dec_layers=2,
        mode=UNIDIRECTIONAL,
        init_seed=args.seed,
    )
    base_cfg = TrainConfig(
        learning_rate=2e-3,
        warmup_steps=100,
        total_steps=args.train_steps,
        batch_size=16,
        seed=args.seed,
        eval_every=100,
    )

    t0 = time.perf_counter()
    print(f"training: {args.train_utts} utterances, {args.train_steps} steps")
    base, base_curve = train(TinyTransformer(cfg, vocab), train_set, base_cfg)
    print(f"  done in {time.perf_counter() - t0:.0f} s, "
          f"final loss {base_curve[-1][1]:.4f}")

    beam = BeamConfig(beam_width=args.beam)
    pre_wer, pre_lat = streaming_eval(base, eval_set, args.chunk_sec, beam)
    pre_ter = token_error_rate(base, eval_set)

    adapt_cfg = TrainConfig(
        learning_rate=2e-3,
        warmup_steps=100,
        total_steps=args.adapt_steps,
        batch_size=16,
        seed=args.seed,
        eval_every=25,
    )
    t1 = time.perf_counter()
    print(f"adapting: {args.adapt_steps} steps on a 50/50 full/partial mix")
    adapted, adapt_curve = adapt(base, train_set, adapt_cfg, dev_set)
    print(f"  done in {time.perf_counter() - t1:.0f} s")
    # adapt returns its best dev checkpoint, which may be the step-0 one
    kept_base = all(np.array_equal(adapted.params[k], v) for k, v in base.params.items())
    print("  adapt kept the base checkpoint (step 0)" if kept_base
          else "  adapt returned a checkpoint past step 0")

    post_wer, post_lat = streaming_eval(adapted, eval_set, args.chunk_sec, beam)
    post_ter = token_error_rate(adapted, eval_set)

    print(f"\n{'':<22} {'pre-adapt':>10} {'post-adapt':>10}")
    print(f"{'hold-0 WER':<22} {pre_wer.rate:>10.4f} {post_wer.rate:>10.4f}")
    print(f"{'  (S/D/I)':<22} "
          f"{f'{pre_wer.substitutions}/{pre_wer.deletions}/{pre_wer.insertions}':>10} "
          f"{f'{post_wer.substitutions}/{post_wer.deletions}/{post_wer.insertions}':>10}")
    print(f"{'hold-0 mean t_out (s)':<22} {pre_lat:>10.4f} {post_lat:>10.4f}")
    print(f"{'offline TER':<22} {pre_ter:>10.4f} {post_ter:>10.4f}")
    rel = (pre_wer.rate - post_wer.rate) / pre_wer.rate if pre_wer.rate else 0.0
    print(f"\nstreaming WER change: {-rel:+.1%} relative; "
          f"offline TER {pre_ter:.4f} -> {post_ter:.4f}")

    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        save_model(base, os.path.join(args.outdir, "base.bin"))
        save_model(adapted, os.path.join(args.outdir, "adapted.bin"))
        write_curve(base_curve, os.path.join(args.outdir, "train_curve.csv"))
        write_curve(adapt_curve, os.path.join(args.outdir, "adapt_curve.csv"))
        summary = {
            "pre": {"hold0_wer": pre_wer.rate, "offline_ter": pre_ter,
                    "mean_t_out": pre_lat},
            "post": {"hold0_wer": post_wer.rate, "offline_ter": post_ter,
                     "mean_t_out": post_lat},
        }
        with open(os.path.join(args.outdir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"wrote models, curves, summary.json to {args.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
