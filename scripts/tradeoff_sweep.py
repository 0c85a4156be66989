#!/usr/bin/env python3
"""Sweep commit strategies over a tail-unstable synthetic model and print the
accuracy-latency frontier.

The synthetic model reads frames aligned to known token spans and is accurate
wherever a span is fully covered, but guesses inside the last few frames it
has seen. Strategies that hold back the tail of each partial hypothesis trade
output delay for word accuracy; this script lays the cells out as one table.

Example:
    python3 scripts/tradeoff_sweep.py --utts 40 --seed 11 --out sweep.csv

With `--utts 8 --seed 11` and any `--workers`, the output must equal
scripts/tradeoff_sweep_utts8_seed11.txt byte for byte; a tier-1 test checks
it with one worker and CI diffs it with two.
"""

import argparse
import sys

from streamdec.core import DEFAULT_CHUNK_SEC
from streamdec.data import SyntheticTaskSpec, gen_dataset
from streamdec.decoder import BeamConfig
from streamdec.harness import SweepSpec, rows_to_csv, save_sweep_csv, sweep
from streamdec.model import DEFAULT_INSTABILITY_FRAMES, SyntheticAlignedModel
from streamdec.strategies import HoldN, LocalAgreement, Offline, WaitK


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--utts", type=int, default=40, help="corpus size")
    p.add_argument("--seed", type=int, default=11, help="corpus seed")
    p.add_argument(
        "--instability-frames",
        type=int,
        default=DEFAULT_INSTABILITY_FRAMES,
        help="how many trailing frames of context the model guesses over",
    )
    p.add_argument("--chunk-sec", type=float, default=DEFAULT_CHUNK_SEC)
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="also write the table as CSV")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = SyntheticTaskSpec()
    utts = gen_dataset(spec, args.utts, seed=args.seed)
    model = SyntheticAlignedModel.from_task(
        spec, args.utts, args.seed, instability_frames=args.instability_frames
    )

    strategies = (
        HoldN(0),
        HoldN(2),
        HoldN(4),
        HoldN(6),
        WaitK(),
        LocalAgreement(),
        Offline(),
    )
    rows = sweep(
        {"synthetic": model},
        utts,
        SweepSpec(
            strategies=strategies,
            chunk_len_sec=args.chunk_sec,
            beam=BeamConfig(beam_width=args.beam),
            workers=args.workers,
        ),
    )

    print(f"{args.utts} utterances, chunk {args.chunk_sec:g} s, "
          f"beam {args.beam}, instability {args.instability_frames} frames\n")
    print(f"{'strategy':<18} {'params':<10} {'wer':>8} "
          f"{'mean_t_out':>11} {'delta':>8}")
    for r in rows:
        print(f"{r.strategy:<18} {r.params:<10} {r.wer:>8.4f} "
              f"{r.mean_t_out:>11.4f} {r.delta_latency:>8.4f}")

    if args.out:
        save_sweep_csv(rows, args.out)
        print(f"\nwrote {args.out}")
    else:
        print()
        print(rows_to_csv(rows), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
