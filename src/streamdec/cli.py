"""Command-line entry points.

Subcommands cover the full loop: synthesize data, train and adapt the
transformer, stream utterances through a commit strategy, sweep the
accuracy-latency grid, score outputs, and dump attention grids.

A strategy is named by one compact spec, ``name[:p1[:p2]]``: ``hold-n:N``,
``hold-0`` (``hold-n:0``), ``wait-k[:K[:RATE]]``, ``local-agreement`` or
``offline``. ``run --strategy`` takes one spec, ``sweep --strategies`` a
comma-separated list.

A `--config path` file holds `key = value` lines (keys match option names
with dashes or underscores); explicit command-line flags win over it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import io as sio
from .core import (
    ConfigError,
    ContractViolation,
    UndefinedMetric,
    UnsupportedOperation,
    Utterance,
    Vocab,
    eval_tokens,
)
from .data import SyntheticTaskSpec, gen_dataset
from .decoder import BeamConfig, run_session
from .harness import SweepSpec, rows_to_csv, save_sweep_csv, sweep
from .metrics import latency_delta, score_logs
from .model import load_model, save_model
from .strategies import parse_strategy, spec_usage
from .training import (
    PartialSliceSpec,
    TrainConfig,
    adapt,
    train,
    write_curve,
)
from .transformer import TinyTransformer, TransformerConfig

ENCODER_ALIASES = {
    "uni": "unidirectional",
    "bidi": "bidirectional",
    "unidirectional": "unidirectional",
    "bidirectional": "bidirectional",
}


def _beam_from_args(args) -> BeamConfig:
    return BeamConfig(
        beam_width=args.beam,
        cap_tokens_per_sec=args.cap,
        length_normalize=args.length_norm,
    )


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ConfigError(
            "missing required option(s): " + ", ".join("--" + n.replace("_", "-") for n in missing)
        )


def _add_beam_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beam", type=int, default=8, help="beam width")
    p.add_argument("--cap", type=float, default=8.0, help="max tokens per second of audio")
    p.add_argument("--length-norm", action="store_true", help="rank final hypotheses by mean token log-prob")


def _add_chunk_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chunk-sec", type=float, default=0.5, help="chunk length in seconds")


def _add_train_opts(p: argparse.ArgumentParser, steps: int) -> None:
    """The step-loop options train and adapt share (see _train_config)."""
    p.add_argument("--steps", type=int, default=steps)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=3e-4)
    p.add_argument("--warmup", type=int, default=400)
    p.add_argument("--label-smoothing", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curve", default=None, help="optional loss-curve CSV")


def _train_config(args, **extra) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.lr,
        warmup_steps=args.warmup,
        label_smoothing=args.label_smoothing,
        batch_size=args.batch_size,
        total_steps=args.steps,
        seed=args.seed,
        **extra,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamdec",
        description="streaming incremental decoding for sequence models",
    )
    parser.add_argument("--config", default=None, help="key = value defaults file")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen-data", help="synthesize an aligned utterance corpus")
    p.add_argument("--out", default=None, help="output utterances JSONL")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab-size", type=int, default=20)
    p.add_argument("--min-tokens", type=int, default=4)
    p.add_argument("--max-tokens", type=int, default=10)
    p.add_argument("--min-frames-per-token", type=int, default=20)
    p.add_argument("--max-frames-per-token", type=int, default=30)
    p.add_argument("--frame-dim", type=int, default=16)
    p.add_argument("--noise-std", type=float, default=0.1)
    p.add_argument("--translation", action="store_true", help="reorder the output side")

    p = sub.add_parser("train", help="train a transformer from scratch")
    p.add_argument("--data", default=None, help="training utterances JSONL")
    p.add_argument("--out", default=None, help="output model file")
    _add_train_opts(p, steps=600)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--ff-dim", type=int, default=128)
    p.add_argument("--enc-layers", type=int, default=2)
    p.add_argument("--dec-layers", type=int, default=2)
    p.add_argument("--enc-mode", default="uni", choices=sorted(set(ENCODER_ALIASES)))

    p = sub.add_parser("adapt", help="fine-tune a model on full + truncated pairs")
    p.add_argument("--model", default=None, help="input model file")
    p.add_argument("--data", default=None, help="adaptation utterances JSONL")
    p.add_argument("--dev", default=None, help="dev utterances JSONL for checkpoint selection")
    p.add_argument("--out", default=None, help="output model file")
    _add_train_opts(p, steps=200)
    p.add_argument("--eval-every", type=int, default=40)
    p.add_argument("--lr-factor", type=float, default=0.25)
    p.add_argument("--ratio-low", type=float, default=0.1)
    p.add_argument("--ratio-high", type=float, default=0.4)

    p = sub.add_parser("run", help="stream utterances and write commit logs")
    p.add_argument("--model", default=None, help="model file")
    p.add_argument("--in", dest="inp", default=None, help="utterances JSONL")
    p.add_argument("--out", default=None, help="commit-log JSONL")
    p.add_argument("--strategy", default=None, help="one of " + spec_usage())
    _add_beam_opts(p)
    _add_chunk_opts(p)

    p = sub.add_parser("sweep", help="accuracy-latency grid over models and strategies")
    p.add_argument("--model", action="append", default=None, metavar="NAME=PATH", help="repeatable")
    p.add_argument("--in", dest="inp", default=None, help="utterances JSONL")
    p.add_argument("--out", default=None, help="output CSV")
    p.add_argument(
        "--strategies",
        default="hold-0,hold-n:4,wait-k:1:4.0,local-agreement,offline",
        help="comma-separated strategy specs, each one of " + spec_usage(),
    )
    _add_beam_opts(p)
    _add_chunk_opts(p)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("eval", help="score a commit log against references")
    p.add_argument("--refs", default=None, help="reference utterances JSONL")
    p.add_argument("--hyps", default=None, help="commit-log JSONL")
    p.add_argument("--baseline", default=None, help="optional baseline commit-log JSONL")
    p.add_argument("--out", default=None, help="optional summary JSON")

    p = sub.add_parser("dump-attention", help="write attention grids for one utterance")
    p.add_argument("--model", default=None)
    p.add_argument("--in", dest="inp", default=None)
    p.add_argument("--utt", default=None, help="utterance id, default first in file")
    p.add_argument("--prefix", default="", help="space-separated forced tokens")
    p.add_argument("--out", default=None, help="output TSV")
    return parser


def load_config_file(path: str) -> dict[str, object]:
    out: dict[str, object] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            out[key] = _parse_value(val)
    return out


def _parse_value(val: str) -> object:
    low = val.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            pass
    return val


def _apply_config(parser: argparse.ArgumentParser, defaults: dict) -> None:
    parsers, known = [parser], set()
    for p in parsers:  # grows as it goes: every subparser, once
        for a in p._actions:
            known.add(a.dest)
            if isinstance(a, argparse._SubParsersAction):
                parsers.extend(a.choices.values())
    unknown = sorted(set(defaults) - known)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    for p in parsers:
        p.set_defaults(**defaults)


def cmd_gen_data(args) -> int:
    _require(args, "out")
    spec = SyntheticTaskSpec(
        vocab_size=args.vocab_size,
        min_tokens=args.min_tokens,
        max_tokens=args.max_tokens,
        min_frames_per_token=args.min_frames_per_token,
        max_frames_per_token=args.max_frames_per_token,
        frame_dim=args.frame_dim,
        noise_std=args.noise_std,
        translation=args.translation,
    )
    utts = gen_dataset(spec, args.count, args.seed)
    sio.save_utterances(utts, args.out)
    total = sum(u.duration_sec for u in utts)
    print(f"wrote {len(utts)} utterances ({total:.1f}s of frames) to {args.out}")
    return 0


def _vocab_from_utts(utts: Sequence[Utterance]) -> Vocab:
    return Vocab.build(tok for u in utts for tok in eval_tokens(u))


def cmd_train(args) -> int:
    _require(args, "data", "out")
    data = sio.load_utterances(args.data)
    if not data:
        raise ConfigError(f"no utterances in {args.data}")
    vocab = _vocab_from_utts(data)
    cfg = TransformerConfig(
        frame_dim=data[0].frames.shape[1],
        vocab_size=len(vocab),
        d_model=args.d_model,
        heads=args.heads,
        ff_dim=args.ff_dim,
        enc_layers=args.enc_layers,
        dec_layers=args.dec_layers,
        mode=ENCODER_ALIASES[args.enc_mode],
        init_seed=args.seed,
    )
    model, curve = train(TinyTransformer(cfg, vocab), data, _train_config(args))
    save_model(model, args.out)
    if args.curve:
        write_curve(curve, args.curve)
    print(f"trained {args.steps} steps, final loss {curve[-1][1]:.4f}, saved to {args.out}")
    return 0


def cmd_adapt(args) -> int:
    _require(args, "model", "data", "dev", "out")
    model = load_model(args.model)
    if not isinstance(model, TinyTransformer):
        raise ConfigError("adaptation needs a trainable transformer model")
    data = sio.load_utterances(args.data)
    dev = sio.load_utterances(args.dev)
    tc = _train_config(args, eval_every=args.eval_every)
    slices = PartialSliceSpec(args.ratio_low, args.ratio_high)
    model, curve = adapt(model, data, tc, dev, slices, lr_factor=args.lr_factor)
    save_model(model, args.out)
    if args.curve:
        write_curve(curve, args.curve)
    print(f"adapted {args.steps} steps, saved to {args.out}")
    return 0


def cmd_run(args) -> int:
    _require(args, "model", "inp", "out", "strategy")
    model = load_model(args.model)
    utts = sio.load_utterances(args.inp)
    strategy = parse_strategy(args.strategy)
    beam = _beam_from_args(args)
    logs = {u.id: run_session(model, u, strategy, args.chunk_sec, beam) for u in utts}
    sio.save_commit_logs(logs, args.out)
    breakdown, report = score_logs(utts, logs)
    # no committed token leaves latency undefined; the line prints nan then
    n_tokens = report.token_count if report else 0
    mean = report.mean_output_time_sec if report else float("nan")
    print(
        f"streamed {len(utts)} utterances, committed {n_tokens} tokens, "
        f"mean output time {mean:.3f}s, WER {breakdown.rate:.4f}, "
        f"wrote {args.out}"
    )
    return 0


def cmd_sweep(args) -> int:
    _require(args, "model", "inp", "out")
    models = {}
    for spec_str in args.model:
        if "=" not in spec_str:
            raise ConfigError(f"--model needs NAME=PATH, got {spec_str!r}")
        name, path = spec_str.split("=", 1)
        if name in models:
            raise ConfigError(f"--model names {name!r} more than once")
        models[name] = load_model(path)
    utts = sio.load_utterances(args.inp)
    strategies = tuple(
        parse_strategy(s.strip()) for s in args.strategies.split(",") if s.strip()
    )
    spec = SweepSpec(
        strategies=strategies,
        chunk_len_sec=args.chunk_sec,
        beam=_beam_from_args(args),
        workers=args.workers,
    )
    rows = sweep(models, utts, spec)
    save_sweep_csv(rows, args.out)
    print(rows_to_csv(rows), end="")
    return 0


def cmd_eval(args) -> int:
    _require(args, "refs", "hyps")
    refs = sio.load_utterances(args.refs)
    breakdown, report = score_logs(refs, sio.load_commit_logs(args.hyps))
    summary: dict[str, object] = {
        "wer": breakdown.rate,
        "substitutions": breakdown.substitutions,
        "deletions": breakdown.deletions,
        "insertions": breakdown.insertions,
        "ref_len": breakdown.ref_len,
        "token_count": report.token_count if report else 0,
        "mean_t_out": report.mean_output_time_sec if report else None,
    }
    if args.baseline:
        _, base = score_logs(refs, sio.load_commit_logs(args.baseline))
        # like mean_t_out, undefined when either side committed nothing
        summary["delta_vs_baseline"] = (
            latency_delta(report, base) if report and base else None
        )
    if args.out:
        sio.save_eval_summary(summary, args.out)
    for key in sorted(summary):
        print(f"{key}: {summary[key]}")
    return 0


def cmd_dump_attention(args) -> int:
    _require(args, "model", "inp", "out")
    model = load_model(args.model)
    utts = sio.load_utterances(args.inp)
    if not utts:
        raise ConfigError(f"no utterances in {args.inp}")
    if args.utt is None:
        utt = utts[0]
    else:
        matches = [u for u in utts if u.id == args.utt]
        if not matches:
            raise ConfigError(f"utterance {args.utt!r} not in {args.inp}")
        utt = matches[0]
    prefix = tuple(
        model.vocab.id_of(t) for t in args.prefix.split()
    )
    grids = model.dump_attention(utt.frames, prefix)
    sio.save_attention_grids(grids, args.out)
    print(f"wrote {len(grids)} attention grids for {utt.id} to {args.out}")
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "adapt": cmd_adapt,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "eval": cmd_eval,
    "dump-attention": cmd_dump_attention,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    pre_args, _ = pre.parse_known_args(argv)
    try:
        if pre_args.config:
            _apply_config(parser, load_config_file(pre_args.config))
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 2
        return COMMANDS[args.command](args)
    except (
        ConfigError,
        ContractViolation,
        UnsupportedOperation,
        UndefinedMetric,
        FileNotFoundError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
