"""Command-line entry points.

Subcommands cover the full loop: synthesize data, train and adapt the
transformer, stream utterances through a commit strategy, sweep the
accuracy-latency grid, score outputs, and dump attention grids.

A strategy is named by one compact spec, ``name[:p1[:p2]]``: ``hold-n:N``,
``hold-0`` (``hold-n:0``), ``wait-k[:K[:RATE]]``, ``local-agreement`` or
``offline``. ``run --strategy`` takes one spec, ``sweep --strategies`` a
comma-separated list.

Option values may also come from ``--config FILE``, before or after the
command. Each ``key = value`` line's key is an option name, with dashes or
underscores (``chunk-sec``, ``in``), and the line becomes ``--key=value``
right after the command name: the value is checked like a typed flag's, a
typed flag still wins, and a repeatable option's config value is added to
the typed ones. A flag option takes ``true`` or ``false``. Keys of other
commands are skipped, so one file serves several; unknown keys are refused.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import io as sio
from .core import (
    DEFAULT_CHUNK_SEC,
    ConfigError,
    ContractViolation,
    UndefinedMetric,
    Utterance,
    Vocab,
    eval_tokens,
)
from .data import SyntheticTaskSpec, gen_dataset
from .decoder import BeamConfig, run_session
from .harness import SweepSpec, rows_to_csv, save_sweep_csv, sweep
from .metrics import latency_delta, score_logs
from .strategies import parse_strategy, spec_usage
from .training import ADAPT_LR_FACTOR, PartialSliceSpec, TrainConfig, adapt, train, write_curve
from .transformer import BIDIRECTIONAL, UNIDIRECTIONAL, TinyTransformer, TransformerConfig

ENCODER_ALIASES = {
    "uni": UNIDIRECTIONAL,
    "bidi": BIDIRECTIONAL,
    UNIDIRECTIONAL: UNIDIRECTIONAL,
    BIDIRECTIONAL: BIDIRECTIONAL,
}


def _beam_from_args(args) -> BeamConfig:
    return BeamConfig(
        beam_width=args.beam,
        cap_tokens_per_sec=args.cap,
        length_normalize=args.length_norm,
    )


def _add_beam_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beam", type=int, default=BeamConfig.beam_width, help="beam width")
    p.add_argument("--cap", type=float, default=BeamConfig.cap_tokens_per_sec, help="max tokens per second of audio")
    p.add_argument("--length-norm", action="store_true", help="rank final hypotheses by mean token log-prob")


def _add_chunk_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chunk-sec", type=float, default=DEFAULT_CHUNK_SEC, help="chunk length in seconds")


def _add_train_opts(p: argparse.ArgumentParser, steps: int) -> None:
    """The step-loop options train and adapt share (see _train_config)."""
    p.add_argument("--steps", type=int, default=steps)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--warmup", type=int, default=TrainConfig.warmup_steps)
    p.add_argument("--label-smoothing", type=float, default=TrainConfig.label_smoothing)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
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


class _Parser(argparse.ArgumentParser):
    """Usage errors end in main like any bad input: ``error:``, exit 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="streamdec",
        description="streaming incremental decoding for sequence models; "
        "every command also takes --config FILE, a file of key = value option values",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen-data", help="synthesize an aligned utterance corpus")
    p.add_argument("--out", required=True, help="output utterances JSONL")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab-size", type=int, default=SyntheticTaskSpec.vocab_size)
    p.add_argument("--min-tokens", type=int, default=SyntheticTaskSpec.min_tokens)
    p.add_argument("--max-tokens", type=int, default=SyntheticTaskSpec.max_tokens)
    p.add_argument("--min-frames-per-token", type=int, default=SyntheticTaskSpec.min_frames_per_token)
    p.add_argument("--max-frames-per-token", type=int, default=SyntheticTaskSpec.max_frames_per_token)
    p.add_argument("--frame-dim", type=int, default=SyntheticTaskSpec.frame_dim)
    p.add_argument("--noise-std", type=float, default=SyntheticTaskSpec.noise_std)
    p.add_argument("--translation", action="store_true", help="reorder the output side")

    p = sub.add_parser("train", help="train a transformer from scratch")
    p.add_argument("--data", required=True, help="training utterances JSONL")
    p.add_argument("--out", required=True, help="output model file")
    _add_train_opts(p, steps=TrainConfig.total_steps)
    p.add_argument("--d-model", type=int, default=TransformerConfig.d_model)
    p.add_argument("--heads", type=int, default=TransformerConfig.heads)
    p.add_argument("--ff-dim", type=int, default=TransformerConfig.ff_dim)
    p.add_argument("--enc-layers", type=int, default=TransformerConfig.enc_layers)
    p.add_argument("--dec-layers", type=int, default=TransformerConfig.dec_layers)
    p.add_argument("--enc-mode", default="uni", choices=sorted(set(ENCODER_ALIASES)))

    p = sub.add_parser("adapt", help="fine-tune a model on full + truncated pairs")
    p.add_argument("--model", required=True, help="input model file")
    p.add_argument("--data", required=True, help="adaptation utterances JSONL")
    p.add_argument("--dev", required=True, help="dev utterances JSONL for checkpoint selection")
    p.add_argument("--out", required=True, help="output model file")
    _add_train_opts(p, steps=200)
    p.add_argument("--eval-every", type=int, default=TrainConfig.eval_every)
    p.add_argument("--lr-factor", type=float, default=ADAPT_LR_FACTOR)
    p.add_argument("--ratio-low", type=float, default=PartialSliceSpec.ratio_low)
    p.add_argument("--ratio-high", type=float, default=PartialSliceSpec.ratio_high)

    p = sub.add_parser("run", help="stream utterances and write commit logs")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--in", dest="inp", required=True, help="utterances JSONL")
    p.add_argument("--out", required=True, help="commit-log JSONL")
    p.add_argument("--strategy", required=True, help="one of " + spec_usage())
    _add_beam_opts(p)
    _add_chunk_opts(p)

    p = sub.add_parser("sweep", help="accuracy-latency grid over models and strategies")
    p.add_argument("--model", action="append", required=True, metavar="NAME=PATH", help="repeatable")
    p.add_argument("--in", dest="inp", required=True, help="utterances JSONL")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument(
        "--strategies",
        default="hold-0,hold-n:4,wait-k,local-agreement,offline",
        help="comma-separated strategy specs, each one of " + spec_usage(),
    )
    _add_beam_opts(p)
    _add_chunk_opts(p)
    p.add_argument("--workers", type=int, default=SweepSpec.workers)

    p = sub.add_parser("eval", help="score a commit log against references")
    p.add_argument("--refs", required=True, help="reference utterances JSONL")
    p.add_argument("--hyps", required=True, help="commit-log JSONL")
    p.add_argument("--baseline", help="optional baseline commit-log JSONL")
    p.add_argument("--out", help="optional summary JSON")

    p = sub.add_parser("dump-attention", help="write attention grids for one utterance")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--utt", help="utterance id, default first in file")
    p.add_argument("--prefix", default="", help="space-separated forced tokens")
    p.add_argument("--out", required=True, help="output TSV")
    return parser


def command_parsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """build_parser's parser of each command, by command name."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _config_tokens(path: str, command: str, parsers: dict) -> list[str]:
    """The flags of `command` that a config file's lines stand for."""
    options = {name: p._option_string_actions for name, p in parsers.items()}
    tokens = []
    for line_no, raw in sio.numbered_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        action = options[command].get(flag)
        if action is None:
            if not any(flag in opts for opts in options.values()):
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            continue  # another command's option
        if action.nargs == 0 and value.lower() in ("true", "false"):
            tokens += [flag] if value.lower() == "true" else []
        else:  # any other flag value is refused by argparse, as typed
            tokens.append(f"{flag}={value}")
    return tokens


def expand_config(parser: argparse.ArgumentParser, argv: Sequence[str]) -> list[str]:
    """argv without its ``--config FILE`` options, each file's lines put in
    as flags right after the command name, ahead of the typed flags."""
    rest, paths = [], []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--config":
            paths.append(next(tokens, None))
            if paths[-1] is None:
                raise ConfigError("argument --config: expected one argument")
        elif tok.startswith("--config="):
            paths.append(tok.split("=", 1)[1])
        else:
            rest.append(tok)
    parsers = command_parsers(parser)
    at = next((i for i, tok in enumerate(rest) if not tok.startswith("-")), None)
    if at is None or rest[at] not in parsers:
        return rest  # no command: argparse says what is wrong
    config = [t for path in paths for t in _config_tokens(path, rest[at], parsers)]
    return rest[: at + 1] + config + rest[at + 1 :]


def cmd_gen_data(args) -> int:
    if args.count < 1:  # every command that reads a corpus refuses an empty one
        raise ConfigError(f"--count must be at least 1, got {args.count}")
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


def _load_corpus(path: str) -> list[Utterance]:
    """The utterances of a JSONL file; a file with none is a ConfigError."""
    utts = sio.load_utterances(path)
    if not utts:
        raise ConfigError(f"no utterances in {path}")
    return utts


def _vocab_from_utts(utts: Sequence[Utterance]) -> Vocab:
    return Vocab.build(tok for u in utts for tok in eval_tokens(u))


def cmd_train(args) -> int:
    data = _load_corpus(args.data)
    vocab = _vocab_from_utts(data)
    tc = _train_config(args)  # checked first, so a bad --seed is named seed
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
    model, curve = train(TinyTransformer(cfg, vocab), data, tc)
    sio.save_model(model, args.out)
    if args.curve:
        write_curve(curve, args.curve)
    print(f"trained {args.steps} steps, final loss {curve[-1][1]:.4f}, saved to {args.out}")
    return 0


def cmd_adapt(args) -> int:
    model = sio.load_model(args.model)
    data = _load_corpus(args.data)
    dev = _load_corpus(args.dev)
    tc = _train_config(args, eval_every=args.eval_every)
    slices = PartialSliceSpec(args.ratio_low, args.ratio_high)
    model, curve = adapt(model, data, tc, dev, slices, lr_factor=args.lr_factor)
    sio.save_model(model, args.out)
    if args.curve:
        write_curve(curve, args.curve)
    print(f"adapted {args.steps} steps, saved to {args.out}")
    return 0


def cmd_run(args) -> int:
    model = sio.load_model(args.model)
    utts = _load_corpus(args.inp)
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
    models = {}
    for spec_str in args.model:
        if "=" not in spec_str:
            raise ConfigError(f"--model needs NAME=PATH, got {spec_str!r}")
        name, path = spec_str.split("=", 1)
        if name in models:
            raise ConfigError(f"--model names {name!r} more than once")
        models[name] = sio.load_model(path)
    utts = _load_corpus(args.inp)
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
    refs = _load_corpus(args.refs)
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
    model = sio.load_model(args.model)
    utts = _load_corpus(args.inp)
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
    parser = build_parser()
    try:
        args = parser.parse_args(
            expand_config(parser, sys.argv[1:] if argv is None else argv)
        )
        if args.command is None:
            parser.print_help()
            return 2
        return COMMANDS[args.command](args)
    except (ConfigError, ContractViolation, UndefinedMetric, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
