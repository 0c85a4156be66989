"""Command-line entry points.

Subcommands cover the full loop: synthesize data, train and adapt the
transformer, stream utterances through a commit strategy, sweep the
accuracy-latency grid, score outputs, and dump attention grids.

A strategy is named by one compact spec, ``name[:p1[:p2]]``: ``hold-n:N``,
``hold-0`` (``hold-n:0``), ``wait-k[:K[:RATE]]``, ``local-agreement`` or
``offline``. ``run --strategy`` takes one spec, ``sweep --strategies`` a
comma-separated list.

An option that sets a config field is declared from that field: its type,
default and parsed name are the field's, so ``--beam`` parses to
``beam_width`` and a bool field is a flag.

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
from dataclasses import fields
from typing import Sequence

from . import io as sio
from .core import (
    FIELD_TYPES, ConfigError, ContractViolation, UndefinedMetric, Utterance, Vocab, eval_tokens,
)
from .data import SyntheticTaskSpec, gen_dataset
from .decoder import BeamConfig, Session, run_session
from .harness import SweepSpec, rows_to_csv, save_sweep_csv, sweep
from .metrics import latency_delta, score_logs
from .strategies import parse_strategy, spec_usage
from .training import TrainConfig, adapt, train, write_curve
from .transformer import BIDIRECTIONAL, UNIDIRECTIONAL, TinyTransformer, TransformerConfig

ENCODER_ALIASES = {
    "uni": UNIDIRECTIONAL,
    "bidi": BIDIRECTIONAL,
    UNIDIRECTIONAL: UNIDIRECTIONAL,
    BIDIRECTIONAL: BIDIRECTIONAL,
}


def _option(p: argparse.ArgumentParser, flag: str, owner: type, name: str, **kw) -> None:
    """Add ``flag`` as the option that sets field ``name`` of config class
    ``owner``: its parsed name, type and default are the field's, and a bool
    field is a flag."""
    f = next(f for f in fields(owner) if f.name == name)
    if f.type == "bool":
        kw["action"] = "store_true"
    else:
        kw.update(type=FIELD_TYPES[f.type], metavar=flag[2:].replace("-", "_").upper())
    p.add_argument(flag, dest=name, default=f.default, **kw)


def _config(owner: type, args: argparse.Namespace, **given):
    """``owner`` built from each parsed value named after one of its fields,
    and ``given``, which wins."""
    parsed = vars(args)
    return owner(**{f.name: parsed[f.name] for f in fields(owner) if f.name in parsed} | given)


def _add_session_opts(p: argparse.ArgumentParser) -> None:
    _option(p, "--beam", BeamConfig, "beam_width", help="beam width")
    _option(p, "--cap", BeamConfig, "cap_tokens_per_sec", help="max tokens per second of audio")
    _option(p, "--length-norm", BeamConfig, "length_normalize",
            help="rank final hypotheses by mean token log-prob")
    _option(p, "--chunk-sec", Session, "chunk_len_sec", help="chunk length in seconds")


def _add_train_opts(p: argparse.ArgumentParser) -> None:
    """The step-loop options train and adapt share."""
    for flag, name in (("--steps", "total_steps"), ("--batch-size", "batch_size"),
                       ("--lr", "learning_rate"), ("--warmup", "warmup_steps"),
                       ("--seed", "seed")):
        _option(p, flag, TrainConfig, name)
    p.add_argument("--curve", default=None, help="optional loss-curve CSV")


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
    p.add_argument("--out", required=True, help="output utterance archive (.npz)")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    for name in ("vocab_size", "min_tokens", "max_tokens", "min_frames_per_token",
                 "max_frames_per_token", "frame_dim", "noise_std"):
        _option(p, "--" + name.replace("_", "-"), SyntheticTaskSpec, name)
    _option(p, "--translation", SyntheticTaskSpec, "translation", help="reorder the output side")

    p = sub.add_parser("train", help="train a transformer from scratch")
    p.add_argument("--data", required=True, help="training utterance archive (.npz)")
    p.add_argument("--out", required=True, help="output model file")
    _add_train_opts(p)
    for name in ("d_model", "heads", "ff_dim", "enc_layers", "dec_layers"):
        _option(p, "--" + name.replace("_", "-"), TransformerConfig, name)
    p.add_argument("--enc-mode", default="uni", choices=sorted(set(ENCODER_ALIASES)))

    p = sub.add_parser("adapt", help="fine-tune a model on full + truncated pairs")
    p.add_argument("--model", required=True, help="input model file")
    p.add_argument("--data", required=True, help="adaptation utterance archive (.npz)")
    p.add_argument("--dev", required=True,
                   help="dev utterance archive (.npz) for checkpoint selection")
    p.add_argument("--out", required=True, help="output model file")
    _add_train_opts(p)
    p.set_defaults(total_steps=200)
    _option(p, "--eval-every", TrainConfig, "eval_every")

    p = sub.add_parser("run", help="stream utterances and write commit logs")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--in", dest="inp", required=True, help="utterance archive (.npz)")
    p.add_argument("--out", required=True, help="commit-log JSONL")
    p.add_argument("--strategy", required=True, help="one of " + spec_usage())
    _add_session_opts(p)

    p = sub.add_parser("sweep", help="accuracy-latency grid over models and strategies")
    p.add_argument("--model", action="append", required=True, metavar="NAME=PATH", help="repeatable")
    p.add_argument("--in", dest="inp", required=True, help="utterance archive (.npz)")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument(
        "--strategies",
        default="hold-0,hold-n:4,wait-k,local-agreement,offline",
        help="comma-separated strategy specs, each one of " + spec_usage(),
    )
    _add_session_opts(p)
    _option(p, "--workers", SweepSpec, "workers")

    p = sub.add_parser("eval", help="score a commit log against references")
    p.add_argument("--refs", required=True, help="reference utterance archive (.npz)")
    p.add_argument("--hyps", required=True, help="commit-log JSONL")
    p.add_argument("--baseline", help="optional baseline commit-log JSONL")
    p.add_argument("--out", help="optional summary JSON")

    p = sub.add_parser("dump-attention", help="write attention grids for one utterance")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="inp", required=True, help="utterance archive (.npz)")
    p.add_argument("--utt", help="utterance id, default first in file")
    p.add_argument("--prefix", default="", help="space-separated forced tokens")
    p.add_argument("--out", required=True, help="output .npz archive, one array per grid")
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
    utts = gen_dataset(_config(SyntheticTaskSpec, args), args.count, args.seed)
    sio.save_utterances(utts, args.out)
    total = sum(u.duration_sec for u in utts)
    print(f"wrote {len(utts)} utterances ({total:.1f}s of frames) to {args.out}")
    return 0


def _load_corpus(path: str) -> list[Utterance]:
    """The utterances of an archive; one with none is a ConfigError."""
    utts = sio.load_utterances(path)
    if not utts:
        raise ConfigError(f"no utterances in {path}")
    return utts


def _vocab_from_utts(utts: Sequence[Utterance]) -> Vocab:
    return Vocab.build(tok for u in utts for tok in eval_tokens(u))


def cmd_train(args) -> int:
    data = _load_corpus(args.data)
    vocab = _vocab_from_utts(data)
    tc = _config(TrainConfig, args)  # checked first, so a bad --seed is named seed
    cfg = _config(
        TransformerConfig, args, frame_dim=data[0].frames.shape[1], vocab_size=len(vocab),
        mode=ENCODER_ALIASES[args.enc_mode], init_seed=tc.seed,
    )
    model, curve = train(TinyTransformer(cfg, vocab), data, tc)
    sio.save_model(model, args.out)
    if args.curve:
        write_curve(curve, args.curve)
    print(f"trained {tc.total_steps} steps, final loss {curve[-1][1]:.4f}, saved to {args.out}")
    return 0


def cmd_adapt(args) -> int:
    model = sio.load_model(args.model)
    data = _load_corpus(args.data)
    dev = _load_corpus(args.dev)
    tc = _config(TrainConfig, args)
    model, curve = adapt(model, data, tc, dev)
    sio.save_model(model, args.out)
    if args.curve:
        write_curve(curve, args.curve)
    print(f"adapted {tc.total_steps} steps, saved to {args.out}")
    return 0


def cmd_run(args) -> int:
    model = sio.load_model(args.model)
    utts = _load_corpus(args.inp)
    strategy = parse_strategy(args.strategy)
    beam = _config(BeamConfig, args)
    logs = {u.id: run_session(model, u, strategy, args.chunk_len_sec, beam) for u in utts}
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
    spec = _config(SweepSpec, args, strategies=strategies, beam=_config(BeamConfig, args))
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
