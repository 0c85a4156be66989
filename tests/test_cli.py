import dataclasses
import json

import numpy as np
import pytest

from streamdec import cli, decoder
from streamdec.cli import main
from streamdec.core import RESERVED_TOKENS, CommitLog, Utterance
from streamdec.data import SyntheticTaskSpec
from streamdec.decoder import BeamConfig, Session
from streamdec.harness import SweepSpec
from streamdec.io import (
    load_commit_logs,
    load_model,
    load_utterances,
    save_commit_logs,
    save_utterances,
)
from streamdec.metrics import score_logs
from streamdec.training import TrainConfig
from streamdec.transformer import BIDIRECTIONAL, TransformerConfig

from .test_io import MALFORMED_COMMIT_RECORDS, write_commit_log_with


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One tiny end-to-end workspace: data, a trained model, commit logs."""
    d = tmp_path_factory.mktemp("cli")
    def gen_args(path, seed):
        return [
            "gen-data", "--out", path,
            "--count", "14", "--seed", seed, "--vocab-size", "6",
            "--min-tokens", "2", "--max-tokens", "3",
            "--min-frames-per-token", "6", "--max-frames-per-token", "8",
            "--frame-dim", "4",
        ]

    assert main(gen_args(str(d / "data.npz"), "9")) == 0
    assert main(gen_args(str(d / "eval.npz"), "11")) == 0
    assert main([
        "train", "--data", str(d / "data.npz"), "--out", str(d / "model.bin"),
        "--steps", "6", "--batch-size", "4", "--lr", "3e-3", "--warmup", "3",
        "--d-model", "8", "--heads", "2", "--ff-dim", "12",
        "--enc-layers", "1", "--dec-layers", "1", "--seed", "1",
        "--curve", str(d / "curve.csv"),
    ]) == 0
    assert main([
        "run", "--model", str(d / "model.bin"), "--in", str(d / "eval.npz"),
        "--out", str(d / "hyps.jsonl"), "--strategy", "hold-n:0",
        "--beam", "2",
    ]) == 0
    return d


class TestPipeline:
    def test_gen_data_wrote_utterances(self, work):
        utts = load_utterances(str(work / "data.npz"))
        assert len(utts) == 14
        assert utts[0].frames.shape[1] == 4
        assert 2 <= len(utts[0].reference_tokens) <= 3

    def test_gen_data_deterministic(self, work, tmp_path):
        again = tmp_path / "again.npz"
        assert main([
            "gen-data", "--out", str(again),
            "--count", "14", "--seed", "9", "--vocab-size", "6",
            "--min-tokens", "2", "--max-tokens", "3",
            "--min-frames-per-token", "6", "--max-frames-per-token", "8",
            "--frame-dim", "4",
        ]) == 0
        assert again.read_bytes() == (work / "data.npz").read_bytes()

    def test_train_wrote_model_and_curve(self, work):
        assert (work / "model.bin").stat().st_size > 0
        lines = (work / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "step,loss,lr"
        assert len(lines) == 7

    def test_run_prints_mean_of_written_logs(self, work, tmp_path, capsys):
        out = tmp_path / "hyps.jsonl"
        assert main([
            "run", "--model", str(work / "model.bin"), "--in", str(work / "eval.npz"),
            "--out", str(out), "--strategy", "offline", "--beam", "2",
        ]) == 0
        logs = load_commit_logs(str(out))
        refs = load_utterances(str(work / "eval.npz"))
        breakdown, report = score_logs(refs, logs)
        printed = capsys.readouterr().out
        assert f"committed {sum(len(log) for log in logs.values())} tokens" in printed
        mean = f"{report.mean_output_time_sec:.3f}" if report else "nan"
        assert f"mean output time {mean}s, WER {breakdown.rate:.4f}" in printed

    def test_run_with_no_commits_prints_nan(self, work, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_session", lambda *args: CommitLog())
        assert main([
            "run", "--model", str(work / "model.bin"), "--in", str(work / "eval.npz"),
            "--out", str(tmp_path / "none.jsonl"), "--strategy", "hold-0",
        ]) == 0
        assert (
            "committed 0 tokens, mean output time nans, WER 1.0000"
            in capsys.readouterr().out
        )

    def test_run_wrote_commit_logs(self, work):
        logs = load_commit_logs(str(work / "hyps.jsonl"))
        refs = load_utterances(str(work / "eval.npz"))
        assert set(logs) <= {u.id for u in refs}
        first = next(iter(logs.values())).entries[0]
        assert first.output_time_sec > 0

    def test_eval_scores_hyps(self, work, capsys):
        out = work / "summary.json"
        assert main([
            "eval", "--refs", str(work / "eval.npz"),
            "--hyps", str(work / "hyps.jsonl"), "--out", str(out),
        ]) == 0
        summary = json.loads(out.read_text())
        assert 0.0 <= summary["wer"]
        assert summary["token_count"] > 0
        assert "wer:" in capsys.readouterr().out

    def test_eval_with_baseline_reports_delta(self, work, capsys):
        assert main([
            "eval", "--refs", str(work / "eval.npz"),
            "--hyps", str(work / "hyps.jsonl"),
            "--baseline", str(work / "hyps.jsonl"),
        ]) == 0
        printed = capsys.readouterr().out
        assert "delta_vs_baseline: 0.0" in printed

    def test_sweep_emits_csv(self, work, capsys):
        out = work / "rows.csv"
        assert main([
            "sweep", "--model", f"m={work / 'model.bin'}",
            "--in", str(work / "eval.npz"), "--out", str(out),
            "--strategies", "hold-0,hold-n:2,offline", "--beam", "2",
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "model,strategy,params,wer,mean_t_out,delta_latency"
        assert len(lines) == 4
        assert capsys.readouterr().out.startswith("model,strategy")

    @pytest.mark.filterwarnings("error::UserWarning")  # a failed sweep cell
    @pytest.mark.parametrize("command, model_arg, strategy", [
        ("run", "{}", "--strategy"),
        ("sweep", "m={}", "--strategies"),
    ], ids=["run", "sweep"])
    def test_length_norm_reaches_the_decoder(
        self, work, tmp_path, monkeypatch, command, model_arg, strategy
    ):
        seen = []
        search = decoder.beam_search

        def spy(m, enc, prefix, cfg):
            seen.append(cfg)
            return search(m, enc, prefix, cfg)

        monkeypatch.setattr(decoder, "beam_search", spy)
        assert main([
            command, "--model", model_arg.format(work / "model.bin"),
            "--in", str(work / "eval.npz"), "--out", str(tmp_path / "out"),
            strategy, "hold-0", "--beam", "2", "--length-norm",
        ]) == 0
        assert seen
        assert set(seen) == {BeamConfig(beam_width=2, length_normalize=True)}

    def test_dump_attention_writes_grids(self, work):
        out = work / "attn.npz"
        assert main([
            "dump-attention", "--model", str(work / "model.bin"),
            "--in", str(work / "eval.npz"), "--out", str(out),
        ]) == 0
        model = load_model(str(work / "model.bin"))
        want = model.dump_attention(load_utterances(str(work / "eval.npz"))[0].frames, ())
        with np.load(out) as grids:
            assert sorted(grids.files) == sorted(want)
            assert any(name.startswith("cross.") for name in grids.files)
            for name, g in want.items():
                assert (grids[name].shape, grids[name].tobytes()) == (g.shape, g.tobytes())
                np.testing.assert_allclose(
                    g.sum(axis=-1), np.ones(g.shape[0]), rtol=0, atol=1e-12
                )

    def test_dump_attention_of_a_named_utterance(self, work, tmp_path):
        utt = load_utterances(str(work / "eval.npz"))[3]
        out = tmp_path / "attn.npz"
        assert main([
            "dump-attention", "--model", str(work / "model.bin"),
            "--in", str(work / "eval.npz"), "--out", str(out), "--utt", utt.id,
        ]) == 0
        want = load_model(str(work / "model.bin")).dump_attention(utt.frames, ())
        with np.load(out) as grids:
            assert sorted(grids.files) == sorted(want)
            for name, g in want.items():
                assert (grids[name].shape, grids[name].tobytes()) == (g.shape, g.tobytes())

    def test_adapt_writes_its_curve(self, work, tmp_path):
        curve = tmp_path / "adapt-curve.csv"
        assert main([
            "adapt", "--model", str(work / "model.bin"),
            "--data", str(work / "data.npz"),
            "--dev", str(work / "eval.npz"), "--out", str(tmp_path / "adapted.bin"),
            "--steps", "3", "--batch-size", "4", "--eval-every", "3",
            "--curve", str(curve),
        ]) == 0
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "step,loss,lr"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]

    def test_adapt_round_trip(self, work):
        out = work / "adapted.bin"
        assert main([
            "adapt", "--model", str(work / "model.bin"),
            "--data", str(work / "data.npz"),
            "--dev", str(work / "eval.npz"), "--out", str(out),
            "--steps", "4", "--batch-size", "4", "--lr", "3e-3",
            "--warmup", "2", "--eval-every", "2",
        ]) == 0
        assert out.stat().st_size > 0


class TestEvalScope:
    """Latency, like WER, covers only the utterances in --refs."""

    @staticmethod
    def _log(path, rows):
        with open(path, "w") as fh:
            for utt, n, t in rows:
                for i in range(n):
                    fh.write(json.dumps(
                        {"utt": utt, "token": f"w{i:02d}", "chunk": 1, "t_out": t}
                    ) + "\n")

    def test_stray_hyp_utterances_ignored(self, tmp_path, capsys):
        refs = tmp_path / "refs.npz"
        words = tuple(f"w{i:02d}" for i in range(9))
        save_utterances([Utterance("a", np.zeros((3, 2)), words)], str(refs))
        hyps, base = tmp_path / "hyps.jsonl", tmp_path / "base.jsonl"
        self._log(hyps, [("a", 9, 0.5), ("stray", 10, 10.0)])
        self._log(base, [("a", 9, 1.0), ("stray", 10, 0.1)])
        out = tmp_path / "summary.json"
        assert main([
            "eval", "--refs", str(refs), "--hyps", str(hyps),
            "--baseline", str(base), "--out", str(out),
        ]) == 0
        summary = json.loads(out.read_text())
        assert summary["wer"] == 0.0
        assert summary["token_count"] == 9
        assert summary["mean_t_out"] == 0.5
        assert summary["delta_vs_baseline"] == -0.5

    def test_no_commits_leave_latency_and_delta_undefined(self, tmp_path, capsys):
        refs = tmp_path / "refs.npz"
        save_utterances([Utterance("a", np.zeros((3, 2)), ("w00", "w01"))], str(refs))
        hyps, base = tmp_path / "hyps.jsonl", tmp_path / "base.jsonl"
        self._log(hyps, [("stray", 2, 0.5)])
        self._log(base, [("a", 2, 1.0)])
        out = tmp_path / "summary.json"
        assert main([
            "eval", "--refs", str(refs), "--hyps", str(hyps),
            "--baseline", str(base), "--out", str(out),
        ]) == 0
        summary = json.loads(out.read_text())
        assert summary["wer"] == 1.0
        assert summary["token_count"] == 0
        assert summary["mean_t_out"] is None
        assert summary["delta_vs_baseline"] is None
        assert "delta_vs_baseline: None" in capsys.readouterr().out

    def test_mean_is_the_library_mean(self, tmp_path, capsys):
        """eval prints score_logs' mean of the loaded logs, to the last bit;
        on this 0.1 s-chunk log numpy's pairwise mean rounds differently."""
        refs = tmp_path / "refs.npz"
        utts = [Utterance("a", np.zeros((3, 2)), ("w00",))]
        save_utterances(utts, str(refs))
        log = CommitLog()
        for chunk in (1, 2, 4):
            log.commit(("w00",) * 3, chunk, 0.1)
        hyps = tmp_path / "hyps.jsonl"
        save_commit_logs({"a": log}, str(hyps))
        _, report = score_logs(utts, load_commit_logs(str(hyps)))
        times = [e.output_time_sec for e in log.entries]
        assert report.mean_output_time_sec != float(np.mean(times))
        assert main(["eval", "--refs", str(refs), "--hyps", str(hyps)]) == 0
        printed = capsys.readouterr().out
        assert f"mean_t_out: {report.mean_output_time_sec}\n" in printed


class TestTranslationPipeline:
    """gen-data --translation through train, adapt, run and eval: every
    step reads each utterance's target side."""

    @pytest.fixture(scope="class")
    def tx(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cli-tx")
        for name, seed in (("data", "3"), ("eval", "4")):
            assert main([
                "gen-data", "--out", str(d / f"{name}.npz"), "--translation",
                "--count", "6", "--seed", seed, "--vocab-size", "6",
                "--min-tokens", "2", "--max-tokens", "3", "--frame-dim", "4",
            ]) == 0
        assert main([
            "train", "--data", str(d / "data.npz"), "--out", str(d / "model.bin"),
            "--steps", "2", "--batch-size", "4", "--d-model", "8", "--heads", "2",
            "--ff-dim", "12", "--enc-layers", "1", "--dec-layers", "1",
        ]) == 0
        return d

    def test_model_vocab_is_target_side(self, tx):
        data = load_utterances(str(tx / "data.npz"))
        assert all(u.target_tokens is not None for u in data)
        targets = sorted({t for u in data for t in u.target_tokens})
        vocab = load_model(str(tx / "model.bin")).vocab
        assert vocab.tokens == RESERVED_TOKENS + tuple(targets)

    def test_adapt_run_and_eval(self, tx, capsys):
        assert main([
            "adapt", "--model", str(tx / "model.bin"), "--data", str(tx / "data.npz"),
            "--dev", str(tx / "eval.npz"), "--out", str(tx / "adapted.bin"),
            "--steps", "2", "--batch-size", "4", "--eval-every", "1",
        ]) == 0
        assert main([
            "run", "--model", str(tx / "adapted.bin"), "--in", str(tx / "eval.npz"),
            "--out", str(tx / "hyps.jsonl"), "--strategy", "offline", "--beam", "2",
        ]) == 0
        assert main([
            "eval", "--refs", str(tx / "eval.npz"), "--hyps", str(tx / "hyps.jsonl"),
        ]) == 0
        assert "wer: " in capsys.readouterr().out


class TestConfigFile:
    def test_config_supplies_defaults(self, work, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(
            "count = 5\nseed = 9\nvocab-size = 6\nmin-tokens = 2\n"
            "max-tokens = 3\nmin-frames-per-token = 6\n"
            "max-frames-per-token = 8\nframe-dim = 4\n"
            "# a comment line\n"
        )
        out = tmp_path / "cfg-data.npz"
        assert main(
            ["--config", str(cfg), "gen-data", "--out", str(out)]
        ) == 0
        assert len(load_utterances(str(out))) == 5

    def test_config_equals_spelling(self, work, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("count = 5\nframe-dim = 4\nvocab-size = 6\n")
        out = tmp_path / "cfg-data3.npz"
        assert main([f"--config={cfg}", "gen-data", "--out", str(out)]) == 0
        assert len(load_utterances(str(out))) == 5

    def test_flag_overrides_config(self, work, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("count = 5\nframe-dim = 4\nvocab-size = 6\n")
        out = tmp_path / "cfg-data2.npz"
        assert main([
            "--config", str(cfg), "gen-data", "--out", str(out),
            "--count", "3",
        ]) == 0
        assert len(load_utterances(str(out))) == 3

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no-such-option = 1\n")
        rc = main(["--config", str(cfg), "gen-data", "--out", "x.npz"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, why", [
        (b"just some words\n", ":1: expected key = value"),
        (b"count = 5\nseed = \xff\xfe\n", ":2: not valid UTF-8"),
    ])
    def test_malformed_config_line_fails(self, tmp_path, capsys, text, why):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(text)
        assert main(["--config", str(cfg), "gen-data", "--out", "x"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}{why}")

    def test_config_after_the_command(self, work, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beam = 2\nstrategy = hold-0\n")
        out = tmp_path / "logs.jsonl"
        assert main([
            "run", "--config", str(cfg), "--model", str(work / "model.bin"),
            "--in", str(work / "eval.npz"), "--out", str(out),
        ]) == 0
        assert out.exists()

    def test_config_value_outside_choices_exits_2(self, work, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("enc_mode = sideways\n")
        out = tmp_path / "never.bin"
        rc = main([
            "--config", str(cfg), "train", "--data", str(work / "data.npz"),
            "--out", str(out), "--steps", "1",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: argument --enc-mode: invalid choice: 'sideways'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_model_adds_to_typed_models(self, work, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"model = a={work / 'model.bin'}\n")
        out = tmp_path / "rows.csv"
        assert main([
            "--config", str(cfg), "sweep", "--model", f"b={work / 'model.bin'}",
            "--in", str(work / "eval.npz"), "--out", str(out),
            "--strategies", "hold-0", "--beam", "2",
        ]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["a", "b"]

    def test_config_model_alone(self, work, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"model = bidi={work / 'model.bin'}\n")
        out = tmp_path / "rows.csv"
        assert main([
            "--config", str(cfg), "sweep", "--in", str(work / "eval.npz"),
            "--out", str(out), "--strategies", "hold-0", "--beam", "2",
        ]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["bidi"]

    def test_keys_are_option_names(self, work, tmp_path, capsys):
        """`in` is the option --in; the internal name `inp` is no option."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"in = {work / 'eval.npz'}\n")
        out = tmp_path / "logs.jsonl"
        argv = ["run", "--model", str(work / "model.bin"), "--out", str(out),
                "--strategy", "hold-0", "--beam", "2"]
        assert main(["--config", str(cfg), *argv]) == 0
        assert out.exists()
        cfg.write_text(f"inp = {work / 'eval.npz'}\n")
        assert main(["--config", str(cfg), *argv]) == 2
        assert "unknown config key 'inp'" in capsys.readouterr().err

    def test_keys_of_other_commands_are_skipped(self, tmp_path):
        cfg = tmp_path / "all.cfg"
        cfg.write_text("steps = 7\nbeam = 3\nlength-norm = true\n")
        args = _parse(["--config", str(cfg), "run", "--model", "m", "--in", "i",
                       "--out", "o", "--strategy", "hold-0"])
        assert (args["beam_width"], args["length_normalize"]) == (3, True)
        assert "steps" not in args

    @pytest.mark.parametrize("value, want", [("true", True), ("FALSE", False)])
    def test_flag_option_takes_true_or_false(self, tmp_path, value, want):
        cfg = tmp_path / "flag.cfg"
        cfg.write_text(f"translation = {value}\n")
        assert _parse(["gen-data", "--config", str(cfg), "--out", "o"])["translation"] is want

    def test_config_without_a_file_exits_2(self, capsys):
        assert main(["gen-data", "--out", "x", "--config"]) == 2
        assert "error: argument --config: expected one argument" in capsys.readouterr().err


# a valid value for each option type, different from every default
VALID = {int: "3", float: "0.75", None: "v=w"}


def _placeholders(p, skip):
    """A value for each required option of command parser p except skip."""
    return [
        tok
        for a in p._actions
        if a.required and a is not skip
        for tok in (a.option_strings[0], "m=x")
    ]


def _parse(argv):
    parser = cli.build_parser()
    return vars(parser.parse_args(cli.expand_config(parser, argv)))


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_config_line_reads_like_its_flag(tmp_path, capsys, command):
    """Every option of every command: a config line parses to what the
    flag does, and a wrong-typed or out-of-choices value fails the same
    way, exit 2 with one argparse error line and no traceback."""
    p = cli.command_parsers(cli.build_parser())[command]
    cfg = tmp_path / "opt.cfg"
    options = [a for a in p._actions if a.option_strings and a.dest != "help"]
    assert options
    for a in options:
        flag, base = a.option_strings[0], _placeholders(p, a)
        key = flag[2:]
        if a.nargs == 0:
            value, typed = "true", [flag]
        else:
            value = a.choices[0] if a.choices else VALID[a.type]
            typed = [flag, value]
        want = _parse([command, *base, *typed])
        assert want[a.dest] != a.default
        for line in (f"{key} = {value}", f"{key.replace('-', '_')} = {value}"):
            cfg.write_text(line + "\n")
            assert _parse(["--config", str(cfg), command, *base]) == want
            assert _parse([command, *base, "--config", str(cfg)]) == want

        bad = "sideways" if a.choices else "x" if a.type in (int, float) else None
        if bad is None:
            continue
        cfg.write_text(f"{key} = {bad}\n")
        errs = []
        for argv in (
            [command, *base, flag, bad],
            ["--config", str(cfg), command, *base],
            [command, *base, "--config", str(cfg)],
        ):
            assert main(argv) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == errs[2]
        assert f"error: argument {flag}: invalid " in errs[0]
        assert "Traceback" not in errs[0]


# command -> the configs its options set; an option whose parsed name is a
# field of one of them sets it
CONFIGS = {
    "gen-data": (SyntheticTaskSpec,),
    "train": (TrainConfig, TransformerConfig),
    "adapt": (TrainConfig,),
    "run": (BeamConfig, Session),
    "sweep": (BeamConfig, SweepSpec),
}
# the numeric defaults that no library code states
UNMIRRORED = {("gen-data", "count"), ("gen-data", "seed"), ("adapt", "total_steps")}


def _library_defaults(owner):
    """The defaults of a config class's fields."""
    return {f.name: f.default for f in dataclasses.fields(owner)
            if f.default is not dataclasses.MISSING}


def _owners(command):
    """Parsed option name -> the config it sets, for command."""
    p = cli.command_parsers(cli.build_parser())[command]
    return {
        a.dest: owner
        for a in p._actions
        for owner in CONFIGS.get(command, ())
        if a.dest in _library_defaults(owner)
    }


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_option_defaults_are_the_library_defaults(command):
    """An option that sets a config field parses, when not given, to that
    field's default, of the same type; every other numeric or flag default
    is one of the few that no library code states."""
    p = cli.command_parsers(cli.build_parser())[command]
    owners = _owners(command)
    parsed = _parse([command, *_placeholders(p, None)])
    for a in p._actions:
        if (command, a.dest) in UNMIRRORED:
            continue
        if a.dest in owners:
            want = _library_defaults(owners[a.dest])[a.dest]
            assert (type(parsed[a.dest]), parsed[a.dest]) == (type(want), want), a.dest
        else:  # a bool included
            assert not isinstance(a.default, (int, float)), a.dest
    if command == "train":
        assert cli.ENCODER_ALIASES[parsed["enc_mode"]] == TransformerConfig.mode


class _Built(Exception):
    """Raised by the stand-in for the library call a command ends in."""


def _built_configs(monkeypatch, work, tmp_path, command, extra=()):
    """The configs that `command` with options `extra` hands the library,
    by class, caught before any work."""
    seen = {}

    def keep(*configs):
        seen.update({type(c): c for c in configs})
        raise _Built

    monkeypatch.setattr(cli, "gen_dataset", lambda spec, count, seed: keep(spec))
    monkeypatch.setattr(cli, "train", lambda model, data, tc: keep(tc, model.cfg))
    monkeypatch.setattr(cli, "adapt", lambda model, data, tc, dev: keep(tc))
    monkeypatch.setattr(cli, "run_session", lambda model, u, strategy, chunk_len_sec, beam:
                        keep(beam, Session(model, u, strategy, chunk_len_sec, beam)))
    monkeypatch.setattr(cli, "sweep", lambda models, utts, spec: keep(spec, spec.beam))
    model, data, out = str(work / "model.bin"), str(work / "data.npz"), str(tmp_path / "out")
    argv = {
        "gen-data": ["--out", out],
        "train": ["--data", data, "--out", out],
        "adapt": ["--model", model, "--data", data, "--dev", data, "--out", out],
        "run": ["--model", model, "--in", data, "--out", out, "--strategy", "hold-0"],
        "sweep": ["--model", "m=" + model, "--in", data, "--out", out],
    }[command]
    with pytest.raises(_Built):
        main([command, *argv, *extra])
    return seen


def _other_value(value):
    """A valid value for every mirrored option, other than its default."""
    if isinstance(value, bool):
        return not value
    return value + 2 if isinstance(value, int) else value * 2


@pytest.mark.parametrize("command, name", [
    (command, name) for command in sorted(CONFIGS) for name in _owners(command)
])
def test_every_mirrored_option_reaches_its_config(work, tmp_path, monkeypatch, command, name):
    """Each option that sets a config field, given a value other than its
    default, changes that field and no other field an option sets."""
    owners = _owners(command)
    base = _built_configs(monkeypatch, work, tmp_path, command)
    value = _other_value(getattr(base[owners[name]], name))
    action = next(a for a in cli.command_parsers(cli.build_parser())[command]._actions
                  if a.dest == name)
    extra = [action.option_strings[0]] + ([] if action.nargs == 0 else [str(value)])
    got = _built_configs(monkeypatch, work, tmp_path, command, extra)
    for other, owner in owners.items():
        want = value if other == name else getattr(base[owner], other)
        assert getattr(got[owner], other) == want, other


def test_enc_mode_and_seed_reach_the_transformer_config(work, tmp_path, monkeypatch):
    built = _built_configs(monkeypatch, work, tmp_path, "train",
                           ["--enc-mode", "bidi", "--seed", "5"])
    assert (built[TransformerConfig].mode, built[TransformerConfig].init_seed) == (BIDIRECTIONAL, 5)


class TestErrorPaths:
    @pytest.mark.parametrize("line, why", MALFORMED_COMMIT_RECORDS)
    def test_eval_rejects_malformed_hyps(self, work, tmp_path, capsys, line, why):
        hyps = tmp_path / "hyps.jsonl"
        write_commit_log_with(hyps, line)
        rc = main(["eval", "--refs", str(work / "eval.npz"), "--hyps", str(hyps)])
        assert rc == 2
        assert f"{hyps}:2: " in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["gen-data"]) == 2
        assert "error: the following arguments are required: --out" in capsys.readouterr().err

    def test_no_command_prints_help_and_exits_2(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert out.startswith("usage:")
        assert "dump-attention" in out

    def test_dump_attention_unknown_utterance_exits_2(self, work, tmp_path, capsys):
        out = tmp_path / "never.npz"
        rc = main([
            "dump-attention", "--model", str(work / "model.bin"),
            "--in", str(work / "eval.npz"), "--out", str(out), "--utt", "nope",
        ])
        assert rc == 2
        assert f"error: utterance 'nope' not in {work / 'eval.npz'}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_file(self, work, capsys):
        rc = main([
            "run", "--model", str(work / "nope.bin"),
            "--in", str(work / "eval.npz"), "--out", "x",
            "--strategy", "offline",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--model", "--in", "--refs", "--config"])
    def test_directory_for_a_file_exits_2(self, work, tmp_path, capsys, option):
        """A directory where a file is read ends like a missing file: exit
        2 and one error line, not an IsADirectoryError traceback."""
        d, out = str(tmp_path), tmp_path / "never.jsonl"
        argv = ["run", "--model", str(work / "model.bin"), "--in",
                str(work / "eval.npz"), "--out", str(out), "--strategy", "hold-0"]
        if option == "--refs":
            argv = ["eval", "--refs", d, "--hyps", str(work / "hyps.jsonl")]
        elif option == "--config":
            argv += ["--config", d]
        else:
            argv[argv.index(option) + 1] = d
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, option", [
        ("train", "--data"), ("adapt", "--data"), ("adapt", "--dev"),
        ("run", "--in"), ("sweep", "--in"), ("eval", "--refs"),
        ("dump-attention", "--in"),
    ])
    def test_empty_corpus_exits_2(self, work, tmp_path, capsys, command, option):
        """An empty corpus is refused, not scored as a perfect WER 0."""
        empty, out = tmp_path / "empty.npz", tmp_path / "never.out"
        save_utterances([], str(empty))
        model, corpus = str(work / "model.bin"), str(work / "eval.npz")
        argv = {
            "train": ["train", "--data", corpus, "--steps", "1"],
            "adapt": ["adapt", "--model", model, "--data", corpus, "--dev", corpus,
                      "--steps", "1"],
            "run": ["run", "--model", model, "--in", corpus, "--strategy", "hold-0"],
            "sweep": ["sweep", "--model", f"m={model}", "--in", corpus,
                      "--strategies", "hold-0"],
            "eval": ["eval", "--refs", corpus, "--hyps", str(work / "hyps.jsonl")],
            "dump-attention": ["dump-attention", "--model", model, "--in", corpus],
        }[command] + ["--out", str(out)]
        argv[argv.index(option) + 1] = str(empty)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: no utterances in {empty}\n"
        assert not out.exists()

    def test_zero_byte_corpus_exits_2(self, work, tmp_path, capsys):
        """A zero-byte file is no archive at all, not an empty corpus."""
        zero, out = tmp_path / "zero.npz", tmp_path / "never.jsonl"
        zero.write_bytes(b"")
        rc = main(["run", "--model", str(work / "model.bin"), "--in", str(zero),
                   "--out", str(out), "--strategy", "hold-0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {zero} is not a numpy .npz archive")
        assert not out.exists()

    def test_bad_sweep_model_spec(self, work, capsys):
        rc = main([
            "sweep", "--model", "justapath",
            "--in", str(work / "eval.npz"), "--out", "x",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--strategy", "offline", "--cap", "nan"],
        ["run", "--strategy", "offline", "--cap", "inf"],
        ["run", "--strategy", "offline", "--chunk-sec", "inf"],
        ["run", "--strategy", "offline", "--chunk-sec", "nan"],
        ["train", "--lr", "nan"],
        ["train", "--lr", "inf"],
        ["gen-data", "--noise-std", "nan"],
        ["gen-data", "--count", "0"],  # an empty corpus no command reads
        # numpy's generators take no negative seed
        ["train", "--seed", "-1"],
        ["adapt", "--seed", "-2"],
        ["gen-data", "--seed", "-3"],
    ])
    def test_non_finite_numbers_exit_2(self, work, capsys, argv):
        paths = {
            "run": ["--model", str(work / "model.bin"),
                    "--in", str(work / "eval.npz")],
            "train": ["--data", str(work / "data.npz")],
            "adapt": ["--model", str(work / "model.bin"),
                      "--data", str(work / "data.npz"),
                      "--dev", str(work / "eval.npz")],
            "gen-data": [],
        }[argv[0]]
        rc = main(argv + paths + ["--out", str(work / "never")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (work / "never").exists()

    def test_train_names_a_bad_seed_seed(self, work, capsys):
        """train checks its training config before its model config, so a
        bad --seed is named seed, as adapt and gen-data name it."""
        rc = main([
            "train", "--data", str(work / "data.npz"),
            "--out", str(work / "never.bin"), "--seed", "-1",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be >= 0\n"
        assert "init_seed" not in err
        assert not (work / "never.bin").exists()

    @pytest.mark.parametrize("command, extra", [
        ("train", ["--label-smoothing", "0.2"]),
        ("adapt", ["--label-smoothing", "0.2"]),
        ("adapt", ["--lr-factor", "0.5"]),
        ("adapt", ["--ratio-low", "0.2"]),
        ("adapt", ["--ratio-high", "0.2"]),
        ("train", "label_smoothing = 0.2"),
        ("adapt", "label_smoothing = 0.2"),
        ("train", "lr_factor = 0.5"),
        ("adapt", "lr_factor = 0.5"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_removed_recipe_options_rejected(self, work, tmp_path, capsys, command, extra):
        """Label smoothing, the partial-pair ratio range and adaptation's
        rate factor are fixed by the recipe: no flag or config key sets them."""
        argv = {
            "adapt": ["adapt", "--model", str(work / "model.bin"), "--data",
                      str(work / "data.npz"), "--dev", str(work / "eval.npz")],
            "train": ["train", "--data", str(work / "data.npz")],
        }[command] + ["--out", str(tmp_path / "never.bin")]
        if isinstance(extra, list):
            assert main(argv + extra) == 2
            assert "error: unrecognized arguments: " in capsys.readouterr().err
        else:
            cfg = tmp_path / "recipe.cfg"
            cfg.write_text(extra + "\n")
            assert main(["--config", str(cfg), *argv]) == 2
            assert "unknown config key" in capsys.readouterr().err
        assert not (tmp_path / "never.bin").exists()

    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    @pytest.mark.parametrize("line, option", [
        ("beam = 2.5", "--beam"),
        ("beam = true", "--beam"),
        ("length_norm = no", "--length-norm"),
    ])
    def test_mistyped_beam_config_exits_2(
        self, work, tmp_path, capsys, line, option, before
    ):
        cfg = tmp_path / "beam.cfg"
        cfg.write_text(line + "\n")
        config = ["--config", str(cfg)]
        rc = main([
            *(config if before else []), "run", *([] if before else config),
            "--model", str(work / "model.bin"),
            "--in", str(work / "eval.npz"), "--out", str(tmp_path / "never"),
            "--strategy", "hold-0",
        ])
        assert rc == 2
        assert f"error: argument {option}: " in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_wait_k_needs_positive_rate(self, work, capsys):
        rc = main([
            "run", "--model", str(work / "model.bin"),
            "--in", str(work / "eval.npz"), "--out", "x",
            "--strategy", "wait-k:1:0",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", ["<pad>", "<s>", "</s>"])
    def test_dump_attention_rejects_reserved_prefix(self, work, capsys, prefix):
        rc = main([
            "dump-attention", "--model", str(work / "model.bin"),
            "--in", str(work / "eval.npz"), "--out", str(work / "never.tsv"),
            "--prefix", prefix,
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (work / "never.tsv").exists()

    @pytest.mark.parametrize(
        "spec",
        [
            "hold-n:x", "wait-k:1:fast", "hold-n:2:3", "local-agreement:5",
            "offline:9", "wait-k:1:4:9", "HOLD-N:3", "hold-n",
        ],
    )
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_malformed_strategy_spec(self, work, capsys, command, spec):
        argv = {
            "run": ["run", "--model", str(work / "model.bin"), "--strategy", spec],
            "sweep": [
                "sweep", "--model", f"m={work / 'model.bin'}",
                "--strategies", f"offline,{spec}",
            ],
        }[command]
        rc = main([*argv, "--in", str(work / "eval.npz"), "--out", "x"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert repr(spec) in err

    def test_removed_strategy_flags_rejected(self, work, capsys):
        rc = main([
            "run", "--model", str(work / "model.bin"),
            "--in", str(work / "eval.npz"), "--out", "x",
            "--strategy", "hold-0", "--n", "5", "--k", "9",
        ])
        assert rc == 2
        assert "error: unrecognized arguments: --n 5 --k 9" in capsys.readouterr().err

    def test_duplicate_sweep_strategy(self, work, capsys):
        rc = main([
            "sweep", "--model", f"m={work / 'model.bin'}",
            "--in", str(work / "eval.npz"), "--out", "x",
            "--strategies", "hold-0,hold-n:0",
        ])
        assert rc == 2
        assert "error: sweep lists strategy HoldN(n=0) more than once" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def wide_data(self, work):
        """Utterances 8 frames wide, twice the workspace's width."""
        path = work / "wide.npz"
        assert main([
            "gen-data", "--out", str(path), "--count", "3", "--seed", "9",
            "--vocab-size", "6", "--min-tokens", "2", "--max-tokens", "3",
            "--frame-dim", "8",
        ]) == 0
        return path

    def test_train_rejects_mixed_frame_widths(self, work, wide_data, tmp_path, capsys):
        mixed = tmp_path / "mixed.npz"
        # both corpora are drawn with seed 9, so the wide utterance takes a
        # fresh id: a repeated one is refused before any batch is built
        wide = dataclasses.replace(load_utterances(str(wide_data))[0], id="wide-0")
        save_utterances([*load_utterances(str(work / "data.npz")), wide], str(mixed))
        rc = main([
            "train", "--data", str(mixed), "--out", str(tmp_path / "m.bin"),
            "--steps", "1", "--batch-size", "32", "--d-model", "8",
            "--heads", "2", "--ff-dim", "12", "--enc-layers", "1",
            "--dec-layers", "1",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: batch pair ")
        assert ", 8); the batch needs (" in err and ", 4)" in err

    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_adapt_rejects_non_positive_eval_every(self, work, tmp_path, capsys, every):
        rc = main([
            "adapt", "--model", str(work / "model.bin"),
            "--data", str(work / "data.npz"), "--dev", str(work / "eval.npz"),
            "--out", str(tmp_path / "a.bin"), "--steps", "1",
            "--batch-size", "4", "--eval-every", every,
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: eval_every must be >= 1\n"
        assert not (tmp_path / "a.bin").exists()

    def test_eval_rejects_repeated_utterance_id(self, work, tmp_path, capsys):
        """Logs are kept per id, so a reference whose id repeats would be
        scored against the other reference's log."""
        utts = load_utterances(str(work / "eval.npz"))
        refs = tmp_path / "refs.npz"
        save_utterances([*utts, utts[0]], str(refs))
        rc = main(["eval", "--refs", str(refs), "--hyps", str(work / "hyps.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"error: {refs}: utterance 14 ({utts[0].id!r}): "
                       f"repeats the id of utterance 0\n")

    def test_sweep_rejects_repeated_model_name(self, work, capsys):
        rc = main([
            "sweep", "--model", f"a={work / 'model.bin'}",
            "--model", f"a={work / 'model.bin'}",
            "--in", str(work / "eval.npz"), "--out", str(work / "never.csv"),
        ])
        assert rc == 2
        assert "error: --model names 'a' more than once" in capsys.readouterr().err
        assert not (work / "never.csv").exists()

    @pytest.mark.parametrize("chunk_sec, why", [
        ("0.333", "chunk length 0.333 is not a multiple of the frame period"),
        ("inf", "chunk_len_sec must be a finite number in (0, inf), got inf"),
    ], ids=["0.333", "inf"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unusable_chunk_len_exit_2(self, work, capsys, command, chunk_sec, why):
        """A chunk length that is no whole number of frames is refused
        before anything runs: sweep does not turn it into nan rows."""
        argv = {
            "run": ["run", "--model", str(work / "model.bin"), "--strategy", "hold-0"],
            "sweep": ["sweep", "--model", f"m={work / 'model.bin'}",
                      "--strategies", "hold-0"],
        }[command]
        rc = main([
            *argv, "--in", str(work / "eval.npz"),
            "--out", str(work / "never.csv"), "--chunk-sec", chunk_sec,
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {why}")
        assert not (work / "never.csv").exists()

    def test_adapt_rejects_data_of_another_width(self, work, wide_data, tmp_path, capsys):
        rc = main([
            "adapt", "--model", str(work / "model.bin"),
            "--data", str(wide_data), "--dev", str(work / "eval.npz"),
            "--out", str(tmp_path / "a.bin"), "--steps", "1",
            "--batch-size", "4",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: batch pair 0 has frames of shape (")
        assert ", 8); the batch needs (" in err and ", 4)" in err
