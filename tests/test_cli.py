import json

import numpy as np
import pytest

from streamdec import cli, decoder
from streamdec.cli import main
from streamdec.core import RESERVED_TOKENS, CommitLog, Utterance
from streamdec.decoder import BeamConfig
from streamdec.io import (
    load_attention_grids,
    load_commit_logs,
    load_utterances,
    save_commit_logs,
    save_utterances,
)
from streamdec.metrics import score_logs
from streamdec.model import load_model

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

    assert main(gen_args(str(d / "data.jsonl"), "9")) == 0
    assert main(gen_args(str(d / "eval.jsonl"), "11")) == 0
    assert main([
        "train", "--data", str(d / "data.jsonl"), "--out", str(d / "model.bin"),
        "--steps", "6", "--batch-size", "4", "--lr", "3e-3", "--warmup", "3",
        "--d-model", "8", "--heads", "2", "--ff-dim", "12",
        "--enc-layers", "1", "--dec-layers", "1", "--seed", "1",
        "--curve", str(d / "curve.csv"),
    ]) == 0
    assert main([
        "run", "--model", str(d / "model.bin"), "--in", str(d / "eval.jsonl"),
        "--out", str(d / "hyps.jsonl"), "--strategy", "hold-n:0",
        "--beam", "2",
    ]) == 0
    return d


class TestPipeline:
    def test_gen_data_wrote_utterances(self, work):
        utts = load_utterances(str(work / "data.jsonl"))
        assert len(utts) == 14
        assert utts[0].frames.shape[1] == 4
        assert 2 <= len(utts[0].reference_tokens) <= 3

    def test_gen_data_deterministic(self, work, tmp_path):
        again = tmp_path / "again.jsonl"
        assert main([
            "gen-data", "--out", str(again),
            "--count", "14", "--seed", "9", "--vocab-size", "6",
            "--min-tokens", "2", "--max-tokens", "3",
            "--min-frames-per-token", "6", "--max-frames-per-token", "8",
            "--frame-dim", "4",
        ]) == 0
        assert again.read_text() == (work / "data.jsonl").read_text()

    def test_train_wrote_model_and_curve(self, work):
        assert (work / "model.bin").stat().st_size > 0
        lines = (work / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "step,loss,lr"
        assert len(lines) == 7

    def test_run_prints_mean_of_written_logs(self, work, tmp_path, capsys):
        out = tmp_path / "hyps.jsonl"
        assert main([
            "run", "--model", str(work / "model.bin"), "--in", str(work / "eval.jsonl"),
            "--out", str(out), "--strategy", "offline", "--beam", "2",
        ]) == 0
        logs = load_commit_logs(str(out))
        refs = load_utterances(str(work / "eval.jsonl"))
        breakdown, report = score_logs(refs, logs)
        printed = capsys.readouterr().out
        assert f"committed {sum(len(log) for log in logs.values())} tokens" in printed
        mean = f"{report.mean_output_time_sec:.3f}" if report else "nan"
        assert f"mean output time {mean}s, WER {breakdown.rate:.4f}" in printed

    def test_run_with_no_commits_prints_nan(self, work, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_session", lambda *args: CommitLog())
        assert main([
            "run", "--model", str(work / "model.bin"), "--in", str(work / "eval.jsonl"),
            "--out", str(tmp_path / "none.jsonl"), "--strategy", "hold-0",
        ]) == 0
        assert (
            "committed 0 tokens, mean output time nans, WER 1.0000"
            in capsys.readouterr().out
        )

    def test_run_wrote_commit_logs(self, work):
        logs = load_commit_logs(str(work / "hyps.jsonl"))
        refs = load_utterances(str(work / "eval.jsonl"))
        assert set(logs) <= {u.id for u in refs}
        first = next(iter(logs.values())).entries[0]
        assert first.output_time_sec > 0

    def test_eval_scores_hyps(self, work, capsys):
        out = work / "summary.json"
        assert main([
            "eval", "--refs", str(work / "eval.jsonl"),
            "--hyps", str(work / "hyps.jsonl"), "--out", str(out),
        ]) == 0
        summary = json.loads(out.read_text())
        assert 0.0 <= summary["wer"]
        assert summary["token_count"] > 0
        assert "wer:" in capsys.readouterr().out

    def test_eval_with_baseline_reports_delta(self, work, capsys):
        assert main([
            "eval", "--refs", str(work / "eval.jsonl"),
            "--hyps", str(work / "hyps.jsonl"),
            "--baseline", str(work / "hyps.jsonl"),
        ]) == 0
        printed = capsys.readouterr().out
        assert "delta_vs_baseline: 0.0" in printed

    def test_sweep_emits_csv(self, work, capsys):
        out = work / "rows.csv"
        assert main([
            "sweep", "--model", f"m={work / 'model.bin'}",
            "--in", str(work / "eval.jsonl"), "--out", str(out),
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
            "--in", str(work / "eval.jsonl"), "--out", str(tmp_path / "out"),
            strategy, "hold-0", "--beam", "2", "--length-norm",
        ]) == 0
        assert seen
        assert set(seen) == {BeamConfig(beam_width=2, length_normalize=True)}

    def test_dump_attention_writes_grids(self, work):
        out = work / "attn.tsv"
        assert main([
            "dump-attention", "--model", str(work / "model.bin"),
            "--in", str(work / "eval.jsonl"), "--out", str(out),
        ]) == 0
        grids = load_attention_grids(str(out))
        assert any(name.startswith("cross.") for name in grids)
        for g in grids.values():
            np.testing.assert_allclose(
                g.sum(axis=-1), np.ones(g.shape[0]), atol=1e-5
            )

    def test_adapt_round_trip(self, work):
        out = work / "adapted.bin"
        assert main([
            "adapt", "--model", str(work / "model.bin"),
            "--data", str(work / "data.jsonl"),
            "--dev", str(work / "eval.jsonl"), "--out", str(out),
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
        refs = tmp_path / "refs.jsonl"
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
        refs = tmp_path / "refs.jsonl"
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
        refs = tmp_path / "refs.jsonl"
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
                "gen-data", "--out", str(d / f"{name}.jsonl"), "--translation",
                "--count", "6", "--seed", seed, "--vocab-size", "6",
                "--min-tokens", "2", "--max-tokens", "3", "--frame-dim", "4",
            ]) == 0
        assert main([
            "train", "--data", str(d / "data.jsonl"), "--out", str(d / "model.bin"),
            "--steps", "2", "--batch-size", "4", "--d-model", "8", "--heads", "2",
            "--ff-dim", "12", "--enc-layers", "1", "--dec-layers", "1",
        ]) == 0
        return d

    def test_model_vocab_is_target_side(self, tx):
        data = load_utterances(str(tx / "data.jsonl"))
        assert all(u.target_tokens is not None for u in data)
        targets = sorted({t for u in data for t in u.target_tokens})
        vocab = load_model(str(tx / "model.bin")).vocab
        assert vocab.tokens == RESERVED_TOKENS + tuple(targets)

    def test_adapt_run_and_eval(self, tx, capsys):
        assert main([
            "adapt", "--model", str(tx / "model.bin"), "--data", str(tx / "data.jsonl"),
            "--dev", str(tx / "eval.jsonl"), "--out", str(tx / "adapted.bin"),
            "--steps", "2", "--batch-size", "4", "--eval-every", "1",
        ]) == 0
        assert main([
            "run", "--model", str(tx / "adapted.bin"), "--in", str(tx / "eval.jsonl"),
            "--out", str(tx / "hyps.jsonl"), "--strategy", "offline", "--beam", "2",
        ]) == 0
        assert main([
            "eval", "--refs", str(tx / "eval.jsonl"), "--hyps", str(tx / "hyps.jsonl"),
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
        out = tmp_path / "cfg-data.jsonl"
        assert main(
            ["--config", str(cfg), "gen-data", "--out", str(out)]
        ) == 0
        assert len(load_utterances(str(out))) == 5

    def test_flag_overrides_config(self, work, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("count = 5\nframe-dim = 4\nvocab-size = 6\n")
        out = tmp_path / "cfg-data2.jsonl"
        assert main([
            "--config", str(cfg), "gen-data", "--out", str(out),
            "--count", "3",
        ]) == 0
        assert len(load_utterances(str(out))) == 3

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no-such-option = 1\n")
        rc = main(["--config", str(cfg), "gen-data", "--out", "x.jsonl"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_line_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert main(["--config", str(cfg), "gen-data", "--out", "x"]) == 2
        assert "error:" in capsys.readouterr().err


class TestErrorPaths:
    @pytest.mark.parametrize("line, why", MALFORMED_COMMIT_RECORDS)
    def test_eval_rejects_malformed_hyps(self, work, tmp_path, capsys, line, why):
        hyps = tmp_path / "hyps.jsonl"
        write_commit_log_with(hyps, line)
        rc = main(["eval", "--refs", str(work / "eval.jsonl"), "--hyps", str(hyps)])
        assert rc == 2
        assert f"{hyps}:2: " in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["gen-data"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_model_file(self, work, capsys):
        rc = main([
            "run", "--model", str(work / "nope.bin"),
            "--in", str(work / "eval.jsonl"), "--out", "x",
            "--strategy", "offline",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_sweep_model_spec(self, work, capsys):
        rc = main([
            "sweep", "--model", "justapath",
            "--in", str(work / "eval.jsonl"), "--out", "x",
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
    ])
    def test_non_finite_numbers_exit_2(self, work, capsys, argv):
        paths = {
            "run": ["--model", str(work / "model.bin"),
                    "--in", str(work / "eval.jsonl")],
            "train": ["--data", str(work / "data.jsonl")],
            "gen-data": [],
        }[argv[0]]
        rc = main(argv + paths + ["--out", str(work / "never")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (work / "never").exists()

    def test_wait_k_needs_positive_rate(self, work, capsys):
        rc = main([
            "run", "--model", str(work / "model.bin"),
            "--in", str(work / "eval.jsonl"), "--out", "x",
            "--strategy", "wait-k:1:0",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", ["<pad>", "<s>", "</s>"])
    def test_dump_attention_rejects_reserved_prefix(self, work, capsys, prefix):
        rc = main([
            "dump-attention", "--model", str(work / "model.bin"),
            "--in", str(work / "eval.jsonl"), "--out", str(work / "never.tsv"),
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
        rc = main([*argv, "--in", str(work / "eval.jsonl"), "--out", "x"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert repr(spec) in err

    def test_removed_strategy_flags_rejected(self, work, capsys):
        with pytest.raises(SystemExit) as e:
            main([
                "run", "--model", str(work / "model.bin"),
                "--in", str(work / "eval.jsonl"), "--out", "x",
                "--strategy", "hold-0", "--n", "5", "--k", "9",
            ])
        assert e.value.code == 2
        assert "error: unrecognized arguments: --n 5 --k 9" in capsys.readouterr().err

    def test_duplicate_sweep_strategy(self, work, capsys):
        rc = main([
            "sweep", "--model", f"m={work / 'model.bin'}",
            "--in", str(work / "eval.jsonl"), "--out", "x",
            "--strategies", "hold-0,hold-n:0",
        ])
        assert rc == 2
        assert "error: sweep lists strategy HoldN(n=0) more than once" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def wide_data(self, work):
        """Utterances 8 frames wide, twice the workspace's width."""
        path = work / "wide.jsonl"
        assert main([
            "gen-data", "--out", str(path), "--count", "3", "--seed", "9",
            "--vocab-size", "6", "--min-tokens", "2", "--max-tokens", "3",
            "--frame-dim", "8",
        ]) == 0
        return path

    def test_train_rejects_mixed_frame_widths(self, work, wide_data, tmp_path, capsys):
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(
            (work / "data.jsonl").read_text() + wide_data.read_text().splitlines()[0] + "\n"
        )
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
            "--data", str(work / "data.jsonl"), "--dev", str(work / "eval.jsonl"),
            "--out", str(tmp_path / "a.bin"), "--steps", "1",
            "--batch-size", "4", "--eval-every", every,
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: eval_every must be >= 1\n"
        assert not (tmp_path / "a.bin").exists()

    def test_sweep_rejects_repeated_model_name(self, work, capsys):
        rc = main([
            "sweep", "--model", f"a={work / 'model.bin'}",
            "--model", f"a={work / 'model.bin'}",
            "--in", str(work / "eval.jsonl"), "--out", str(work / "never.csv"),
        ])
        assert rc == 2
        assert "error: --model names 'a' more than once" in capsys.readouterr().err
        assert not (work / "never.csv").exists()

    @pytest.mark.parametrize("chunk_sec", ["0.333", "inf"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unusable_chunk_len_exit_2(self, work, capsys, command, chunk_sec):
        """A chunk length that is no whole number of frames is refused
        before anything runs: sweep does not turn it into nan rows."""
        argv = {
            "run": ["run", "--model", str(work / "model.bin"), "--strategy", "hold-0"],
            "sweep": ["sweep", "--model", f"m={work / 'model.bin'}",
                      "--strategies", "hold-0"],
        }[command]
        rc = main([
            *argv, "--in", str(work / "eval.jsonl"),
            "--out", str(work / "never.csv"), "--chunk-sec", chunk_sec,
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: chunk length")
        assert not (work / "never.csv").exists()

    def test_adapt_rejects_data_of_another_width(self, work, wide_data, tmp_path, capsys):
        rc = main([
            "adapt", "--model", str(work / "model.bin"),
            "--data", str(wide_data), "--dev", str(work / "eval.jsonl"),
            "--out", str(tmp_path / "a.bin"), "--steps", "1",
            "--batch-size", "4",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: batch pair 0 has frames of shape (")
        assert ", 8); the batch needs (" in err and ", 4)" in err
