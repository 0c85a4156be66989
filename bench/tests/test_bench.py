"""Tests of the benchmark itself: determinism of the per-layer counters, that
tracing does not change outputs, the output checks, the fixture digest gate
and the agreement of BENCHMARK.json with the code.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402  (pins BLAS threads, imports streamdec from src/)
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from streamdec import CommitLog  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so that a run takes a few seconds."""
    wl = workloads.WORKLOADS
    monkeypatch.setitem(wl, "stream-short",
                        dataclasses.replace(wl["stream-short"], utterances=6))
    monkeypatch.setitem(wl, "stream-long",
                        dataclasses.replace(wl["stream-long"], utterances=2,
                                            mode_check=1))
    monkeypatch.setitem(wl, "train", dataclasses.replace(
        wl["train"], corpus=24, heldout=4,
        config=dataclasses.replace(wl["train"].config, total_steps=2)))


def _counters(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if not k.endswith("ms") and not k.startswith("trace.")}


@pytest.mark.parametrize("name", ["stream-short", "stream-long", "train"])
def test_layer_counters_repeat_and_tracing_keeps_outputs(small, name):
    untraced = workloads.run(name, seed=3, seconds=0.0, trace=False)
    first = workloads.run(name, seed=3, seconds=0.0, trace=True)
    second = workloads.run(name, seed=3, seconds=0.0, trace=True)
    for out in (untraced, first, second):
        assert out.problems == [] and out.failed == 0
    assert _counters(first.metrics) == _counters(second.metrics)
    assert first.info["wer"] == untraced.info["wer"]
    if name == "train":
        assert first.info["train_loss"] == untraced.info["train_loss"]
        assert first.metrics["transformer.dec_advance.calls"] == 0
        assert first.metrics["autodiff.matmul.calls"] > 0
    else:
        assert first.info["logs_digest"] == untraced.info["logs_digest"]
        assert first.metrics["autodiff.matmul.calls"] == 0
        assert first.metrics["transformer.dec_advance.calls"] > 0


def test_untraced_run_prints_every_end_to_end_metric(small):
    out = workloads.run("stream-short", seed=1, seconds=0.0, trace=False)
    assert set(out.metrics) == set(workloads.END_TO_END)
    assert all(v > 0 for v in out.metrics.values())
    assert out.attempted == 6 and out.info["samples"] > 0


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    wrapped_leaf = tracer.timed("leaf", leaf)
    root = tracer.timed("root", lambda: [wrapped_leaf() for _ in range(3)])
    root()
    root()
    st = tracer.stats()
    assert st["root"].calls == 2 and st["leaf"].calls == 6
    assert st["root"].self_s + st["leaf"].self_s == pytest.approx(
        st["root"].total_s, rel=1e-12)
    assert [s[3] for s in tracer.spans[:4]] == [-1, 0, 0, 0]


def test_patch_and_restore_leave_the_program_untouched():
    from streamdec import decoder

    original = decoder.beam_search
    tracer = Tracer()
    tracer.patch(decoder, "beam_search", "decoder.beam_search")
    assert decoder.beam_search is not original
    tracer.restore()
    assert decoder.beam_search is original


def _log(*entries):
    log = CommitLog()
    for token, chunk in entries:
        log.commit([token], chunk, 0.5)
    return log


def test_check_session_accepts_a_well_formed_log():
    log = _log(("w01", 1), ("w02", 3))
    assert workloads.check_session(
        log, [("w01",), (), ("w02",)], 3, 0.5, {"w01", "w02"}) is None


def test_check_session_rejects_malformed_logs():
    words = {"w01", "w02"}
    log = _log(("w01", 2))
    log._entries.append(dataclasses.replace(log.entries[0], chunk_index=1))
    assert "went back" in workloads.check_session(log, [], 3, 0.5, words)
    log = _log(("w01", 2))
    log._entries[0] = dataclasses.replace(log.entries[0], output_time_sec=0.9)
    assert "stamped" in workloads.check_session(log, [("w01",)], 3, 0.5, words)
    log = _log(("w01", 4))
    assert "outside" in workloads.check_session(log, [("w01",)], 3, 0.5, words)
    log = _log(("w01", 1))
    assert "differs" in workloads.check_session(log, [("w02",)], 3, 0.5, words)
    log = _log(("</s>", 1))
    assert "non-word" in workloads.check_session(log, [("</s>",)], 3, 0.5, words)


def test_mismatched_fixture_digest_is_refused(tmp_path, monkeypatch):
    manifest = json.loads((spec.FIXTURES / "manifest.json").read_text())
    shutil.copy(spec.FIXTURES / manifest["bidi"]["file"], tmp_path)
    manifest["bidi"]["sha256"] = "0" * 64
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(workloads, "FIXTURES", tmp_path)
    with pytest.raises(workloads.BenchmarkError, match="digest"):
        workloads.fixture_path("bidi")


def test_benchmark_json_matches_the_code():
    bench = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.LISTED)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == workloads.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
