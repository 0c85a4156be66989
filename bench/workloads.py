"""The benchmark's workloads: inputs, set-up, the timed loop, output checks
and the traced pass.

Every workload is a closed loop with one client in this process. A stream
workload hands each chunk to ``decoder.step_chunk`` as soon as the previous
call returns, one utterance after another, cycling over a seeded pool of
utterances until the run time is used up; the first pass over the pool always
completes, and every later pass must reproduce its commit logs exactly. The
train workload repeats one fixed ``training.train`` run the same way.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any

import spec
from spec import FIXTURES, LONG_SPEC, SHORT_SPEC, WORK

import numpy as np

from streamdec import (
    BUFFERED_STATE,
    FORCED_REDECODE,
    BeamConfig,
    HoldN,
    LocalAgreement,
    Session,
    SyntheticTaskSpec,
    TinyTransformer,
    TrainConfig,
    WaitK,
    gen_dataset,
    load_model,
)
from streamdec import autodiff, decoder, harness, training, transformer
from streamdec import io as sio
from streamdec.core import EOS_ID
from streamdec.metrics import corpus_wer, mean_output_time

from spans import Tracer

clock = time.perf_counter

SETUP_REPEATS = 9
# Cycled over the utterances of a stream workload, one strategy per session.
STRATEGIES = (HoldN(0), HoldN(2), LocalAgreement(), WaitK(1, 4.0))
AUTODIFF_OPS = (
    "add", "mul", "scale", "matmul", "relu", "reshape", "transpose",
    "softmax", "log_softmax", "layer_norm", "embedding", "sum_all",
)

# name -> (unit, better, bound); printed by every run with --trace 0. Wall
# time on a shared 2-CPU box drifts by 10-15% between runs of the same seed,
# so the timing bounds sit just under the largest allowed, which set-up gets.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "step_ms_p50": ("ms", "lower", 0.24),
    "rtf": ("s/s", "lower", 0.24),
    "steps_per_s": ("1/s", "higher", 0.24),
    "word_acc": ("ratio", "higher", 0.15),
}

_STREAM_LAYER = [
    ("decoder.step_chunk.calls", "count", "lower"),
    ("decoder.step_chunk.ms", "ms", "lower"),
    ("decoder.step_chunk.self_ms", "ms", "lower"),
    ("decoder.beam_search.calls", "count", "lower"),
    ("decoder.beam_search.self_ms", "ms", "lower"),
    ("decoder.hypotheses_returned", "count", "lower"),
    ("decoder.forced_prefix_tokens", "count", "lower"),
    ("decoder.continuation_tokens", "count", "lower"),
    ("transformer.encode.calls", "count", "lower"),
    ("transformer.encode.self_ms", "ms", "lower"),
    ("transformer.encode.rows_in", "count", "lower"),
    ("transformer.encode.new_rows", "count", "lower"),
    ("transformer.dec_init.calls", "count", "lower"),
    ("transformer.dec_init.self_ms", "ms", "lower"),
    ("transformer.dec_advance.calls", "count", "lower"),
    ("transformer.dec_advance.self_ms", "ms", "lower"),
    ("transformer.dec_advance.calls_per_chunk", "count", "lower"),
    ("strategies.select_prefix.self_ms", "ms", "lower"),
    ("strategies.committed_tokens", "count", "higher"),
    ("strategies.commit_ratio", "ratio", "higher"),
    ("metrics.wer", "ratio", "lower"),
    ("metrics.mean_t_out_s", "s", "lower"),
]
_TRAIN_LAYER = [
    ("training.Adam.step.calls", "count", "higher"),
    ("training.Adam.step.self_ms", "ms", "lower"),
    ("training.make_batch.self_ms", "ms", "lower"),
    ("training.batch_loss_and_grads.self_ms", "ms", "lower"),
    ("transformer.training_loss.self_ms", "ms", "lower"),
    ("autodiff.backward.self_ms", "ms", "lower"),
    *[
        (f"autodiff.{op}.{field}", unit, "lower")
        for op in AUTODIFF_OPS
        for field, unit in (("calls", "count"), ("fwd_ms", "ms"), ("bwd_ms", "ms"))
    ],
    ("autodiff.matmul.flops", "count", "lower"),
    ("autodiff.matmul.bytes", "bytes", "lower"),
    ("training.train_loss", "nats", "lower"),
]
_COMMON_LAYER = [
    ("io.load_utterances.ms", "ms", "lower"),
    ("trace.untraced_step_ms", "ms", "lower"),
    ("trace.traced_step_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]
# name -> (unit, better); printed by every run with --trace 1
PER_LAYER = {n: (u, b) for n, u, b in _STREAM_LAYER + _TRAIN_LAYER + _COMMON_LAYER}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run: a fixture is missing or does not match."""


@dataclass(frozen=True)
class StreamWorkload:
    why: str
    fixture: str
    task: SyntheticTaskSpec
    utterances: int
    chunk_sec: float
    beam: int
    mode: str
    # the first n utterances must decode identically in forced and buffered
    # mode (harness.compare_modes)
    mode_check: int = 0


@dataclass(frozen=True)
class TrainWorkload:
    why: str
    fixture: str  # the starting point of every run
    task: SyntheticTaskSpec
    corpus: int
    heldout: int
    config: TrainConfig


WORKLOADS: dict[str, StreamWorkload | TrainWorkload] = {
    "stream-short": StreamWorkload(
        why="paper traffic: bidirectional model, forced mode, 0.5 s chunks, "
        "beam 8; decoder-bound, no encoder reuse possible",
        fixture="bidi",
        task=SHORT_SPEC,
        utterances=120,
        chunk_sec=0.5,
        beam=8,
        mode=FORCED_REDECODE,
        mode_check=2,
    ),
    "stream-long": StreamWorkload(
        why="causal model, buffered mode, ~5 s streams in 0.1 s chunks, "
        "beam 4; long encoder and committed prefixes grow every chunk",
        fixture="causal",
        task=LONG_SPEC,
        utterances=32,
        chunk_sec=0.1,
        beam=4,
        mode=BUFFERED_STATE,
        mode_check=2,
    ),
    "train": TrainWorkload(
        why="fixed training.train run, B=16, d_model=32; isolates the "
        "autodiff and training layers, never calls dec_advance",
        fixture="bidi",
        task=SHORT_SPEC,
        corpus=160,
        heldout=32,
        config=TrainConfig(
            learning_rate=2e-3, warmup_steps=100, batch_size=16,
            total_steps=20, seed=0,
        ),
    ),
}


# The workloads BENCHMARK.json lists. stream-long runs by hand only: its
# step_ms_p50 spread across ten seeds exceeded 0.24 in two of five sets of
# ten runs on the 2-vCPU VM the benchmark was defined on, as the vCPU speed
# switched between two levels mid-set; the listed workloads never did.
LISTED = ("stream-short", "train")


@dataclass
class Outcome:
    """Everything one run measured; ``metrics`` maps name -> value."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)


# --- environment and inputs ---------------------------------------------------


def _openblas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> tuple[dict[str, Any], list[str]]:
    """The environment to record with a result, and warnings about it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        **{v: os.environ.get(v) for v in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    warnings = [
        f"{k}={env[k]} is wider than 1"
        for k in ("blas_threads", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")
        if env[k] is not None and int(env[k]) > 1
    ]
    return env, warnings


def fixture_path(name: str):
    """Path of a checked-in model fixture whose digest matches the manifest."""
    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    if name not in manifest:
        raise BenchmarkError(f"fixture {name!r} is not in the manifest")
    path = FIXTURES / manifest[name]["file"]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != manifest[name]["sha256"]:
        raise BenchmarkError(
            f"fixture {path.name} has digest {digest}, the manifest says "
            f"{manifest[name]['sha256']}; rebuild with bench/make_fixtures.py"
        )
    return path


def write_corpus(name: str, task: SyntheticTaskSpec, count: int, seed: int):
    """Generate the seed's utterances and save them as the JSONL the program
    loads at set-up. Draw seeds are offset so that they never coincide with
    the fixtures' training draws."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{name}-corpus.jsonl"
    sio.save_utterances(gen_dataset(task, count, 10_000 + seed), str(path))
    return path


def set_up(fixture: str, corpus, tracer: Tracer | None):
    """What the program does before it serves: load the model and the
    utterances. Done ``SETUP_REPEATS`` times; returns the model, the
    utterances and the median set-up time in seconds."""
    path = fixture_path(fixture)
    if tracer:
        tracer.request = "setup"
        tracer.patch(sio, "load_utterances", "io.load_utterances")
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            model = load_model(str(path))
            utts = sio.load_utterances(str(corpus))
            times.append(clock() - t0)
    finally:
        if tracer:
            tracer.restore()
    return model, utts, statistics.median(times)


def _arg(args: tuple, kwargs: dict, i: int, name: str) -> Any:
    return args[i] if len(args) > i else kwargs[name]


def _record_timing(times_s: list[float], audio_s: float, out: Outcome) -> None:
    """End-to-end timing metrics of the untraced steps. The 95th percentile
    goes to the record line: it moved by 40% between runs of one seed when
    the machine slowed, more than any bound allows."""
    p50, p95 = np.percentile(np.asarray(times_s) * 1e3, [50, 95])
    out.metrics.update(
        step_ms_p50=float(p50),
        rtf=sum(times_s) / audio_s,
        steps_per_s=len(times_s) / sum(times_s),
    )
    out.info.update(samples=len(times_s), step_ms_p95=float(p95), audio_s=audio_s)


# --- stream workloads -------------------------------------------------------


def check_session(log, committed, n_chunks: int, chunk_sec: float,
                  words: set[str]) -> str | None:
    """Why a session's commit log is malformed, or None if it is well formed."""
    prev = 0
    for e in log.entries:
        if e.chunk_index < prev:
            return f"chunk index went back from {prev} to {e.chunk_index}"
        if not 1 <= e.chunk_index <= n_chunks:
            return f"chunk index {e.chunk_index} outside 1..{n_chunks}"
        if e.output_time_sec != e.chunk_index * chunk_sec:
            return (f"token at chunk {e.chunk_index} stamped "
                    f"{e.output_time_sec}, not {e.chunk_index * chunk_sec}")
        if e.token not in words:
            return f"committed non-word token {e.token!r}"
        prev = e.chunk_index
    if tuple(t for c in committed for t in c) != log.tokens:
        return "commit log differs from the tokens step_chunk committed"
    return None


def _trace_stream(tracer: Tracer, model, pass_no: int) -> None:
    c = tracer.counts

    def on_encode(args, kwargs, enc):
        prior = args[1] if len(args) > 1 else kwargs.get("prior")
        c["transformer.encode.rows_in"] += len(args[0])
        c["transformer.encode.new_rows"] += enc.frames_covered - (
            prior.frames_covered if prior is not None else 0
        )

    def on_beam(args, kwargs, hyps):
        c["decoder.forced_prefix_tokens"] += len(_arg(args, kwargs, 2, "forced_prefix"))
        c["decoder.hypotheses_returned"] += len(hyps)

    def on_select(args, kwargs, out):
        c["strategies.committed_tokens"] += len(out[0])

    def on_chunk_start(args, kwargs):
        chunk = _arg(args, kwargs, 1, "chunk")
        tracer.request = f"pass{pass_no}:{chunk.utt_id}#{chunk.index}"

    def on_chunk(args, kwargs, out):
        c["decoder.continuation_tokens"] += len(out[0].tokens)

    tracer.patch(model, "encode", "transformer.encode", after=on_encode)
    tracer.patch(model, "dec_init", "transformer.dec_init")
    tracer.patch(model, "dec_advance", "transformer.dec_advance")
    tracer.patch(decoder, "beam_search", "decoder.beam_search", after=on_beam)
    tracer.patch(decoder, "select_prefix", "strategies.select_prefix", after=on_select)
    tracer.patch(decoder, "step_chunk", "decoder.step_chunk",
                 before=on_chunk_start, after=on_chunk)


def _run_session(model, utt, strategy, wl: StreamWorkload, beam: BeamConfig):
    session = Session(model=model, utterance=utt, strategy=strategy,
                      chunk_len_sec=wl.chunk_sec, beam=beam, mode=wl.mode)
    chunks = session.chunks()
    times, committed = [], []
    for chunk in chunks:
        t0 = clock()
        _, tokens = decoder.step_chunk(session, chunk)
        times.append(clock() - t0)
        committed.append(tokens)
    return session.log, committed, times, len(chunks)


def run_stream(name: str, wl: StreamWorkload, seed: int, seconds: float,
               trace: bool, out: Outcome) -> None:
    tracer = Tracer() if trace else None
    corpus = write_corpus(name, wl.task, wl.utterances, seed)
    model, utts, out.metrics["setup_s"] = set_up(wl.fixture, corpus, tracer)
    words = {model.vocab.token_of(i) for i in model.vocab.word_ids()}
    beam = BeamConfig(beam_width=wl.beam)
    jobs = [(u, STRATEGIES[i % len(STRATEGIES)]) for i, u in enumerate(utts)]

    def attempt(utt, strategy, tracing: bool):
        """One session, checked; its log and step times, or None if it raised."""
        out.attempted += 1
        if tracing:
            _trace_stream(tracer, model, passes + 1)
        try:
            log, committed, times, n_chunks = _run_session(
                model, utt, strategy, wl, beam)
        except Exception as e:  # a failed session fails the run
            out.failed += 1
            out.fail(f"{utt.id}: {type(e).__name__}: {e}")
            return None
        finally:
            if tracing:
                tracer.restore()
        bad = check_session(log, committed, n_chunks, wl.chunk_sec, words)
        if bad:
            out.fail(f"{utt.id}: {bad}")
        if log != first_logs.setdefault(utt.id, log):
            out.fail(f"{utt.id}: pass {passes + 1}{' traced' if tracing else ''}"
                     " commit log differs from the first")
        return log, times

    first_logs: dict[str, Any] = {}
    timed: list[float] = []  # step_chunk seconds, untraced
    traced: list[float] = []  # step_chunk seconds, traced
    audio_s = 0.0
    passes = 0
    deadline = clock() + seconds
    # Cycle until the deadline, always finishing the first pass. When
    # tracing, each session runs untraced and then traced, so the overhead is
    # measured on paired work, and passes are whole, so that per-pass counts
    # repeat exactly.
    while passes == 0 or clock() < deadline:
        for utt, strategy in jobs:
            if passes and tracer is None and clock() >= deadline:
                break
            for tracing in (False, True) if tracer else (False,):
                result = attempt(utt, strategy, tracing)
                if result is None:
                    continue
                if tracing:
                    traced.extend(result[1])
                else:
                    timed.extend(result[1])
                    audio_s += utt.duration_sec
        passes += 1

    pairs = [(harness.eval_tokens(u), first_logs[u.id].tokens)
             for u in utts if u.id in first_logs]
    wer = corpus_wer(pairs).rate
    mean_t_out = mean_output_time(first_logs).mean_output_time_sec
    for utt, strategy in jobs[: wl.mode_check]:
        cmp = harness.compare_modes(model, [utt], strategy, wl.chunk_sec, beam)
        if not cmp.equal:
            out.fail(f"{utt.id}: forced != buffered: {cmp.divergence}")

    _record_timing(timed, audio_s, out)
    out.metrics["word_acc"] = 1.0 - wer
    out.info.update(passes=passes, sessions_per_pass=len(jobs), wer=wer,
                    mean_t_out_s=mean_t_out, logs_digest=_digest(first_logs))
    if tracer:
        out.metrics.update(_layer_metrics(tracer, passes, timed, traced))
        out.metrics["metrics.wer"] = wer
        out.metrics["metrics.mean_t_out_s"] = mean_t_out
        _write_trace(tracer, name, seed, out)


def _digest(logs: dict[str, Any]) -> str:
    """Digest of commit logs, to compare the outputs of two runs."""
    h = hashlib.sha256()
    for utt_id in sorted(logs):
        h.update(repr((utt_id, logs[utt_id].entries)).encode())
    return h.hexdigest()


# --- train workload -----------------------------------------------------------


def _trace_train(tracer: Tracer, run_no: int) -> None:
    c = tracer.counts
    steps = [0]

    def on_step_start(args, kwargs):
        steps[0] += 1
        tracer.request = f"run{run_no}:step{steps[0]}"

    def backward_timed(op: str):
        bwd_name = f"autodiff.{op}.bwd"

        def after(args, kwargs, t):
            if op == "matmul":
                a, b = (np.asarray(getattr(x, "data", x)) for x in args[:2])
                c["autodiff.matmul.flops"] += 2 * t.data.size * a.shape[-1]
                c["autodiff.matmul.bytes"] += t.data.itemsize * (
                    a.size + b.size + t.data.size)
            if t._bw is not None:
                t._bw = tracer.timed(bwd_name, t._bw)

        return after

    for op in AUTODIFF_OPS:
        if hasattr(autodiff, op):
            tracer.patch(autodiff, op, f"autodiff.{op}", after=backward_timed(op))
    tracer.patch(autodiff.Tensor, "backward", "autodiff.backward")
    tracer.patch(training, "make_batch", "training.make_batch", before=on_step_start)
    tracer.patch(training, "batch_loss_and_grads", "training.batch_loss_and_grads")
    tracer.patch(transformer, "training_loss", "transformer.training_loss")
    tracer.patch(training.Adam, "step", "training.Adam.step")


def teacher_forced_wer(model: TinyTransformer, utts) -> float:
    """Corpus WER of the teacher-forced argmax transcripts, each cut at the
    first end-of-sequence prediction; never calls the incremental decoder."""
    batch = training.make_batch(
        [(u.frames, u.reference_tokens) for u in utts],
        model.vocab, model.cfg.frame_dim)
    logp = transformer.training_logits(
        model.cfg, transformer.leaf_tensors(model.params),
        batch["frames"], batch["frame_mask"], batch["dec_in"]).data
    pairs = []
    for u, row in zip(utts, logp.argmax(axis=-1)):
        ids = row.tolist()
        ids = ids[: ids.index(EOS_ID)] if EOS_ID in ids else ids
        pairs.append((u.reference_tokens, model.vocab.decode(ids)))
    return corpus_wer(pairs).rate


def _train_once(model, utts, cfg: TrainConfig):
    """One fixed training run: the trained model, its loss curve, the
    duration of each step (between the ends of ``Adam.step``) and the frames
    in its batches."""
    ends: list[float] = []
    frames = [0]
    step, make_batch = training.Adam.step, training.make_batch

    def step_probe(self, grads, lr):
        step(self, grads, lr)
        ends.append(clock())

    def batch_probe(pairs, *args, **kwargs):
        frames[0] += sum(len(f) for f, _ in pairs)
        return make_batch(pairs, *args, **kwargs)

    training.Adam.step, training.make_batch = step_probe, batch_probe
    try:
        t0 = clock()
        trained, curve = training.train(model, utts, cfg)
    finally:
        training.Adam.step, training.make_batch = step, make_batch
    return trained, curve, list(np.diff([t0, *ends])), frames[0]


def run_train(name: str, wl: TrainWorkload, seed: int, seconds: float,
              trace: bool, out: Outcome) -> None:
    tracer = Tracer() if trace else None
    corpus = write_corpus(name, wl.task, wl.corpus + wl.heldout, seed)
    model, utts, out.metrics["setup_s"] = set_up(wl.fixture, corpus, tracer)
    train_utts, heldout = utts[: wl.corpus], utts[wl.corpus:]
    steps = wl.config.total_steps

    first: list = []  # the first run's (model, loss curve)
    timed: list[float] = []  # step seconds, untraced
    traced: list[float] = []  # step seconds, traced
    audio_s = 0.0
    runs = 0
    deadline = clock() + seconds
    # Repeat the fixed run until the deadline, at least once; when tracing,
    # each untraced run is followed by a traced one, as in run_stream.
    while runs == 0 or clock() < deadline:
        for tracing in (False, True) if tracer else (False,):
            out.attempted += steps
            if tracing:
                _trace_train(tracer, runs + 1)
            try:
                trained, curve, times, frames = _train_once(
                    model, train_utts, wl.config)
            except Exception as e:  # a failed run fails the run
                out.failed += steps
                out.fail(f"training run {runs + 1}: {type(e).__name__}: {e}")
                continue
            finally:
                if tracing:
                    tracer.restore()
            if not all(math.isfinite(loss) for _, loss, _ in curve):
                out.fail(f"training run {runs + 1}: non-finite loss")
            if not first:
                first = [trained, curve]
            elif curve != first[1]:
                out.fail(f"training run {runs + 1}{' traced' if tracing else ''}"
                         ": loss curve differs from the first")
            if tracing:
                traced.extend(times)
            else:
                timed.extend(times)
                audio_s += frames * wl.task.frame_period_sec
        runs += 1

    if not timed:
        return
    first_model, first_curve = first
    train_loss = first_curve[-1][1]
    wer = teacher_forced_wer(first_model, heldout)
    out.metrics["word_acc"] = 1.0 - wer
    _record_timing(timed, audio_s, out)
    out.info.update(runs=runs, steps_per_run=steps, train_loss=train_loss,
                    wer=wer)
    if tracer:
        out.metrics.update(_layer_metrics(tracer, runs, timed, traced))
        out.metrics["training.train_loss"] = train_loss
        _write_trace(tracer, name, seed, out)


# --- per-layer metrics --------------------------------------------------------


def _layer_metrics(tracer: Tracer, units: int, untraced: list[float],
                   traced: list[float]) -> dict[str, float]:
    """Per-layer metrics per traced unit of work: one pass over the stream
    pool, or one training run. Set-up is reported per call."""
    st = tracer.stats()
    m = {name: 0.0 for name in PER_LAYER}

    def take(metric: str, span: str, what: str) -> None:
        s = st.get(span)
        if s is not None:
            m[metric] = {"calls": s.calls, "ms": 1e3 * s.total_s,
                         "self_ms": 1e3 * s.self_s}[what] / units

    for metric in PER_LAYER:
        span, _, what = metric.rpartition(".")
        if what in ("calls", "self_ms") and span in st:
            take(metric, span, what)
    take("decoder.step_chunk.ms", "decoder.step_chunk", "ms")
    for op in AUTODIFF_OPS:
        take(f"autodiff.{op}.fwd_ms", f"autodiff.{op}", "self_ms")
        take(f"autodiff.{op}.bwd_ms", f"autodiff.{op}.bwd", "ms")
    if "io.load_utterances" in st:
        s = st["io.load_utterances"]
        m["io.load_utterances.ms"] = 1e3 * s.total_s / s.calls
    for key, value in tracer.counts.items():
        m[key] = value / units
    chunks = m["decoder.step_chunk.calls"]
    if chunks:
        m["transformer.dec_advance.calls_per_chunk"] = (
            m["transformer.dec_advance.calls"] / chunks)
    if m["decoder.continuation_tokens"]:
        m["strategies.commit_ratio"] = (
            m["strategies.committed_tokens"] / m["decoder.continuation_tokens"])
    if untraced and traced:
        before = 1e3 * statistics.fmean(untraced)
        after = 1e3 * statistics.fmean(traced)
        m["trace.untraced_step_ms"] = before
        m["trace.traced_step_ms"] = after
        m["trace.overhead_pct"] = 100.0 * (after - before) / before
    return m


def _write_trace(tracer: Tracer, name: str, seed: int, out: Outcome) -> None:
    path = WORK / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(path)
    out.info["trace_file"] = str(path.relative_to(spec.ROOT))
    out.info["spans"] = len(tracer.spans)


# --- entry point --------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run one workload and return what it measured and found."""
    wl = WORKLOADS[name]
    out = Outcome()
    env, warnings = environment()
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    out.info.update(workload=name, seed=seed, seconds=seconds,
                    trace=int(trace), env=env, warnings=warnings)
    if isinstance(wl, StreamWorkload):
        run_stream(name, wl, seed, seconds, trace, out)
    else:
        run_train(name, wl, seed, seconds, trace, out)
    wanted = PER_LAYER if trace else END_TO_END
    out.metrics = {k: out.metrics[k] for k in wanted if k in out.metrics}
    missing = [k for k in wanted if k not in out.metrics]
    if missing:
        out.fail(f"metrics not measured: {', '.join(missing)}")
    out.info["problems"] = out.problems
    return out
