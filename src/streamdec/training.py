"""Training and partial-input adaptation for the transformer.

Gradients come from the in-repo reverse-mode graph (autodiff.py). Each step
folds the parameters' leaf tensors into the weight set the layers run
(transformer.fold), so the gradients reach the stored parameters; Adam,
with linear warmup followed by inverse-square-root decay, updates a working
copy of them, and a model is built from that copy where one is needed.

A step's batch splits into two fixed shards of rows, each shard one graph
whose gradient is that of its summed loss over the whole batch's token
count; the step adds shard 1's gradient to shard 0's. The loop (``_fit``)
keeps one worker process for its whole length when two CPUs are usable,
and the worker computes shard 1 while the calling process computes shard
0, both with numpy's BLAS held to one thread; on one CPU, or when the BLAS
thread count cannot be reached, both shards run in the calling process,
one after the other. Either way the numbers are the same bits. The calling
process still makes every batch and takes every Adam step.

Adaptation fine-tunes on an even mix of full utterances and proportionally
truncated frame/token pairs, at ADAPT_LR_FACTOR of the base learning rate,
keeping the checkpoint with the best full-sequence dev token error rate.
Both loops smooth labels by LABEL_SMOOTHING; the recipe's values are
constants, not settings. Training, adaptation and token error rate all use
each utterance's target side when it has one (translation) and its
reference side otherwise (core.eval_tokens).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import multiprocessing
import os
import signal
import traceback
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import transformer as tfm
from .core import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    ConfigError,
    Utterance,
    Vocab,
    check_int,
    check_real,
    eval_tokens,
)
from .data import make_partial_pair
from .decoder import BeamConfig, run_session
from .metrics import score_logs
from .strategies import Offline
from .transformer import TinyTransformer


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    warmup_steps: int = 400
    batch_size: int = 32
    total_steps: int = 600
    seed: int = 0
    eval_every: int = 40  # dev evaluation cadence (checkpoint selection)

    def __post_init__(self) -> None:
        check_real("learning_rate", self.learning_rate, "(0, inf)")
        for name in ("warmup_steps", "batch_size", "total_steps", "eval_every"):
            check_int(name, getattr(self, name), least=1)
        check_int("seed", self.seed, least=0)  # numpy takes no negative seed


LABEL_SMOOTHING = 0.1  # of train's and adapt's targets
PARTIAL_RATIOS = (0.1, 0.4)  # adapt's truncation ratio p ~ U(low, high)
ADAPT_LR_FACTOR = 0.25  # adaptation's learning rate over the base rate

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9


class Adam:
    def __init__(self, params: dict[str, np.ndarray]) -> None:
        self.params = params
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for k, g in grads.items():
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / (1 - b1 ** self.t)
            vhat = self.v[k] / (1 - b2 ** self.t)
            self.params[k] -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to the base rate, then inverse-sqrt decay."""
    step = max(step, 1)
    return cfg.learning_rate * min(
        step / cfg.warmup_steps, math.sqrt(cfg.warmup_steps / step)
    )


def make_batch(
    pairs: Sequence[tuple[np.ndarray, Sequence[str]]],
    vocab: Vocab,
    frame_dim: int,
) -> dict[str, np.ndarray]:
    """Pad (frames, tokens) pairs into fixed arrays with 0/1 masks."""
    if not pairs:
        raise ConfigError("empty batch")
    b = len(pairs)
    tf = max(len(f) for f, _ in pairs)
    td = max(len(t) for _, t in pairs) + 1  # room for bos/eos shift
    frames = np.zeros((b, tf, frame_dim))
    frame_mask = np.zeros((b, tf))
    dec_in = np.full((b, td), PAD_ID, dtype=np.int64)
    labels = np.full((b, td), PAD_ID, dtype=np.int64)
    label_mask = np.zeros((b, td))
    for i, (f, toks) in enumerate(pairs):
        if len(f) == 0:
            raise ConfigError("utterance with zero frames in batch")
        if np.ndim(f) != 2 or np.shape(f)[1] != frame_dim:
            raise ConfigError(
                f"batch pair {i} has frames of shape {np.shape(f)}; the batch "
                f"needs ({len(f)}, {frame_dim})"
            )
        frames[i, : len(f)] = f
        frame_mask[i, : len(f)] = 1.0
        ids = vocab.encode(tuple(toks))
        dec_in[i, 0] = BOS_ID
        dec_in[i, 1 : len(ids) + 1] = ids
        labels[i, : len(ids)] = ids
        labels[i, len(ids)] = EOS_ID
        label_mask[i, : len(ids) + 1] = 1.0
    return {
        "frames": frames,
        "frame_mask": frame_mask,
        "dec_in": dec_in,
        "labels": labels,
        "label_mask": label_mask,
    }


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or
    None when this numpy has none that can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread() -> Iterator[bool]:
    """Holds numpy's BLAS to one thread for the block and yields True, or
    yields False when its thread count cannot be reached. Two processes
    that each keep a BLAS pool as wide as the machine fight over its CPUs:
    on two CPUs a step of criterion 4's training ran about three times
    slower than in one process with such a pool."""
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, put = blas
    was = get()
    put(1)
    try:
        yield True
    finally:
        put(was)


def _shard_loss_and_grads(
    cfg: tfm.TransformerConfig,
    params: Mapping[str, np.ndarray],
    shard: dict[str, np.ndarray],
    label_smoothing: float,
    tokens: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """A shard's summed cross entropy, and the gradient by parameter name
    of that sum divided by tokens."""
    pt = tfm.leaf_tensors(params)
    summed = tfm.training_loss(cfg, pt, shard, label_smoothing)
    (summed * (1.0 / tokens)).backward()
    return float(summed.data), {k: t.grad for k, t in pt.items() if t.grad is not None}


def _serve_shards(conn: Connection, parent_end: Connection) -> None:
    """A shard worker's loop: it answers each (cfg, params, shard,
    label_smoothing, tokens) it receives with (error, result), the error
    carrying the worker's traceback as a note, and exits
    when the caller closes its end of the pipe. It closes its own copy of
    the caller's end first, or it would never see that close. Ctrl-C is
    left to the caller, which then closes the pipe."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with _one_blas_thread():  # a forked worker has it so already
        while True:
            try:
                job = conn.recv()
            except EOFError:
                return
            try:
                reply = None, _shard_loss_and_grads(*job)
            except Exception as e:
                e.add_note(f"in the shard worker:\n{traceback.format_exc()}")
                reply = e, None
            try:
                conn.send(reply)
            except OSError:  # the caller has gone
                return


_WORKER: ContextVar[Connection | None] = ContextVar("shard worker", default=None)


@contextmanager
def _shard_worker() -> Iterator[None]:
    """For the block, when two CPUs are usable and numpy's BLAS can be
    held to one thread, a worker process computes the second shard of
    every ``batch_loss_and_grads`` call this context makes, and both
    processes run BLAS on one thread. The worker is joined and the BLAS
    thread count restored when the block ends, however it ends."""
    if _usable_cpus() < 2:
        yield
        return
    with _one_blas_thread() as held:
        if not held:
            yield
            return
        conn, child_end = multiprocessing.Pipe()
        proc = multiprocessing.Process(
            target=_serve_shards, args=(child_end, conn), daemon=True)
        proc.start()
        child_end.close()
        token = _WORKER.set(conn)
        try:
            yield
        finally:
            _WORKER.reset(token)
            conn.close()
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()


def batch_loss_and_grads(
    cfg: tfm.TransformerConfig,
    params: Mapping[str, np.ndarray],
    batch: dict[str, np.ndarray],
    label_smoothing: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """The batch's loss under params and its gradient by parameter name.

    The batch's rows split into two fixed shards, the first ceil(B/2) rows
    and the rest. Each shard's gradient is that of its summed cross entropy
    divided by the whole batch's token count; the step's gradient is shard
    0's plus shard 1's, in that order, and its loss is shard 0's sum plus
    shard 1's, divided once, as the one-graph loss is. Inside
    ``_shard_worker`` shard 1 runs in the worker while shard 0 runs here;
    otherwise both run here, one after the other, with the same numbers."""
    # checked whole, so that a bad row is named by its row in the batch
    tfm._frame_lengths(batch["frame_mask"], batch["frames"].shape[:2])
    tokens = max(batch["label_mask"].sum(), 1.0)
    cut = (len(batch["labels"]) + 1) // 2
    shard0, shard1 = ({k: v[rows] for k, v in batch.items()}
                      for rows in (slice(None, cut), slice(cut, None)))

    def here(shard):
        return _shard_loss_and_grads(cfg, params, shard, label_smoothing, tokens)

    if not len(shard1["labels"]):  # a one-row batch is one shard
        sum0, grads = here(shard0)
        return sum0 * (1.0 / tokens), grads
    conn = _WORKER.get()
    if conn is None:
        (sum0, grads0), (sum1, grads1) = here(shard0), here(shard1)
    else:
        conn.send((cfg, dict(params), shard1, label_smoothing, tokens))
        try:
            sum0, grads0 = here(shard0)
        finally:  # the reply is read even if shard 0 failed
            try:
                error, result = conn.recv()
            except EOFError:
                raise RuntimeError("the training shard worker exited") from None
        if error is not None:
            raise error
        sum1, grads1 = result
    return (sum0 + sum1) * (1.0 / tokens), {k: g + grads1[k] for k, g in grads0.items()}


def token_error_rate(model: TinyTransformer, utts: Sequence[Utterance]) -> float:
    """Corpus token error rate of greedy full-stream decodes, one offline
    session of one chunk per utterance, against each utterance's output
    side. The length cap is one token per frame, which no frame-aligned
    output exceeds, so it never cuts a decode short."""
    logs = {}
    for u in utts:
        beam = BeamConfig(beam_width=1, cap_tokens_per_sec=1 / u.frame_period_sec)
        logs[u.id] = run_session(model, u, Offline(), u.duration_sec, beam)
    return score_logs(utts, logs)[0].rate


Pairs = list[tuple[np.ndarray, tuple[str, ...]]]


def _fit(
    model: TinyTransformer,
    cfg: TrainConfig,
    draw: Callable[[], Pairs],
    dev: Sequence[Utterance] = (),
) -> tuple[TinyTransformer, list[tuple[int, float, float]]]:
    """The step loop of train and adapt: each step pads the pairs ``draw``
    returns into a batch and takes one Adam step on its loss, on a working
    copy of the model's parameters.

    With a dev set, the full-sequence dev token error rate of a model built
    from the working parameters is measured before the first step, every
    eval_every steps and at the last step, and the best of those models
    (the later one on a tie) is returned. Without a dev set the model of
    the last step's parameters is returned.
    """
    params = {k: v.copy() for k, v in model.params.items()}
    opt = Adam(params)

    def snapshot() -> TinyTransformer:
        return TinyTransformer(model.cfg, model.vocab, params)

    curve: list[tuple[int, float, float]] = []
    if dev:
        best = snapshot()
        best_ter = token_error_rate(best, dev)
    with _shard_worker():
        for step in range(1, cfg.total_steps + 1):
            batch = make_batch(draw(), model.vocab, model.cfg.frame_dim)
            loss, grads = batch_loss_and_grads(
                model.cfg, params, batch, LABEL_SMOOTHING)
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"training diverged at step {step}: loss={loss}; last lr "
                    f"{lr_at(step - 1, cfg):.3g}"
                )
            lr = lr_at(step, cfg)
            opt.step(grads, lr)
            curve.append((step, loss, lr))
            if dev and (step % cfg.eval_every == 0 or step == cfg.total_steps):
                candidate = snapshot()
                ter = token_error_rate(candidate, dev)
                if ter <= best_ter:
                    best, best_ter = candidate, ter
    return (best if dev else snapshot()), curve


def train(
    model: TinyTransformer,
    dataset: Sequence[Utterance],
    cfg: TrainConfig,
) -> tuple[TinyTransformer, list[tuple[int, float, float]]]:
    """Teacher-forced training from the model's current parameters.

    Returns a new model plus the (step, loss, lr) curve; the input model is
    left untouched. Seeded runs are bit-reproducible.
    """
    if not dataset:
        raise ConfigError("empty training dataset")
    rng = np.random.default_rng(cfg.seed)
    size = min(cfg.batch_size, len(dataset))

    def draw() -> Pairs:
        idx = rng.choice(len(dataset), size=size, replace=False)
        return [(dataset[i].frames, eval_tokens(dataset[i])) for i in idx]

    return _fit(model, cfg, draw)


def adapt(
    model: TinyTransformer,
    dataset: Sequence[Utterance],
    base_cfg: TrainConfig,
    dev: Sequence[Utterance],
) -> tuple[TinyTransformer, list[tuple[int, float, float]]]:
    """Fine-tune on a 1:1 mix of full utterances and truncated pairs.

    A partial pair is the first ceil(I*p) frames of an utterance with the
    first ceil(J*p) of its output tokens, p ~ U(*PARTIAL_RATIOS) drawn per
    pair. The learning rate is the base rate times ADAPT_LR_FACTOR. The
    full-sequence dev token error rate at step 0, every eval_every steps
    and the last step decides which checkpoint is returned.
    """
    if not dataset:
        raise ConfigError("empty adaptation dataset")
    if not dev:
        raise ConfigError("adaptation needs a dev set for checkpoint selection")
    cfg = replace(base_cfg, learning_rate=base_cfg.learning_rate * ADAPT_LR_FACTOR)
    rng = np.random.default_rng(cfg.seed + 1)
    size = min(max(cfg.batch_size // 2, 1), len(dataset))

    def draw() -> Pairs:
        full_idx = rng.choice(len(dataset), size=size, replace=False)
        part_idx = rng.choice(len(dataset), size=size, replace=False)
        pairs = [(dataset[i].frames, eval_tokens(dataset[i])) for i in full_idx]
        for i in part_idx:
            p = rng.uniform(*PARTIAL_RATIOS)
            pairs.append(make_partial_pair(dataset[i], p))
        return pairs

    return _fit(model, cfg, draw, dev)


def write_curve(curve: Sequence[tuple[int, float, float]], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("step,loss,lr\n")
        for step, loss, lr in curve:
            fh.write(f"{step},{loss:.6f},{lr:.8f}\n")
