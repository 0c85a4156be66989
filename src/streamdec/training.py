"""Training and partial-input adaptation for the transformer.

Gradients come from the in-repo reverse-mode graph (autodiff.py). Each step
folds the parameters' leaf tensors into the weight set the layers run
(transformer.fold), so the gradients reach the stored parameters; Adam,
with linear warmup followed by inverse-square-root decay, updates a working
copy of them, and a model is built from that copy where one is needed.

A step's batch splits into two fixed shards of rows, each one graph whose
gradient is that of its summed loss over the whole batch's token count.
The step sends shard 1 as a job to ``cpus.pair``, which runs it in the
worker the loop (``_fit``) keeps through ``cpus.shard_worker``, or here;
the numbers are the same bits either way. This process makes every batch
and takes every Adam step.

Adaptation fine-tunes on an even mix of full utterances and proportionally
truncated frame/token pairs, at ADAPT_LR_FACTOR of the base learning rate,
keeping the checkpoint with the best full-sequence dev token error rate.
Both loops smooth labels by LABEL_SMOOTHING; the recipe's values are
constants, not settings. Training, adaptation and token error rate all use
each utterance's target side when it has one (translation) and its
reference side otherwise (core.eval_tokens).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from . import cpus
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


def _shard_loss_and_grads(
    cfg: tfm.TransformerConfig,
    params: Mapping[str, np.ndarray],
    shard: dict[str, np.ndarray],
    tokens: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """A shard's summed cross entropy, and the gradient by parameter name
    of that sum divided by tokens."""
    pt = tfm.leaf_tensors(params)
    summed = tfm.training_loss(cfg, pt, shard, LABEL_SMOOTHING)
    (summed * (1.0 / tokens)).backward()
    return float(summed.data), {k: t.grad for k, t in pt.items() if t.grad is not None}


def batch_loss_and_grads(
    cfg: tfm.TransformerConfig,
    params: Mapping[str, np.ndarray],
    batch: dict[str, np.ndarray],
) -> tuple[float, dict[str, np.ndarray]]:
    """The batch's loss under params, labels smoothed by LABEL_SMOOTHING,
    and its gradient by parameter name.

    The batch's rows split into two fixed shards, the first ceil(B/2) rows
    and the rest. Each shard's gradient is that of its summed cross entropy
    divided by the whole batch's token count; the step's gradient is shard
    0's plus shard 1's, in that order, and its loss is shard 0's sum plus
    shard 1's, divided once, as the one-graph loss is. Shard 1 is a
    ``cpus.pair`` job, with the same numbers wherever it runs."""
    # checked whole, so that a bad row is named by its row in the batch
    tfm._frame_lengths(batch["frame_mask"], batch["frames"].shape[:2])
    tokens = max(batch["label_mask"].sum(), 1.0)
    cut = (len(batch["labels"]) + 1) // 2
    params = dict(params)  # a mapping proxy does not pickle
    shard0, shard1 = ((cfg, params, {k: v[rows] for k, v in batch.items()}, tokens)
                      for rows in (slice(None, cut), slice(cut, None)))
    if cut == len(batch["labels"]):  # a one-row batch is one shard
        sum0, grads = _shard_loss_and_grads(*shard0)
        return sum0 * (1.0 / tokens), grads
    (sum0, grads0), (sum1, grads1) = cpus.pair(_shard_loss_and_grads, shard0, shard1)
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
    with cpus.shard_worker():
        for step in range(1, cfg.total_steps + 1):
            batch = make_batch(draw(), model.vocab, model.cfg.frame_dim)
            loss, grads = batch_loss_and_grads(model.cfg, params, batch)
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
