"""Synthetic aligned sequence task.

Each token owns a run of consecutive frames: its prototype vector plus
Gaussian noise. The generator is fully determined by (task spec, count,
seed), so a dataset and any oracle built on its hidden alignment can be
reproduced independently from the same arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (DEFAULT_FRAME_PERIOD_SEC, ConfigError, Utterance, Vocab,
                   check_bool, check_int, check_real, eval_tokens)


@dataclass(frozen=True)
class SyntheticTaskSpec:
    vocab_size: int = 20
    min_tokens: int = 4
    max_tokens: int = 10
    min_frames_per_token: int = 20
    max_frames_per_token: int = 30
    frame_dim: int = 16
    noise_std: float = 0.1
    frame_period_sec: float = DEFAULT_FRAME_PERIOD_SEC
    translation: bool = False
    # seeds the per-word prototypes and the translation permutation; part of
    # the task identity so that datasets drawn with different seeds still
    # share one frame-to-token mapping (train/dev/eval consistency)
    world_seed: int = 0

    def __post_init__(self) -> None:
        check_int("vocab_size", self.vocab_size, least=4)
        check_int("frame_dim", self.frame_dim, least=1)
        check_int("world_seed", self.world_seed, least=0)
        for name in ("min_tokens", "max_tokens",
                     "min_frames_per_token", "max_frames_per_token"):
            check_int(name, getattr(self, name))
        check_real("noise_std", self.noise_std, "[0, inf)")
        check_real("frame_period_sec", self.frame_period_sec, "(0, inf)")
        check_bool("translation", self.translation)
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise ConfigError("need 1 <= min_tokens <= max_tokens")
        if not 1 <= self.min_frames_per_token <= self.max_frames_per_token:
            raise ConfigError("need 1 <= min/max frames per token")


def source_words(spec: SyntheticTaskSpec) -> list[str]:
    return [f"w{i:02d}" for i in range(spec.vocab_size)]


def target_words(spec: SyntheticTaskSpec) -> list[str]:
    return [f"v{i:02d}" for i in range(spec.vocab_size)]


def task_vocab(spec: SyntheticTaskSpec) -> Vocab:
    """Vocabulary the model decodes into: target side when translating."""
    if spec.translation:
        return Vocab.build(target_words(spec))
    return Vocab.build(source_words(spec))


def prototypes(spec: SyntheticTaskSpec) -> np.ndarray:
    """Per-word frame prototypes, fixed by the task's world seed and shared
    by every dataset drawn from the same spec."""
    rng = np.random.default_rng(spec.world_seed)
    return rng.normal(0.0, 1.0, (spec.vocab_size, spec.frame_dim))


def translation_map(spec: SyntheticTaskSpec) -> np.ndarray:
    """Fixed source-to-target word permutation, part of the task identity."""
    rng = np.random.default_rng(spec.world_seed)
    rng.normal(0.0, 1.0, (spec.vocab_size, spec.frame_dim))  # skip prototype draw
    return rng.permutation(spec.vocab_size)


@dataclass(frozen=True)
class Alignment:
    """Hidden truth for one utterance: which output token owns which frames."""

    token_ids: tuple[int, ...]  # vocab ids of the tokens the model must emit
    # per output slot, the exclusive frame index by which its source word and
    # every earlier slot's source word have been heard (ASR: its own span end)
    span_ends: tuple[int, ...]
    total_frames: int


def gen_with_alignments(
    spec: SyntheticTaskSpec, count: int, seed: int
) -> tuple[list[Utterance], dict[str, Alignment]]:
    """Generate utterances together with their hidden token-span table."""
    check_int("count", count, least=0)
    check_int("seed", seed, least=0)  # numpy takes no negative seed
    rng = np.random.default_rng(seed)
    protos = prototypes(spec)
    perm = translation_map(spec)
    src = source_words(spec)
    tgt = target_words(spec)
    vocab = task_vocab(spec)

    utts: list[Utterance] = []
    aligns: dict[str, Alignment] = {}
    for u in range(count):
        n_tok = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
        word_idx = rng.integers(0, spec.vocab_size, n_tok)
        durs = rng.integers(
            spec.min_frames_per_token, spec.max_frames_per_token + 1, n_tok
        )
        total = int(durs.sum())
        frames = np.repeat(protos[word_idx], durs, axis=0)
        if spec.noise_std > 0:
            frames = frames + rng.normal(
                0.0, spec.noise_std, (total, spec.frame_dim)
            )
        ref = tuple(src[i] for i in word_idx)
        tgt_tokens: tuple[str, ...] | None = None
        out_words = list(word_idx)
        ends = np.cumsum(durs)
        if spec.translation:
            mapped = [int(perm[i]) for i in word_idx]
            # mild reordering: each adjacent pair may swap
            for j in range(0, len(mapped) - 1, 2):
                if rng.random() < 0.3:
                    mapped[j], mapped[j + 1] = mapped[j + 1], mapped[j]
                    ends[j], ends[j + 1] = ends[j + 1], ends[j]
            tgt_tokens = tuple(tgt[i] for i in mapped)
            out_words = mapped
        out_surfaces = (
            [tgt[i] for i in out_words]
            if spec.translation
            else [src[i] for i in out_words]
        )
        # the draw seed is part of the id so utterances from different draws
        # of the same task can never be confused with one another
        uid = f"utt{seed:03d}-{u:05d}"
        utts.append(
            Utterance(
                id=uid,
                frames=frames,
                reference_tokens=ref,
                target_tokens=tgt_tokens,
                frame_period_sec=spec.frame_period_sec,
            )
        )
        aligns[uid] = Alignment(
            token_ids=tuple(vocab.id_of(s) for s in out_surfaces),
            span_ends=tuple(int(e) for e in np.maximum.accumulate(ends)),
            total_frames=total,
        )
    return utts, aligns


def gen_dataset(
    spec: SyntheticTaskSpec, count: int, seed: int
) -> list[Utterance]:
    """Deterministic synthetic dataset; same arguments give identical bytes."""
    utts, _ = gen_with_alignments(spec, count, seed)
    return utts


def _ceil(x: float) -> int:
    """Ceiling tolerant of float dust from products like 10 * 0.1."""
    return math.ceil(x - 1e-9)


def make_partial_pair(utt: Utterance, p: float) -> tuple[np.ndarray, tuple[str, ...]]:
    """Proportionally truncated training pair: the first ceil(I*p) frames
    paired with the first ceil(J*p) tokens of the utterance's output side."""
    check_real("ratio p", p, "(0, 1]")
    tokens = eval_tokens(utt)
    n_frames = _ceil(utt.n_frames * p)
    n_tokens = _ceil(len(tokens) * p)
    return utt.frames[:n_frames], tuple(tokens[:n_tokens])
