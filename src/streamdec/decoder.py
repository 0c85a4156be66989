"""Beam search with forced prefixes, and the chunk-by-chunk session loop.

Each chunk: extend the encoder states by the new frames (a causal encoder
appends rows; a bidirectional one re-encodes the whole prefix) and add the
rows the encoder reports it ran to the session's ``positions_encoded``, run
beam search forced through every token committed so far, hand the fresh
continuation to the commit strategy through ``select_prefix``, and append
its choice to the commit log. Committed tokens are never revised; they
condition all later decoding.

The decoder runs again on every chunk: a decoder state carries the encoding
it was made with, and each chunk's beam search prefills the committed prefix
in one ``dec_init`` call on the grown encoding. A
session's ``mode`` (``forced`` or ``buffered``) is a label only; both run
this same code, so two lockstep sessions on one model produce identical
commit logs (``harness.compare_modes`` checks it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    Chunk,
    ChunkOutput,
    CommitLog,
    ConfigError,
    ContractViolation,
    Utterance,
    chunk_stream,
)
from .model import EncoderStates, SequenceModel, _check_prefix
from .strategies import StrategyConfig, StrategyState, select_prefix

FORCED_REDECODE = "forced"
BUFFERED_STATE = "buffered"


@dataclass(frozen=True)
class BeamConfig:
    beam_width: int = 8
    cap_tokens_per_sec: float = 8.0
    length_normalize: bool = False

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ConfigError("beam_width must be >= 1")
        if not 0 < self.cap_tokens_per_sec < math.inf:
            raise ConfigError("cap_tokens_per_sec must be positive and finite")


@dataclass(frozen=True)
class BeamHypothesis:
    """A (possibly finished) decoder path; tokens never include bos/eos."""

    tokens: tuple[int, ...]
    log_prob: float
    step_log_probs: tuple[float, ...]
    finished: bool


def _score(h: BeamHypothesis, length_normalize: bool) -> float:
    if length_normalize:
        return h.log_prob / max(1, len(h.tokens))
    return h.log_prob


def _rank_key(h: BeamHypothesis, length_normalize: bool):
    return (-_score(h, length_normalize), h.tokens)


def beam_search(
    model: SequenceModel,
    enc: EncoderStates,
    forced_prefix: Sequence[int],
    cfg: BeamConfig = BeamConfig(),
) -> list[BeamHypothesis]:
    """Ranked hypotheses continuing forced_prefix.

    The forced prefix holds word ids only (no pad, bos or eos). Every
    hypothesis passes through it exactly; the search never keeps more than
    beam_width live paths, never extends any path past
    cap_tokens_per_sec * available audio seconds, and stops once the best
    finished path provably beats every live one under the configured
    objective: token log-probs are non-positive, so a live path with raw
    score s ends at most at s, or at s / max_total per token when
    length-normalizing. Finished hypotheses rank ahead of live ones; ties
    rank the smaller token-id sequence first. One ``dec_init`` prefill
    scores the forced prefix, and its last row starts the beam; each beam
    step then advances every kept child in one ``dec_advance`` call on the
    beam's one state, whose row i holds the live path ``active[i]``. The
    live paths are kept in token order: they share one length and have
    distinct tokens, so the flat (parent, word) index of a step's child
    scores is the children's token order, and one stable sort ranks them.
    """
    vocab = model.vocab
    norm = cfg.length_normalize
    prefix = _check_prefix(vocab, forced_prefix)
    if enc.frames_covered == 0:
        return [BeamHypothesis(prefix, 0.0, (0.0,) * len(prefix), True)]
    max_total = math.floor(
        cfg.cap_tokens_per_sec * enc.audio_sec + 1e-9
    )

    state, logps = model.dec_init(enc, prefix)
    score = 0.0
    steps: list[float] = []
    for j, tok in enumerate(prefix):
        score += float(logps[j, tok])
        steps.append(float(logps[j, tok]))
    if len(prefix) >= max_total:
        return [BeamHypothesis(prefix, score, tuple(steps), True)]

    gen_ids = np.array(vocab.word_ids(), dtype=np.int64)  # ascending
    active = [BeamHypothesis(prefix, score, tuple(steps), False)]
    active_lps = logps[-1:]  # (len(active), vocab)
    finished: list[BeamHypothesis] = []
    while active:
        if finished:  # sorted best first by the last step's eos pass
            bound = max(h.log_prob for h in active)
            if norm:
                bound /= max_total
            if _score(finished[0], norm) > bound:
                break
        parent_lp = np.array([h.log_prob for h in active])
        eos_scores = parent_lp + active_lps[:, vocab.eos_id]
        scores = parent_lp[:, None] + active_lps[:, gen_ids]  # (B, G)
        if np.isnan(scores).any() or np.isnan(eos_scores).any():
            raise ContractViolation("model returned NaN log-probabilities")
        finished += [
            BeamHypothesis(h.tokens, score, h.step_log_probs, True)
            for h, score in zip(active, eos_scores.tolist())
        ]
        finished.sort(key=lambda h: _rank_key(h, norm))
        del finished[cfg.beam_width:]

        # active is in token order and gen_ids ascend, so a stable sort of
        # the flat scores ranks the children by (-score, tokens); sorting
        # the kept indices keeps the next beam in token order
        keep = np.sort(
            np.argsort(-scores, axis=None, kind="stable")[: cfg.beam_width]
        )
        parents, cols = np.divmod(keep, len(gen_ids))
        toks = gen_ids[cols]
        # equal lengths again: the children all reach the cap or none does
        at_cap = len(active[0].tokens) + 1 >= max_total
        children = [
            BeamHypothesis(
                active[i].tokens + (tok,),
                score,
                active[i].step_log_probs + (lp,),
                at_cap,
            )
            for i, tok, score, lp in zip(
                parents.tolist(),
                toks.tolist(),
                scores[parents, cols].tolist(),
                active_lps[parents, toks].tolist(),
            )
        ]
        if at_cap or not children:  # no word ids leave no children
            finished += children
            active = []
        else:
            state, active_lps = model.dec_advance(
                state, parents.tolist(), toks.tolist()
            )
            active = children
    finished.sort(key=lambda h: _rank_key(h, norm))
    active.sort(key=lambda h: _rank_key(h, norm))
    return (finished + active)[: cfg.beam_width]


def offline_decode(
    model: SequenceModel,
    utt: Utterance,
    cfg: BeamConfig = BeamConfig(),
) -> tuple[str, ...]:
    """Single decode over the whole stream; the tokens (not the timing) of
    an offline-strategy session."""
    enc = model.encode(
        utt.frames,
        None,
        utt_id=utt.id,
        frame_period_sec=utt.frame_period_sec,
    )
    best = beam_search(model, enc, (), cfg)[0]
    return tuple(model.vocab.token_of(t) for t in best.tokens)


@dataclass
class Session:
    """Mutable streaming-decode state for one utterance. ``mode`` labels the
    session for comparisons; it does not change what a chunk computes."""

    model: SequenceModel
    utterance: Utterance
    strategy: StrategyConfig
    chunk_len_sec: float = 0.5
    beam: BeamConfig = field(default_factory=BeamConfig)
    mode: str = FORCED_REDECODE

    log: CommitLog = field(default_factory=CommitLog)
    strategy_state: StrategyState = field(default_factory=StrategyState)
    committed_ids: tuple[int, ...] = ()
    enc: EncoderStates | None = None
    next_chunk_index: int = 1
    positions_encoded: int = 0  # encoder rows run so far, as encode reports

    def __post_init__(self) -> None:
        if self.mode not in (FORCED_REDECODE, BUFFERED_STATE):
            raise ConfigError(f"unknown session mode {self.mode!r}")

    def chunks(self) -> list[Chunk]:
        return chunk_stream(
            self.utterance.frames,
            self.chunk_len_sec,
            self.utterance.frame_period_sec,
            self.utterance.id,
        )


def step_chunk(
    session: Session, chunk: Chunk
) -> tuple[ChunkOutput, tuple[str, ...]]:
    """Consume one chunk: decode, select a commit prefix, append to the log.

    Returns the fresh continuation and the tokens actually committed.
    """
    if chunk.index != session.next_chunk_index:
        raise ContractViolation(
            f"chunk {chunk.index} given, expected {session.next_chunk_index}"
        )
    utt = session.utterance
    model = session.model
    session.enc = model.encode(
        utt.frames[: chunk.end],
        session.enc,
        utt_id=utt.id,
        frame_period_sec=utt.frame_period_sec,
    )
    session.positions_encoded += session.enc.rows_encoded

    best = beam_search(model, session.enc, session.committed_ids, session.beam)[0]
    n_prev = len(session.committed_ids)
    cont_ids = best.tokens[n_prev:]
    cont_lps = best.step_log_probs[n_prev:]
    surfaces = tuple(model.vocab.token_of(t) for t in cont_ids)
    out = ChunkOutput(chunk.index, surfaces, tuple(cont_lps))

    committed, session.strategy_state = select_prefix(
        session.strategy,
        session.strategy_state,
        chunk.index,
        chunk.is_final,
        surfaces,
        session.chunk_len_sec,
    )
    session.committed_ids = session.committed_ids + cont_ids[: len(committed)]
    session.log.commit(committed, chunk.index, session.chunk_len_sec)
    session.next_chunk_index = chunk.index + 1
    return out, committed


def run_session(
    model: SequenceModel,
    utt: Utterance,
    strategy: StrategyConfig,
    chunk_len_sec: float = 0.5,
    beam: BeamConfig = BeamConfig(),
) -> CommitLog:
    """Stream one utterance through the chunk loop and return its commit log."""
    session = Session(
        model=model,
        utterance=utt,
        strategy=strategy,
        chunk_len_sec=chunk_len_sec,
        beam=beam,
    )
    for chunk in session.chunks():
        step_chunk(session, chunk)
    return session.log
