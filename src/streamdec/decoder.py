"""Beam search with forced prefixes, and the chunk-by-chunk session loop.

Each chunk hands the commit strategy, through ``select_prefix``, a function
that decodes the chunk's continuation, and appends the strategy's choice to
the commit log. Called, that function extends the encoder states by the
frames not yet encoded (a causal encoder appends rows; a bidirectional one
re-encodes the whole prefix), adds the rows the encoder reports it ran to
the session's ``positions_encoded`` and runs beam search forced through
every token committed so far; it does so at most once per chunk. Committed
tokens are never revised; they condition all later decoding. A chunk whose
rule does not call it is neither encoded nor decoded, and the next decoded
chunk's ``encode`` covers its frames. So an offline session encodes and
searches once.

The decoder runs again on every decoded chunk: a decoder state carries the
encoding it was made with, and each chunk's beam search prefills the
committed prefix in one ``dec_init`` call on the grown encoding. A
session's ``mode`` (``forced`` or ``buffered``) is a label only; both run
this same code, so two lockstep sessions on one model produce identical
commit logs (``harness.compare_modes`` checks it).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_CHUNK_SEC,
    EOS_ID,
    Chunk,
    ChunkOutput,
    CommitLog,
    ConfigError,
    ContractViolation,
    Utterance,
    check_bool,
    check_int,
    check_real,
    chunk_stream,
)
from .model import EncoderStates, SequenceModel, _check_prefix
from .strategies import STRATEGIES, StrategyConfig, select_prefix

FORCED_REDECODE = "forced"
BUFFERED_STATE = "buffered"


@dataclass(frozen=True)
class BeamConfig:
    beam_width: int = 8
    cap_tokens_per_sec: float = 8.0
    length_normalize: bool = False

    def __post_init__(self) -> None:
        check_int("beam_width", self.beam_width, least=1)
        check_real("cap_tokens_per_sec", self.cap_tokens_per_sec, "(0, inf)")
        check_bool("length_normalize", self.length_normalize)


@dataclass(frozen=True)
class BeamHypothesis:
    """A (possibly finished) decoder path; tokens never include bos/eos."""

    tokens: tuple[int, ...]
    log_prob: float
    step_log_probs: tuple[float, ...]
    finished: bool


def _objective(h: BeamHypothesis, length_normalize: bool) -> float:
    if length_normalize:
        return h.log_prob / max(1, len(h.tokens))
    return h.log_prob


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
    length-normalizing. The stop test runs after a step's eos pass, on the
    kept children before they are advanced, so every ``dec_advance`` made
    has its log-probs read.

    One ``dec_init`` prefill scores the forced prefix, and its last row
    starts the beam. The live beam is three arrays, row i of each being
    row i of the beam's one decoder state: ``toks`` (the tokens generated
    after the prefix), ``lps`` (their step log-probs) and ``scores``; each
    beam step advances every kept child in one ``dec_advance`` call. The
    live rows are kept in token order: they share one length and have
    distinct tokens, so the flat (parent, word) index of a step's child
    scores is the children's token order, and one stable sort ranks them.
    The paths eos ends at a step leave as one block of those arrays, and
    only a running best objective is kept for the stop test. Hypotheses are
    built once, after the search, from the blocks and the last beam, and
    one sort ranks them: finished ahead of live, then by objective, ties
    to the smaller token-id sequence.
    """
    vocab = model.vocab
    norm = cfg.length_normalize
    prefix = _check_prefix(vocab, forced_prefix)
    if enc.frames_covered == 0:
        return [BeamHypothesis(prefix, 0.0, (0.0,) * len(prefix), True)]
    max_total = math.floor(cfg.cap_tokens_per_sec * enc.audio_sec + 1e-9)

    state, logps = model.dec_init(enc, prefix)
    prefix_steps = tuple(
        logps[np.arange(len(prefix)), np.array(prefix, dtype=np.int64)].tolist()
    )
    # left to right, the order in which beam steps add their log-probs
    score = functools.reduce(operator.add, prefix_steps, 0.0)
    if math.isnan(score):
        raise ContractViolation("model returned NaN log-probabilities")
    if len(prefix) >= max_total:
        return [BeamHypothesis(prefix, score, prefix_steps, True)]

    gen_ids = np.array(vocab.word_ids(), dtype=np.int64)  # ascending
    toks = np.zeros((1, 0), dtype=np.int64)
    lps = np.zeros((1, 0))
    scores = np.array([score])
    active_lps = logps[-1:]  # (rows, vocab)
    ended = []  # (scores, toks, lps, finished) blocks that left the beam
    best = -math.inf  # the best objective of any path eos has ended
    while True:
        # every column the model returned, pad too
        if np.isnan(active_lps).any():
            raise ContractViolation("model returned NaN log-probabilities")
        eos_scores = scores + active_lps[:, EOS_ID]
        child_scores = scores[:, None] + active_lps[:, gen_ids]  # (B, G)
        ended.append((eos_scores, toks, lps, True))
        top = float(eos_scores.max())
        best = max(best, top / max(1, len(prefix) + toks.shape[1]) if norm else top)

        # a stable sort of the flat scores ranks the children by (-score,
        # tokens); sorting the kept indices keeps the beam in token order
        keep = np.sort(
            np.argsort(-child_scores, axis=None, kind="stable")[: cfg.beam_width]
        )
        parents, cols = np.divmod(keep, len(gen_ids))
        new = gen_ids[cols]
        toks = np.concatenate([toks[parents], new[:, None]], axis=1)
        lps = np.concatenate([lps[parents], active_lps[parents, new][:, None]], axis=1)
        scores = child_scores[parents, cols]
        # equal lengths again: the children all reach the cap or none does
        at_cap = len(prefix) + toks.shape[1] >= max_total
        if at_cap or not keep.size:  # no word ids leave no children
            break
        if best > float(scores.max()) / (max_total if norm else 1):
            break  # no child can catch up
        state, active_lps = model.dec_advance(state, parents, new)
    ended.append((scores, toks, lps, at_cap))

    hyps = [
        BeamHypothesis(prefix + tuple(t), s, prefix_steps + tuple(lp), done)
        for b_scores, b_toks, b_lps, done in ended
        for s, t, lp in zip(b_scores.tolist(), b_toks.tolist(), b_lps.tolist())
    ]
    hyps.sort(key=lambda h: (not h.finished, -_objective(h, norm), h.tokens))
    return hyps[: cfg.beam_width]


@dataclass
class Session:
    """Mutable streaming-decode state for one utterance. ``mode`` labels the
    session for comparisons; it does not change what a chunk computes."""

    model: SequenceModel
    utterance: Utterance
    strategy: StrategyConfig
    chunk_len_sec: float = DEFAULT_CHUNK_SEC
    beam: BeamConfig = field(default_factory=BeamConfig)
    mode: str = FORCED_REDECODE

    # progress: only step_chunk moves it, so no caller passes it
    log: CommitLog = field(default_factory=CommitLog, init=False)
    strategy_state: object = field(default=None, init=False)  # the rule's own
    committed_ids: tuple[int, ...] = field(default=(), init=False)
    enc: EncoderStates | None = field(default=None, init=False)
    next_chunk_index: int = field(default=1, init=False)
    positions_encoded: int = field(default=0, init=False)  # as encode reports
    _chunks: list[Chunk] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in (FORCED_REDECODE, BUFFERED_STATE):
            raise ConfigError(f"unknown session mode {self.mode!r}")
        if type(self.strategy) not in STRATEGIES.values():
            raise ConfigError(f"unknown strategy config {self.strategy!r}")
        u = self.utterance
        self._chunks = chunk_stream(
            u.frames, self.chunk_len_sec, u.frame_period_sec, u.id
        )

    def chunks(self) -> list[Chunk]:
        return list(self._chunks)


def step_chunk(
    session: Session, chunk: Chunk
) -> tuple[ChunkOutput, tuple[str, ...]]:
    """Consume one chunk: decode, select a commit prefix, append to the log.

    Returns the fresh continuation and the tokens actually committed; the
    continuation is empty when the rule did not read it, as the chunk is
    then not decoded. The chunk must be the session's own next one, as
    ``Session.chunks`` lists them: same utterance, index, bounds, length
    and finality.
    """
    own = session._chunks
    if session.next_chunk_index > len(own):
        raise ContractViolation(f"{chunk} given after the final chunk")
    if chunk != own[session.next_chunk_index - 1]:
        raise ContractViolation(
            f"{chunk} given, expected {own[session.next_chunk_index - 1]}"
        )
    utt = session.utterance
    model = session.model
    n_prev = len(session.committed_ids)
    best = None  # the chunk's best hypothesis, once the rule asks for it

    def continuation():
        nonlocal best
        if best is None:
            session.enc = model.encode(
                utt.frames[: chunk.end], session.enc,
                utt_id=utt.id, frame_period_sec=utt.frame_period_sec,
            )
            session.positions_encoded += session.enc.rows_encoded
            best = beam_search(model, session.enc, session.committed_ids, session.beam)[0]
        return best.tokens[n_prev:]

    committed_ids, session.strategy_state = select_prefix(
        session.strategy, session.strategy_state, chunk, continuation
    )
    if best is None:
        out = ChunkOutput(chunk.index, (), ())
    else:
        surfaces = tuple(map(model.vocab.token_of, best.tokens[n_prev:]))
        out = ChunkOutput(chunk.index, surfaces, best.step_log_probs[n_prev:])
    committed = out.tokens[: len(committed_ids)]
    session.committed_ids = session.committed_ids + committed_ids
    session.log.commit(committed, chunk.index, session.chunk_len_sec)
    session.next_chunk_index = chunk.index + 1
    return out, committed


def run_session(
    model: SequenceModel,
    utt: Utterance,
    strategy: StrategyConfig,
    chunk_len_sec: float = DEFAULT_CHUNK_SEC,
    beam: BeamConfig = BeamConfig(),
) -> CommitLog:
    """Stream one utterance through the chunk loop and return its commit log."""
    session = Session(model, utt, strategy, chunk_len_sec, beam)
    for chunk in session.chunks():
        step_chunk(session, chunk)
    return session.log
