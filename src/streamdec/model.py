"""Sequence-model interface, the model-agnostic encoding and the aligned
synthetic oracle model. Model files are read and written by ``io``.

A model exposes incremental encoding of a growing frame stream and a
decoder of two calls that yield normalized next-token log-probabilities.
``encode`` reports on its encoding the rows it ran (``rows_encoded``): a causal
encoder runs only the frames past its prior, a bidirectional one all. A
decoder state is a block of rows that have all consumed the same positions.
``dec_init(enc, prefix)`` is the prefill: it consumes bos and the whole
forced prefix at once and returns a one-row state with a (len(prefix) + 1,
vocab) log-probability matrix whose row j follows the first j prefix
tokens. ``dec_advance(state, rows, token_ids)`` returns the block whose row
i extends row ``rows[i]`` of ``state`` by ``token_ids[i]``, with one
log-probability row per new row, so a beam step reorders and extends its
paths by parent index in one call.

An encoding (``EncoderStates``) holds what the decoder and the session read:
the frames it covers, their period, the utterance id, the producing model's
ownership token and ``rows_encoded``. A model that keeps more per encoding
subclasses it: the transformer's adds the key/value caches it grows and
decodes from. A decoder state carries the encoding it was made with, so it
needs no other argument to advance, and it keeps decoding that encoding
after the stream has grown. Each chunk's beam search therefore prefills its
forced prefix again on the grown encoding. Each model instance holds a
private ownership token that its encodings (and the transformer's decoder
states) carry, so a model grows and decodes only its own encodings, and a
state from another model is refused even after that model is gone and its
``id()`` reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, Sequence

import numpy as np

from . import autodiff as ad
from .core import (DEFAULT_FRAME_PERIOD_SEC, EOS_ID, ContractViolation, Vocab, check_int,
                   check_real)
from .data import Alignment, SyntheticTaskSpec, gen_with_alignments, task_vocab

# the synthetic oracle's default unstable tail of a truncated stream, in frames
DEFAULT_INSTABILITY_FRAMES = 10


@dataclass(eq=False)
class EncoderStates:
    """An encoding of every frame position received so far, as the decoder
    and the session see it. A model that keeps more per encoding (the
    transformer's key/value caches) subclasses it."""

    frames_covered: int
    frame_period_sec: float = DEFAULT_FRAME_PERIOD_SEC
    utt_id: str | None = None
    owner: object = None  # the producing model's ownership token
    rows_encoded: int = 0  # rows the encode call that made this encoding ran

    @property
    def audio_sec(self) -> float:
        return self.frames_covered * self.frame_period_sec


class SequenceModel(Protocol):
    vocab: Vocab

    def encode(
        self,
        frames: np.ndarray,
        prior: EncoderStates | None = None,
        *,
        utt_id: str | None = None,
        frame_period_sec: float | None = None,
    ) -> EncoderStates: ...

    def dec_init(
        self, enc: EncoderStates, prefix: Sequence[int] = ()
    ) -> tuple[Any, np.ndarray]: ...

    def dec_advance(
        self, state: Any, rows: Sequence[int], token_ids: Sequence[int]
    ) -> tuple[Any, np.ndarray]: ...


def _check_ids(ids: Any, n: int, what: str) -> np.ndarray:
    """ids as an integer array; one outside 0..n-1 is a ContractViolation
    (numpy indexing would wrap a negative one silently)."""
    arr = np.asarray(ids)
    if arr.size and arr.dtype.kind not in "iu":
        raise ContractViolation(f"{what}s must be integers, got {arr.dtype}")
    bad = arr[(arr < 0) | (arr >= n)]
    if bad.size:
        raise ContractViolation(f"{what} {bad[0]} out of range 0..{n - 1}")
    return arr


def _check_prefix(vocab: Vocab, prefix: Sequence[int]) -> tuple[int, ...]:
    """A forced prefix as ints, refusing any non-word id (pad, bos, eos)."""
    ids = _check_ids(prefix, len(vocab), "token id")
    bad = ids[ids < vocab.word_ids().start]
    if bad.size:
        raise ContractViolation(f"forced prefix holds non-word id {bad[0]}")
    return tuple(ids.tolist())


def _check_owner(model: Any, made: Any, what: str) -> None:
    """Refuse what another model made: its ``owner`` must be this model's
    ownership token."""
    if getattr(made, "owner", None) is not model._owner:
        raise ContractViolation(f"{what} from a different model")


def _check_prior(
    model: Any, prior: EncoderStates | None, n_frames: int,
    utt_id: str | None, frame_period_sec: float | None,
) -> tuple[str | None, float]:
    """(utt_id, frame_period_sec) of an n_frames encoding that extends prior:
    the prior's, but a given utt_id wins. A given period must be a positive
    finite number equal to the prior's; an omitted one is the prior's, or
    DEFAULT_FRAME_PERIOD_SEC with no prior. A prior it cannot extend raises."""
    if prior is None:
        if frame_period_sec is None:
            return utt_id, DEFAULT_FRAME_PERIOD_SEC
        check_real("frame_period_sec", frame_period_sec, "(0, inf)")
        return utt_id, frame_period_sec
    _check_owner(model, prior, "prior states")
    if prior.frames_covered > n_frames:
        raise ContractViolation("prior states cover more frames than were provided")
    if utt_id is not None and prior.utt_id is not None and utt_id != prior.utt_id:
        raise ContractViolation("prior states belong to a different utterance")
    # the prior's period was checked when it was made
    if frame_period_sec is not None and frame_period_sec != prior.frame_period_sec:
        check_real("frame_period_sec", frame_period_sec, "(0, inf)")
        raise ContractViolation(
            f"frame_period_sec {frame_period_sec!r} differs from the prior "
            f"states' {prior.frame_period_sec!r}"
        )
    return (prior.utt_id if utt_id is None else utt_id), prior.frame_period_sec


def _check_block(rows: Any, token_ids: Any, n_rows: int,
                 vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """A dec_advance block as arrays: row indices into a state of n_rows
    rows and one token id per row, with at least one row."""
    rows = _check_ids(rows, n_rows, "row")
    ids = _check_ids(token_ids, vocab_size, "token id")
    if rows.ndim != 1 or rows.shape != ids.shape or not rows.size:
        raise ContractViolation("a block needs one token id per row and at least one row")
    return rows, ids


class SyntheticAlignedModel:
    """Deterministic oracle with a hidden token-span alignment.

    Emission rule for output slot j given ``avail`` frames of input:

    * the span of token j is not fully covered yet -> end of sequence;
    * the span ends inside the last ``instability_frames`` of a truncated
      stream -> a deterministic wrong token (confusion map);
    * otherwise -> token j itself.

    With the full stream available the greedy continuation equals the
    reference exactly. Probability mass is concentrated on the chosen token.
    """

    PEAK_LOGIT = 7.0

    def __init__(
        self,
        vocab: Vocab,
        alignments: dict[str, Alignment],
        instability_frames: int = DEFAULT_INSTABILITY_FRAMES,
        seed: int = 0,
    ) -> None:
        check_int("instability_frames", instability_frames, least=0)
        self.vocab = vocab
        self._owner = object()  # held by every state this instance makes
        self.alignments = alignments
        self.instability_frames = instability_frames
        # fixed-point-free map over word ids: rotate a seeded permutation
        word_ids = np.fromiter(vocab.word_ids(), dtype=np.int64)
        rng = np.random.default_rng(seed)
        shuffled = rng.permutation(word_ids)
        self.confusion = {
            int(shuffled[i]): int(shuffled[(i + 1) % len(shuffled)])
            for i in range(len(shuffled))
        }

    @classmethod
    def from_task(
        cls,
        spec: SyntheticTaskSpec,
        count: int,
        seed: int,
        instability_frames: int = DEFAULT_INSTABILITY_FRAMES,
    ) -> "SyntheticAlignedModel":
        """The oracle for the dataset gen_dataset(spec, count, seed); seed
        also draws its confusion map."""
        _, aligns = gen_with_alignments(spec, count, seed)
        return cls(task_vocab(spec), aligns, instability_frames, seed)

    # --- encoding ---------------------------------------------------------

    def encode(
        self,
        frames: np.ndarray,
        prior: EncoderStates | None = None,
        *,
        utt_id: str | None = None,
        frame_period_sec: float | None = None,
    ) -> EncoderStates:
        n = len(frames)
        utt_id, frame_period_sec = _check_prior(
            self, prior, n, utt_id, frame_period_sec
        )
        return EncoderStates(
            frames_covered=n,
            frame_period_sec=frame_period_sec,
            utt_id=utt_id,
            owner=self._owner,
            # the frames past the prior are the new rows
            rows_encoded=n - (prior.frames_covered if prior else 0),
        )

    # --- decoding ---------------------------------------------------------

    def _alignment(self, enc: EncoderStates) -> Alignment:
        if enc.utt_id is None or enc.utt_id not in self.alignments:
            raise ContractViolation(
                f"unknown utterance {enc.utt_id!r}; the oracle only decodes "
                "streams from its own dataset"
            )
        return self.alignments[enc.utt_id]

    def _emission(self, enc: EncoderStates, slot: int) -> np.ndarray:
        align = self._alignment(enc)
        avail = enc.frames_covered
        if slot >= len(align.token_ids):
            target = EOS_ID
        else:
            end = align.span_ends[slot]
            tok = align.token_ids[slot]
            if end > avail:
                target = EOS_ID
            elif (
                avail < align.total_frames
                and end + self.instability_frames > avail
            ):
                target = self.confusion[tok]
            else:
                target = tok
        logits = np.zeros(len(self.vocab))
        logits[target] = self.PEAK_LOGIT
        return ad.log_softmax(logits)

    def dec_init(
        self, enc: EncoderStates, prefix: Sequence[int] = ()
    ) -> tuple[tuple[int, EncoderStates, int], np.ndarray]:
        """A state is the output slot every row of the block sits at, the
        encoding it reads and its row count; the emission depends on the
        slot alone, so prefill row j is slot j's."""
        _check_owner(self, enc, "encoder states")
        n = len(_check_ids(prefix, len(self.vocab), "token id"))
        return (n, enc, 1), np.stack([self._emission(enc, j) for j in range(n + 1)])

    def dec_advance(
        self, state: tuple[int, EncoderStates, int], rows: Sequence[int],
        token_ids: Sequence[int],
    ) -> tuple[tuple[int, EncoderStates, int], np.ndarray]:
        """All rows of the block share the next slot's emission."""
        slot, enc, n_rows = state
        _check_owner(self, enc, "decoder state")
        rows, _ = _check_block(rows, token_ids, n_rows, len(self.vocab))
        lps = np.tile(self._emission(enc, slot + 1), (rows.size, 1))
        return (slot + 1, enc, rows.size), lps
