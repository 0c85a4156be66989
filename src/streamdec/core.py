"""Domain types for chunked streaming inference.

Vocabulary, utterances, the fixed-size chunking of frame streams, and the
append-only commit log that records which tokens were shown to the user and
when.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

import math
import numbers

import numpy as np

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<s>"
EOS_TOKEN = "</s>"
RESERVED_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN)

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2


class ConfigError(ValueError):
    """An invalid configuration value."""


class ContractViolation(ValueError):
    """A documented precondition was broken by the caller."""


class UndefinedMetric(ValueError):
    """The metric has no defined value for the given inputs."""


DEFAULT_CHUNK_SEC = 0.5  # chunk length when none is given
DEFAULT_FRAME_PERIOD_SEC = 0.010  # seconds per input frame when none is given

# a config field's annotation -> the parser of its text form, for strategy
# specs and CLI options alike (a bool field is a flag, not parsed text)
FIELD_TYPES = {"int": int, "float": float}


def check_int(name: str, value, least: int | None = None) -> None:
    """Refuse a config value that is not an integer, or one below least if
    given. A bool is an int to Python, and is refused too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}")


def check_real(name: str, value, interval: str = "(-inf, inf)") -> None:
    """Refuse a config value that is not a real number in interval, written
    with a round bracket for an open end and a square one for a closed end,
    e.g. "(0, inf)" or "[0, 1)". A bool, a non-number, NaN and both
    infinities are refused whatever the interval."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    low, high = (float(end) for end in interval[1:-1].split(","))
    if not (-math.inf < value < math.inf
            and (low < value if interval[0] == "(" else low <= value)
            and (value < high if interval[-1] == ")" else value <= high)):
        raise ConfigError(f"{name} must be a finite number in {interval}, got {value!r}")


def check_bool(name: str, value) -> None:
    """Refuse a config value other than True or False, such as 0, 1 or "no"."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")


@dataclass(frozen=True)
class Vocab:
    """Dense id <-> surface-form table; ids 0..2 are reserved for pad/bos/eos."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if tuple(self.tokens[:3]) != RESERVED_TOKENS:
            raise ConfigError(
                f"vocab must start with reserved tokens {RESERVED_TOKENS}"
            )
        if len(set(self.tokens)) != len(self.tokens):
            raise ConfigError("duplicate surface forms in vocab")
        object.__setattr__(
            self, "_ids", {tok: i for i, tok in enumerate(self.tokens)}
        )

    @classmethod
    def build(cls, words: Iterable[str]) -> "Vocab":
        """Vocabulary over the given words, deduplicated and sorted."""
        unique = sorted(set(words) - set(RESERVED_TOKENS))
        return cls(RESERVED_TOKENS + tuple(unique))

    def __len__(self) -> int:
        return len(self.tokens)

    def word_ids(self) -> range:
        """Ids of the non-reserved tokens."""
        return range(len(RESERVED_TOKENS), len(self.tokens))

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]  # type: ignore[attr-defined]
        except KeyError:
            raise ContractViolation(f"token {token!r} not in vocab") from None

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < len(self.tokens):
            raise ContractViolation(f"token id {idx} out of range")
        return self.tokens[idx]

    def encode(self, tokens: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.id_of(t) for t in tokens)

    def decode(self, ids: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.token_of(i) for i in ids)


def _words(name: str, tokens) -> tuple[str, ...]:
    """A transcript as a tuple of strings. A string, which would split into
    its characters, a non-string token and a reserved token, which no model
    could ever emit where it stands, are refused."""
    if isinstance(tokens, Iterable) and not isinstance(tokens, str):
        words = tuple(tokens)
        if all(isinstance(t, str) for t in words):
            reserved = set(words) & set(RESERVED_TOKENS)
            if reserved:
                raise ConfigError(f"{name} holds reserved token {min(reserved)!r}")
            return words
    raise ConfigError(f"{name} must be a sequence of strings, got {tokens!r}")


@dataclass
class Utterance:
    """One input stream: a frame matrix plus its reference token sequence."""

    id: str
    frames: np.ndarray  # (n_frames, frame_dim)
    reference_tokens: tuple[str, ...]
    target_tokens: tuple[str, ...] | None = None
    frame_period_sec: float = DEFAULT_FRAME_PERIOD_SEC

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ConfigError("frames must be a 2-D (n_frames, dim) array")
        if 0 in self.frames.shape:
            raise ConfigError(
                f"frames must hold at least one frame of nonzero width, "
                f"got shape {self.frames.shape}"
            )
        if not np.isfinite(self.frames).all():
            raise ConfigError("frames must be finite (no NaN or inf)")
        check_real("frame_period_sec", self.frame_period_sec, "(0, inf)")
        if not isinstance(self.id, str):
            raise ConfigError(f"id must be a string, got {self.id!r}")
        self.reference_tokens = _words("reference_tokens", self.reference_tokens)
        if self.target_tokens is not None:
            self.target_tokens = _words("target_tokens", self.target_tokens)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def duration_sec(self) -> float:
        return self.n_frames * self.frame_period_sec


def eval_tokens(utt: Utterance) -> tuple[str, ...]:
    """The output side of an utterance: its target tokens when it has them
    (translation), else its reference tokens. Training, adaptation and
    scoring all read the tokens a model must produce from here."""
    if utt.target_tokens is not None:
        return utt.target_tokens
    return utt.reference_tokens


@dataclass(frozen=True)
class Chunk:
    """A contiguous frame slice [start, end); indices are 1-based per stream."""

    utt_id: str
    index: int
    start: int
    end: int
    chunk_len_sec: float
    is_final: bool

    def __post_init__(self) -> None:
        check_int("chunk index", self.index, least=1)
        check_real("chunk_len_sec", self.chunk_len_sec, "(0, inf)")
        if not 0 <= self.start < self.end:
            raise ConfigError("chunk slice must be non-empty")


def frames_per_chunk(chunk_len_sec: float, frame_period_sec: float) -> int:
    """Number of frames in one full chunk; the chunk length must be an
    integer multiple of the frame period."""
    check_real("chunk_len_sec", chunk_len_sec, "(0, inf)")
    check_real("frame_period_sec", frame_period_sec, "(0, inf)")
    n = round(chunk_len_sec / frame_period_sec)
    if n < 1 or abs(n * frame_period_sec - chunk_len_sec) > 1e-9:
        raise ConfigError(
            f"chunk length {chunk_len_sec} is not a multiple of the frame "
            f"period {frame_period_sec}"
        )
    return n


def chunk_stream(
    frames: Sequence | np.ndarray,
    chunk_len_sec: float,
    frame_period_sec: float = DEFAULT_FRAME_PERIOD_SEC,
    utt_id: str = "",
) -> list[Chunk]:
    """Split a frame stream into fixed-size chunks; the last chunk may be
    short and is flagged is_final."""
    per = frames_per_chunk(chunk_len_sec, frame_period_sec)
    total = len(frames)
    chunks: list[Chunk] = []
    start = 0
    index = 1
    while start < total:
        end = min(start + per, total)
        chunks.append(
            Chunk(utt_id, index, start, end, chunk_len_sec, end == total)
        )
        start = end
        index += 1
    return chunks


def output_time(chunk_index: int, chunk_len_sec: float) -> float:
    """Timestamp at which tokens committed at this chunk become visible."""
    if chunk_index < 1:
        raise ContractViolation("chunk_index is 1-based")
    check_real("chunk_len_sec", chunk_len_sec, "(0, inf)")
    return chunk_index * chunk_len_sec


@dataclass(frozen=True)
class TimedToken:
    """One displayed token and the time it appeared."""

    token: str
    chunk_index: int
    output_time_sec: float


@dataclass(frozen=True)
class ChunkOutput:
    """Fresh tokens decoded past the committed prefix at one chunk.

    Never contains pad/bos/eos; log_probs align with tokens.
    """

    chunk_index: int
    tokens: tuple[str, ...]
    log_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.log_probs):
            raise ContractViolation("tokens and log_probs must align")


class CommitLog:
    """Append-only record of displayed tokens; commits are irreversible."""

    def __init__(self) -> None:
        self._entries: list[TimedToken] = []

    @property
    def entries(self) -> tuple[TimedToken, ...]:
        return tuple(self._entries)

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(e.token for e in self._entries)

    @property
    def last_chunk_index(self) -> int:
        return self._entries[-1].chunk_index if self._entries else 0

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommitLog):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"CommitLog({self._entries!r})"

    def append(self, entry: TimedToken) -> "CommitLog":
        """Append one displayed token; prior entries are untouched and chunk
        indices must not move backwards."""
        if entry.chunk_index < self.last_chunk_index:
            raise ContractViolation(
                f"commit at chunk {entry.chunk_index} after chunk "
                f"{self.last_chunk_index}"
            )
        self._entries.append(entry)
        return self

    def commit(
        self, tokens: Sequence[str], chunk_index: int, chunk_len_sec: float
    ) -> "CommitLog":
        """Append tokens committed at the given chunk, each shown at the
        chunk's output time."""
        t = output_time(chunk_index, chunk_len_sec)
        for tok in tokens:
            self.append(TimedToken(tok, chunk_index, t))
        return self
