"""Sequence-model interface, encoder-state container, the aligned synthetic
oracle model, and single-file model serialization.

A model exposes incremental encoding of a growing frame stream and a
decoder of two calls that yield normalized next-token log-probabilities.
``encode`` reports on its states the rows it ran (``rows_encoded``): a causal
encoder runs only the frames past its prior, a bidirectional one all. A
decoder state is a block of rows that have all consumed the same positions.
``dec_init(enc, prefix)`` is the prefill: it consumes bos and the whole
forced prefix at once and returns a one-row state with a (len(prefix) + 1,
vocab) log-probability matrix whose row j follows the first j prefix
tokens. ``dec_advance(state, rows, token_ids)`` returns the block whose row
i extends row ``rows[i]`` of ``state`` by ``token_ids[i]``, with one
log-probability row per new row, so a beam step reorders and extends its
paths by parent index in one call.

A decoder state carries the encoding it was made with, so it needs no other
argument to advance, and it keeps decoding that encoding after the stream
has grown. Each chunk's beam search therefore prefills its forced prefix
again on the grown encoding. What carries over between chunks is the
encoder output, which a causal encoder extends append-only, together with
the cross-attention keys and values the transformer keeps beside it. Each
model instance holds a private ownership token that its encoder states (and
the transformer's decoder states) carry, so a state from another model is
refused even after that model is gone and its ``id()`` reused.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Any, Protocol, Sequence, runtime_checkable

import numpy as np

from . import autodiff as ad
from .core import (
    ContractViolation,
    ConfigError,
    UnsupportedOperation,
    Vocab,
)
from .data import Alignment, SyntheticTaskSpec, gen_with_alignments, task_vocab

UNIDIRECTIONAL = "unidirectional"
BIDIRECTIONAL = "bidirectional"


@dataclass(eq=False)
class EncoderStates:
    """Encoder output rows for every frame position received so far."""

    states: np.ndarray  # (frames_covered, d_model)
    frames_covered: int
    frame_period_sec: float = 0.010
    utt_id: str | None = None
    owner: object = None  # the producing model's ownership token
    # model-internal, for the transformer: per encoder layer the
    # self-attention (K, V) and per decoder layer the cross-attention (K, V)
    # of these rows, each (frames_covered, d_model); a causal encode extends
    # both
    layer_kv: Any = None
    cross_kv: Any = None
    rows_encoded: int = 0  # rows the encode call that made these states ran

    @property
    def audio_sec(self) -> float:
        return self.frames_covered * self.frame_period_sec


@runtime_checkable
class SequenceModel(Protocol):
    vocab: Vocab

    def encode(
        self,
        frames: np.ndarray,
        prior: EncoderStates | None = None,
        *,
        utt_id: str | None = None,
        frame_period_sec: float = 0.010,
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
    utt_id: str | None, frame_period_sec: float,
) -> tuple[str | None, float]:
    """(utt_id, frame_period_sec) of an n_frames encoding that extends prior:
    the prior's, but a given utt_id wins; a prior it cannot extend raises."""
    if prior is None:
        return utt_id, frame_period_sec
    _check_owner(model, prior, "prior states")
    if prior.frames_covered > n_frames:
        raise ContractViolation("prior states cover more frames than were provided")
    if utt_id is not None and prior.utt_id is not None and utt_id != prior.utt_id:
        raise ContractViolation("prior states belong to a different utterance")
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
        instability_frames: int = 10,
        perturb_seed: int = 0,
        meta: dict | None = None,
    ) -> None:
        if instability_frames < 0:
            raise ConfigError("instability_frames must be >= 0")
        self.vocab = vocab
        self._owner = object()  # held by every state this instance makes
        self.alignments = alignments
        self.instability_frames = instability_frames
        self.perturb_seed = perturb_seed
        self._meta = meta or {}
        # fixed-point-free map over word ids: rotate a seeded permutation
        word_ids = np.fromiter(vocab.word_ids(), dtype=np.int64)
        rng = np.random.default_rng(perturb_seed)
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
        instability_frames: int = 10,
        perturb_seed: int | None = None,
    ) -> "SyntheticAlignedModel":
        """Rebuild the oracle for the dataset gen_dataset(spec, count, seed)."""
        _, aligns = gen_with_alignments(spec, count, seed)
        if perturb_seed is None:
            perturb_seed = seed
        meta = {
            "task": spec.__dict__.copy(),
            "count": count,
            "seed": seed,
            "instability_frames": instability_frames,
            "perturb_seed": perturb_seed,
        }
        return cls(
            task_vocab(spec), aligns, instability_frames, perturb_seed, meta
        )

    # --- encoding ---------------------------------------------------------

    def encode(
        self,
        frames: np.ndarray,
        prior: EncoderStates | None = None,
        *,
        utt_id: str | None = None,
        frame_period_sec: float = 0.010,
    ) -> EncoderStates:
        frames = np.asarray(frames, dtype=np.float64)
        utt_id, frame_period_sec = _check_prior(
            self, prior, len(frames), utt_id, frame_period_sec
        )
        return EncoderStates(
            states=frames,
            frames_covered=len(frames),
            frame_period_sec=frame_period_sec,
            utt_id=utt_id,
            owner=self._owner,
            # the states are the frames; those past the prior are new rows
            rows_encoded=len(frames) - (prior.frames_covered if prior else 0),
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
            target = self.vocab.eos_id
        else:
            end = align.span_ends[slot]
            tok = align.token_ids[slot]
            if end > avail:
                target = self.vocab.eos_id
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

    def dump_attention(self, frames: np.ndarray, prefix: Sequence[int]):
        raise UnsupportedOperation(
            "the synthetic oracle has no attention weights"
        )


# --- serialization ---------------------------------------------------------

_MAGIC = b"SDM1"


def _write_block(fh, name: str, arr: np.ndarray) -> None:
    meta = json.dumps(
        {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}
    ).encode("utf-8")
    fh.write(struct.pack("<I", len(meta)))
    fh.write(meta)
    fh.write(arr.tobytes(order="C"))


def save_model(model: Any, path: str) -> None:
    """Serialize a model to one self-describing binary file."""
    from . import transformer  # local import; transformer depends on model

    if isinstance(model, SyntheticAlignedModel):
        if not model._meta:
            raise UnsupportedOperation(
                "only oracles built by from_task can be serialized"
            )
        header = {
            "format_version": 1,
            "model_type": "synthetic",
            "meta": model._meta,
        }
        params: dict[str, np.ndarray] = {}
    elif isinstance(model, transformer.TinyTransformer):
        header = {
            "format_version": 1,
            "model_type": "transformer",
            "config": model.cfg.__dict__.copy(),
            "vocab": list(model.vocab.tokens),
        }
        params = model.params
    else:
        raise UnsupportedOperation(f"cannot serialize {type(model).__name__}")

    head = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            _write_block(fh, name, params[name])


class _Reader:
    """Bounds-checked reads over a model file's bytes; every error names the
    file and the byte offset at which the bad field starts."""

    def __init__(self, path: str, data: bytes, pos: int) -> None:
        self.path, self.data, self.pos = path, data, pos

    def error(self, what: str, at: int) -> ConfigError:
        return ConfigError(f"{self.path}: {what} at byte {at}")

    def take(self, n: int, what: str) -> bytes:
        left = len(self.data) - self.pos
        if n > left:
            raise self.error(f"truncated {what}: {n} bytes needed, {left} left",
                             self.pos)
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def json_object(self, what: str) -> dict:
        """A u32 length followed by that many bytes of UTF-8 JSON object."""
        raw = self.take(self.u32(f"{what} length"), what)
        at = self.pos - len(raw)
        try:
            obj = json.loads(raw.decode("utf-8"))
        except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
            raise self.error(f"malformed {what} ({e})", at) from None
        if not isinstance(obj, dict):
            raise self.error(f"{what} is not a JSON object", at)
        return obj


def _read_params(r: _Reader) -> tuple[dict[str, np.ndarray], dict[str, int]]:
    """The parameter table: arrays by name and the offset of each block."""
    params: dict[str, np.ndarray] = {}
    where: dict[str, int] = {}
    for _ in range(r.u32("parameter count")):
        at = r.pos
        meta = r.json_object("parameter header")
        name, shape = meta.get("name"), meta.get("shape")
        if not isinstance(name, str) or name in params:
            raise r.error(f"missing or repeated parameter name {name!r}", at)
        if meta.get("dtype") != "float64":
            raise r.error(f"parameter {name}: unsupported dtype "
                          f"{meta.get('dtype')!r}", at)
        if not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape
        ):
            raise r.error(f"parameter {name}: bad shape {shape!r}", at)
        buf = r.take(8 * math.prod(shape), f"data of parameter {name}")
        arr = np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise r.error(f"parameter {name} has non-finite values",
                          r.pos - len(buf))
        params[name], where[name] = arr, at
    if r.pos != len(r.data):
        raise r.error(f"{len(r.data) - r.pos} trailing bytes", r.pos)
    return params, where


def load_model(path: str) -> Any:
    """Inverse of save_model; the header tells which model type to rebuild.

    A truncated, malformed or inconsistent file raises ConfigError naming
    the path and the byte offset of the offending field."""
    from . import transformer

    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise ConfigError(f"{path} is not a serialized model")
    r = _Reader(path, data, len(_MAGIC))
    header = r.json_object("header")
    header_at = len(_MAGIC) + 4
    if header.get("format_version") != 1:
        raise r.error(f"unsupported model format version "
                      f"{header.get('format_version')!r}", header_at)
    params, where = _read_params(r)
    kind = header.get("model_type")
    try:
        if kind == "synthetic":
            meta = header["meta"]
            spec = SyntheticTaskSpec(**meta["task"])
            return SyntheticAlignedModel.from_task(
                spec,
                int(meta["count"]),
                int(meta["seed"]),
                int(meta["instability_frames"]),
                int(meta["perturb_seed"]),
            )
        if kind == "transformer":
            conf = header["config"]
            cfg = transformer.TransformerConfig(**conf)
            if any(type(v) is not int for k, v in conf.items() if k != "mode"):
                raise ConfigError("config sizes must be integers")
            tokens = header["vocab"]
            if not all(isinstance(t, str) for t in tokens):
                raise ConfigError("vocab entries must be strings")
            vocab = Vocab(tuple(tokens))
            model = transformer.TinyTransformer(cfg, vocab, params)
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise r.error(f"invalid {kind} header ({type(e).__name__}: {e})",
                      header_at) from None
    if kind != "transformer":
        raise r.error(f"unknown model type {kind!r}", header_at)
    expected = transformer.param_shapes(cfg)
    got = {k: v.shape for k, v in params.items()}
    if got != expected:
        bad = sorted((k for k in got if got[k] != expected.get(k)), key=where.get)
        missing = sorted(expected.keys() - got.keys())
        raise r.error(
            f"parameters differ from the config: unexpected or misshapen "
            f"{bad}, missing {missing}",
            where[bad[0]] if bad else r.pos,
        )
    return model
