"""File formats: transformer model files, JSONL utterances and commit logs,
JSON eval summaries and attention-grid archives.

A model file is the magic ``SDM1``, a u32-length-prefixed JSON header (format
version, ``"model_type": "transformer"``, config and vocab) and a u32 count of
parameter blocks, each a u32-length-prefixed JSON block header (name, dtype,
shape) followed by the array's bytes, in name order.

An utterance line keeps its id, tokens and frame period as plain JSON and
its frames as ``{"shape": [n, dim], "float64le_hex": <hex>}``: the hex of
the frame matrix's little-endian float64 bytes in row-major order, 16 digits
a value. That round-trips every float64 bit for bit, like float text, but
loads without parsing one number per frame value, and several times faster
than base64 for 1.5 times the bytes. A commit log is one line per displayed
token and loads back as the ``CommitLog`` it was saved from; this module is
the only code that knows the JSONL keys. ``Utterance`` checks each record's
fields; a failed check names the file and line.

Attention grids are one numpy ``.npz`` archive holding each grid's exact
float64 array under its ``dump_attention`` name (``cross.layer0.head1``);
``np.load(path)[name]`` reads one back.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    DEFAULT_FRAME_PERIOD_SEC,
    CommitLog,
    ConfigError,
    ContractViolation,
    TimedToken,
    Utterance,
    Vocab,
)
from .transformer import TinyTransformer, TransformerConfig, param_shapes


def _encode_frames(frames: np.ndarray) -> dict:
    data = frames.astype("<f8", copy=False).tobytes()
    return {"shape": list(frames.shape), "float64le_hex": data.hex()}


def _decode_frames(frames) -> np.ndarray:
    """The inverse of _encode_frames: a native, C-contiguous, writable
    float64 matrix that owns its memory. A malformed value is a ConfigError;
    the nested-list and base64 spellings of earlier versions are refused,
    not read."""
    if isinstance(frames, list) or (isinstance(frames, dict) and "float64le" in frames):
        old = "nested lists" if isinstance(frames, list) else 'base64 ("float64le")'
        raise ConfigError(f"frames are {old}, a spelling this version no longer "
                          f"reads; regenerate the corpus with `streamdec gen-data`")
    if not isinstance(frames, dict) or set(frames) != {"shape", "float64le_hex"}:
        raise ConfigError(
            'frames must be an object with exactly the keys "shape" and '
            '"float64le_hex"'
        )
    shape, digits = frames["shape"], frames["float64le_hex"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(d) is int and d >= 0 for d in shape)):
        raise ConfigError(
            f"frames shape must be two non-negative integers, got {shape!r}"
        )
    n, dim = shape
    if not isinstance(digits, str) or len(digits) != 16 * n * dim:
        got = len(digits) if isinstance(digits, str) else type(digits).__name__
        raise ConfigError(f"frames float64le_hex must be a string of "
                          f"{16 * n * dim} hex digits for shape {shape}, got {got}")
    try:
        raw = bytearray.fromhex(digits)
        if 2 * len(raw) != len(digits):  # fromhex skipped whitespace
            raise ValueError("whitespace among the digits")
    except ValueError as e:
        raise ConfigError(f"frames float64le_hex is not hex: {e}") from None
    # a bytearray is writable, so the array uses it in place
    return np.frombuffer(raw, "<f8").astype(np.float64, copy=False).reshape(n, dim)


def save_utterances(utts: Iterable[Utterance], path: str) -> None:
    with open(path, "w") as fh:
        for u in utts:
            rec = {
                "id": u.id,
                "frames": _encode_frames(u.frames),
                "ref": list(u.reference_tokens),
                "frame_period_sec": u.frame_period_sec,
            }
            if u.target_tokens is not None:
                rec["tgt"] = list(u.target_tokens)
            fh.write(json.dumps(rec) + "\n")


def numbered_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, text) for each line of a UTF-8 text file; a line that
    is not UTF-8 is a ConfigError naming path:line."""
    # an utterance line holds its frames as hex, 1.5 times base64's length:
    # 77 KB for 3 s of 16-dimension frames at 10 ms, 192 KB for 7.5 s. A
    # buffer larger than a line lets readline take it in one piece
    with open(path, "rb", buffering=1 << 18) as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ConfigError(f"{path}:{line_no}: not valid UTF-8: {e}") from None
            yield line_no, line


def _records(path: str, required: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSONL file; a line
    that is not a JSON object holding every required key is a ConfigError
    naming path:line."""
    for line_no, line in numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}:{line_no}: bad JSON: {e}") from e
        if not isinstance(rec, dict):
            raise ConfigError(f"{path}:{line_no}: not a JSON object")
        missing = [k for k in required if k not in rec]
        if missing:
            raise ConfigError(f"{path}:{line_no}: missing key {missing[0]!r}")
        yield line_no, rec


def _check_fields(path: str, line_no: int, rec: dict, fields: Sequence) -> None:
    """Each (key, kind, check) of fields whose key the record holds must pass
    its check; the first that fails is a ConfigError naming path:line."""
    for key, kind, ok in fields:
        if key in rec and not ok(rec[key]):
            raise ConfigError(
                f"{path}:{line_no}: {key} must be {kind}, got {rec[key]!r}"
            )


def load_utterances(path: str) -> list[Utterance]:
    """Utterances in file order, the inverse of save_utterances. A malformed
    record, or an id an earlier record already used, is a ConfigError naming
    path:line."""
    out = []
    first_line: dict[str, int] = {}  # utterance id -> line that used it
    for line_no, rec in _records(path, ("id", "frames", "ref")):
        try:
            utt = Utterance(
                id=rec["id"],
                frames=_decode_frames(rec["frames"]),
                reference_tokens=rec["ref"],
                target_tokens=rec.get("tgt"),
                frame_period_sec=rec.get("frame_period_sec", DEFAULT_FRAME_PERIOD_SEC),
            )
        except (TypeError, ValueError) as e:  # ConfigError included
            raise ConfigError(f"{path}:{line_no}: {e}") from e
        # after Utterance, which refuses an id that is not a string
        if utt.id in first_line:
            raise ConfigError(
                f"{path}:{line_no}: utterance id {utt.id!r} repeats the one "
                f"on line {first_line[utt.id]}"
            )
        first_line[utt.id] = line_no
        out.append(utt)
    return out


def save_commit_logs(logs: Mapping[str, CommitLog], path: str) -> None:
    """One line per committed token, in commit order within each utterance."""
    with open(path, "w") as fh:
        for utt_id in sorted(logs):
            for t in logs[utt_id].entries:
                rec = {
                    "utt": utt_id,
                    "token": t.token,
                    "chunk": t.chunk_index,
                    "t_out": t.output_time_sec,
                }
                fh.write(json.dumps(rec) + "\n")


# each commit-log key, what its value must be, and the check (bool is
# neither an integer nor a number here)
_COMMIT_FIELDS = (
    ("utt", "a string", lambda v: isinstance(v, str)),
    ("token", "a string", lambda v: isinstance(v, str)),
    ("chunk", "an integer >= 1", lambda v: type(v) is int and v >= 1),
    ("t_out", "a finite number",
     lambda v: type(v) in (int, float) and math.isfinite(v)),
)


def load_commit_logs(path: str) -> dict[str, CommitLog]:
    """Commit logs by utterance id, the inverse of save_commit_logs. A
    malformed record, or a chunk index that goes backwards within one
    utterance, is a ConfigError naming path:line."""
    out: dict[str, CommitLog] = {}
    for line_no, rec in _records(path, [k for k, _, _ in _COMMIT_FIELDS]):
        _check_fields(path, line_no, rec, _COMMIT_FIELDS)
        entry = TimedToken(rec["token"], rec["chunk"], float(rec["t_out"]))
        try:
            out.setdefault(rec["utt"], CommitLog()).append(entry)
        except ContractViolation as e:
            raise ConfigError(f"{path}:{line_no}: {e}") from e
    return out


def save_eval_summary(summary: Mapping[str, object], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(dict(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_attention_grids(grids: Mapping[str, np.ndarray], path: str) -> None:
    """One .npz archive at exactly path, each grid an array under its name,
    as np.load reads it. Through a file handle, since np.savez given a name
    without the .npz suffix would add one."""
    with open(path, "wb") as fh:
        np.savez(fh, **grids)


_MAGIC = b"SDM1"


def _write_block(fh, name: str, arr: np.ndarray) -> None:
    meta = json.dumps(
        {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}
    ).encode("utf-8")
    fh.write(struct.pack("<I", len(meta)))
    fh.write(meta)
    fh.write(arr.tobytes(order="C"))


def save_model(model: TinyTransformer, path: str) -> None:
    """Write a transformer to one self-describing binary file."""
    header = {
        "format_version": 1,
        "model_type": "transformer",
        "config": model.cfg.__dict__.copy(),
        "vocab": list(model.vocab.tokens),
    }
    head = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(struct.pack("<I", len(model.params)))
        for name in sorted(model.params):
            _write_block(fh, name, model.params[name])


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
        # read-only; the model keeps its own copy
        arr = np.frombuffer(buf, dtype=np.float64).reshape(shape)
        if not np.isfinite(arr).all():
            raise r.error(f"parameter {name} has non-finite values",
                          r.pos - len(buf))
        params[name], where[name] = arr, at
    if r.pos != len(r.data):
        raise r.error(f"{len(r.data) - r.pos} trailing bytes", r.pos)
    return params, where


def load_model(path: str) -> TinyTransformer:
    """The inverse of save_model. A truncated, malformed or inconsistent
    file, or one of another model type, raises ConfigError naming the path
    and the byte offset of the offending field."""
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
    if header.get("model_type") != "transformer":
        raise r.error(f"unknown model type {header.get('model_type')!r}",
                      header_at)
    try:
        conf = header["config"]
        cfg = TransformerConfig(**conf)
        tokens = header["vocab"]
        if not all(isinstance(t, str) for t in tokens):
            raise ConfigError("vocab entries must be strings")
        model = TinyTransformer(cfg, Vocab(tuple(tokens)), params)
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise r.error(f"invalid transformer header ({type(e).__name__}: {e})",
                      header_at) from None
    expected = param_shapes(cfg)
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
