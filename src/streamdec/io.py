"""File formats: transformer model files, utterance archives, JSONL commit
logs, JSON eval summaries and attention-grid archives.

A model file is the magic ``SDM1``, a u32-length-prefixed JSON header (format
version, ``"model_type": "transformer"``, config and vocab) and a u32 count of
parameter blocks, each a u32-length-prefixed JSON block header (name, dtype,
shape) followed by the array's bytes, in name order.

An utterance corpus is one uncompressed numpy ``.npz`` archive: ``frames``,
each utterance's float64 frame matrix in row order, in corpus order, as one
flat little-endian array; ``shapes``, each utterance's (frames, width) as an
(n, 2) int64 array; and ``records``, a 0-d string holding a JSON list of one
object per utterance (``id``, ``ref``, ``tgt`` if it has a target side,
``frame_period_sec``). It is known by its content, never by its suffix. A
commit log is one JSON line per displayed token. This module is the only
code that knows these layouts; a malformed file is a ConfigError naming it,
and the utterance's index and id, or the log's line, where one record is at
fault. Attention grids are one ``.npz`` archive holding each grid's exact
float64 array under its ``dump_attention`` name (``cross.layer0.head1``).
"""

from __future__ import annotations

import json
import math
import struct
from typing import Iterable, Iterator, Mapping

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


def _read_npz(path: str, members: Mapping[str, tuple[type, int]],
              hint: str = "") -> dict[str, np.ndarray]:
    """The arrays of the numpy archive at path by name, which must be those
    of members, each of its (dtype, rank); pickled members are refused. A
    file that is not an archive (hint follows that message), a truncated or
    malformed one, bytes after its end record, or a missing, extra or
    mistyped member is a ConfigError naming the path."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        fh.seek(max(fh.seek(0, 2) - 22, 0))
        tail = fh.read()
        if head not in (b"PK\x03\x04", b"PK\x05\x06"):
            raise ConfigError(f"{path} is not a numpy .npz archive{hint}")
        # np.load finds the end record by searching back, so it would skip
        # bytes after it: here the record, with no comment, must end the file
        if len(tail) != 22 or tail[:4] != b"PK\x05\x06" or tail[-2:] != b"\0\0":
            raise ConfigError(f"{path}: archive truncated, or bytes after its end")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                names = set(npz.files)
                arrays = {name: npz[name] for name in names & members.keys()}
        except Exception as e:  # any failure of the zip or .npy reader
            raise ConfigError(f"{path}: malformed archive ({type(e).__name__}: {e})") from None
    if names != members.keys():
        raise ConfigError(f"{path}: the members must be {sorted(members)}, got {sorted(names)}")
    for name, (dtype, rank) in members.items():
        a = arrays[name]
        if not (isinstance(a, np.ndarray) and np.issubdtype(a.dtype, dtype) and a.ndim == rank):
            got = f"{a.dtype} of rank {a.ndim}" if isinstance(a, np.ndarray) else "not an array"
            raise ConfigError(f"{path}: member {name} must be {dtype.__name__} "
                              f"of rank {rank}, got {got}")
    return arrays


def save_utterances(utts: Iterable[Utterance], path: str) -> None:
    """One uncompressed .npz archive at exactly path, as np.savez given a
    file name without the .npz suffix would not write it."""
    utts, records = list(utts), []
    for u in utts:
        records.append({"id": u.id, "ref": list(u.reference_tokens),
                        "frame_period_sec": u.frame_period_sec})
        if u.target_tokens is not None:
            records[-1]["tgt"] = list(u.target_tokens)
    with open(path, "wb") as fh:
        np.savez(
            fh,
            frames=np.concatenate([u.frames.ravel() for u in utts] or [[]], dtype="<f8"),
            shapes=np.array([u.frames.shape for u in utts], dtype="<i8").reshape(-1, 2),
            records=np.array(json.dumps(records)),
        )


def load_utterances(path: str) -> list[Utterance]:
    """Utterances in file order, the inverse of save_utterances. A malformed
    archive is a ConfigError naming the path, and a malformed record, or one
    that repeats an earlier record's id, one that also names its index and
    id. A JSONL corpus is refused with the advice to regenerate it."""
    arrays = _read_npz(
        path, {"frames": (np.float64, 1), "shapes": (np.int64, 2), "records": (np.str_, 0)},
        "; a JSONL corpus of an earlier version must be regenerated with `streamdec gen-data`")
    frames = arrays["frames"].astype(np.float64, copy=False)
    if arrays["shapes"].shape[1] != 2:
        raise ConfigError(f"{path}: shapes must be (n, 2), got {arrays['shapes'].shape}")
    shapes = arrays["shapes"].tolist()
    for i, shape in enumerate(shapes):
        if min(shape) < 0:
            raise ConfigError(f"{path}: utterance {i}'s shape {shape} is negative")
    total = sum(n * dim for n, dim in shapes)
    if total != len(frames):
        raise ConfigError(f"{path}: shapes add up to {total} frame values, "
                          f"but frames holds {len(frames)}")
    try:
        records = json.loads(arrays["records"].item())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: records are not JSON: {e}") from None
    if not isinstance(records, list) or len(records) != len(shapes):
        raise ConfigError(f"{path}: records must be a JSON list of {len(shapes)} "
                          f"objects, one per row of shapes, got {records!r:.80}")
    out, first, start = [], {}, 0  # first: utterance id -> its first index
    for i, (rec, (n, dim)) in enumerate(zip(records, shapes)):
        where = f"{path}: utterance {i}"
        try:
            if not isinstance(rec, dict):
                raise ConfigError(f"not a JSON object: {rec!r:.80}")
            where += f" ({rec['id']!r})" if "id" in rec else ""
            missing = [k for k in ("id", "ref") if k not in rec]
            if missing:
                raise ConfigError(f"missing key {missing[0]!r}")
            utt = Utterance(
                id=rec["id"],
                frames=frames[start : start + n * dim].reshape(n, dim),
                reference_tokens=rec["ref"],
                target_tokens=rec.get("tgt"),
                frame_period_sec=rec.get("frame_period_sec", DEFAULT_FRAME_PERIOD_SEC),
            )
        except (TypeError, ValueError) as e:  # ConfigError included
            raise ConfigError(f"{where}: {e}") from e
        # after Utterance, which refuses an id that is not a string
        if utt.id in first:
            raise ConfigError(f"{where}: repeats the id of utterance {first[utt.id]}")
        first[utt.id] = i
        out.append(utt)
        start += n * dim
    return out


def numbered_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, text) for each line of a UTF-8 text file; a line that
    is not UTF-8 is a ConfigError naming path:line."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ConfigError(f"{path}:{line_no}: not valid UTF-8: {e}") from None
            yield line_no, line


def save_commit_logs(logs: Mapping[str, CommitLog], path: str) -> None:
    """One line per committed token, in commit order within each utterance."""
    with open(path, "w") as fh:
        for utt_id in sorted(logs):
            for t in logs[utt_id].entries:
                rec = {"utt": utt_id, "token": t.token, "chunk": t.chunk_index,
                       "t_out": t.output_time_sec}
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
    """Commit logs by utterance id, the inverse of save_commit_logs. A line
    that is not a JSON object holding each key of _COMMIT_FIELDS with a
    value that passes its check, or a chunk index that goes backwards
    within one utterance, is a ConfigError naming path:line; blank lines
    are skipped."""
    out: dict[str, CommitLog] = {}
    for line_no, line in numbered_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}:{line_no}: bad JSON: {e}") from e
        if not isinstance(rec, dict):
            raise ConfigError(f"{path}:{line_no}: not a JSON object")
        for key, kind, ok in _COMMIT_FIELDS:
            if key not in rec:
                raise ConfigError(f"{path}:{line_no}: missing key {key!r}")
            if not ok(rec[key]):
                raise ConfigError(f"{path}:{line_no}: {key} must be {kind}, got {rec[key]!r}")
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
