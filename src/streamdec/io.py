"""File formats: JSONL utterances and commit logs, JSON eval summaries,
TSV attention grids.

An utterance line keeps its id, tokens and frame period as plain JSON and
its frames as ``{"shape": [n, dim], "float64le": <base64>}``: the base64 of
the frame matrix's little-endian float64 bytes in row-major order. That
round-trips every float64 bit for bit, like float text, but loads without
parsing one number per frame value. A commit log is one line per displayed
token and loads back as the ``CommitLog`` it was saved from; this module is
the only code that knows the JSONL keys.
"""

from __future__ import annotations

import base64
import json
import math
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    CommitLog,
    ConfigError,
    ContractViolation,
    TimedToken,
    Utterance,
)


def _encode_frames(frames: np.ndarray) -> dict:
    data = frames.astype("<f8", copy=False).tobytes()
    return {
        "shape": list(frames.shape),
        "float64le": base64.b64encode(data).decode("ascii"),
    }


def _decode_frames(frames) -> np.ndarray:
    """The inverse of _encode_frames: a native, C-contiguous, writable
    float64 matrix. A malformed value is a ConfigError; the nested-list
    spelling of earlier versions is refused, not read."""
    if isinstance(frames, list):
        raise ConfigError(
            "frames are nested lists, a spelling this version no longer "
            "reads; regenerate the corpus with `streamdec gen-data`"
        )
    if not isinstance(frames, dict) or set(frames) != {"shape", "float64le"}:
        raise ConfigError(
            'frames must be an object with exactly the keys "shape" and '
            '"float64le"'
        )
    shape = frames["shape"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(d) is int and d >= 0 for d in shape)):
        raise ConfigError(
            f"frames shape must be two non-negative integers, got {shape!r}"
        )
    try:
        raw = base64.b64decode(frames["float64le"], validate=True)
    except (TypeError, ValueError) as e:  # not a string, not ASCII, not base64
        raise ConfigError(f"frames float64le is not valid base64: {e}") from e
    n, dim = shape
    if len(raw) != 8 * n * dim:
        raise ConfigError(
            f"frames float64le holds {len(raw)} bytes; shape {shape} needs "
            f"{8 * n * dim}"
        )
    # astype copies: the buffer of bytes is read-only
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(n, dim)


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


def _records(path: str, required: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSONL file; a line
    that is not a JSON object holding every required key is a ConfigError
    naming path:line."""
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
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
                raise ConfigError(
                    f"{path}:{line_no}: missing key {missing[0]!r}"
                )
            yield line_no, rec


def _check_fields(path: str, line_no: int, rec: dict, fields: Sequence) -> None:
    """Each (key, kind, check) of fields whose key the record holds must pass
    its check; the first that fails is a ConfigError naming path:line."""
    for key, kind, ok in fields:
        if key in rec and not ok(rec[key]):
            raise ConfigError(
                f"{path}:{line_no}: {key} must be {kind}, got {rec[key]!r}"
            )


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(t, str) for t in v)


# each utterance key, what its value must be, and the check (bool is not a
# number here); frames are checked by _decode_frames and Utterance
_UTTERANCE_FIELDS = (
    ("id", "a string", lambda v: isinstance(v, str)),
    ("ref", "a list of strings", _is_str_list),
    ("tgt", "a list of strings", _is_str_list),
    ("frame_period_sec", "a positive finite number",
     lambda v: type(v) in (int, float) and 0 < v < math.inf),
)


def load_utterances(path: str) -> list[Utterance]:
    """Utterances in file order, the inverse of save_utterances. A malformed
    record, or an id an earlier record already used, is a ConfigError naming
    path:line."""
    out = []
    first_line: dict[str, int] = {}  # utterance id -> line that used it
    for line_no, rec in _records(path, ("id", "frames", "ref")):
        _check_fields(path, line_no, rec, _UTTERANCE_FIELDS)
        utt_id = rec["id"]
        if utt_id in first_line:
            raise ConfigError(
                f"{path}:{line_no}: utterance id {utt_id!r} repeats the one "
                f"on line {first_line[utt_id]}"
            )
        first_line[utt_id] = line_no
        tgt = rec.get("tgt")
        try:
            utt = Utterance(
                id=utt_id,
                frames=_decode_frames(rec["frames"]),
                reference_tokens=tuple(rec["ref"]),
                target_tokens=tuple(tgt) if tgt is not None else None,
                frame_period_sec=rec.get("frame_period_sec", 0.010),
            )
        except (TypeError, ValueError) as e:  # ConfigError included
            raise ConfigError(f"{path}:{line_no}: {e}") from e
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


def save_attention_grids(
    grids: Mapping[str, np.ndarray], path: str
) -> None:
    """TSV blocks, one per grid: a `# name rows cols` header line, then the
    rows; blocks separated by blank lines."""
    with open(path, "w") as fh:
        for name in sorted(grids):
            g = np.asarray(grids[name])
            if g.ndim != 2:
                raise ConfigError(f"attention grid {name} is not 2-D")
            fh.write(f"# {name}\t{g.shape[0]}\t{g.shape[1]}\n")
            for row in g:
                fh.write("\t".join(f"{x:.6f}" for x in row) + "\n")
            fh.write("\n")


def load_attention_grids(path: str) -> dict[str, np.ndarray]:
    grids: dict[str, np.ndarray] = {}
    with open(path) as fh:
        name = None
        rows: list[list[float]] = []
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                if name is not None:
                    grids[name] = np.asarray(rows)
                name = line[2:].split("\t")[0]
                rows = []
            elif line.strip():
                rows.append([float(x) for x in line.split("\t")])
        if name is not None:
            grids[name] = np.asarray(rows)
    return grids
