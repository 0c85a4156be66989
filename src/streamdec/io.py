"""File formats: JSONL utterances and commit logs, JSON eval summaries,
TSV attention grids.

Utterance lines carry frames as nested lists; fine for desk-scale data and
keeps the corpus diffable and python-free to inspect. A commit log is one
line per displayed token and loads back as the ``CommitLog`` it was saved
from; this module is the only code that knows the JSONL keys.
"""

from __future__ import annotations

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


def save_utterances(utts: Iterable[Utterance], path: str) -> None:
    with open(path, "w") as fh:
        for u in utts:
            rec = {
                "id": u.id,
                "frames": u.frames.tolist(),
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
# number here); frames are checked by Utterance itself
_UTTERANCE_FIELDS = (
    ("id", "a string", lambda v: isinstance(v, str)),
    ("ref", "a list of strings", _is_str_list),
    ("tgt", "a list of strings", _is_str_list),
    ("frame_period_sec", "a positive finite number",
     lambda v: type(v) in (int, float) and 0 < v < math.inf),
)


def load_utterances(path: str) -> list[Utterance]:
    """Utterances in file order, the inverse of save_utterances. A malformed
    record is a ConfigError naming path:line."""
    out = []
    for line_no, rec in _records(path, ("id", "frames", "ref")):
        _check_fields(path, line_no, rec, _UTTERANCE_FIELDS)
        tgt = rec.get("tgt")
        try:
            utt = Utterance(
                id=rec["id"],
                frames=np.asarray(rec["frames"], dtype=np.float64),
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
