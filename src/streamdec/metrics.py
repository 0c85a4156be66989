"""Accuracy and latency measurement.

Word error rate is computed from a minimum-cost edit alignment with unit
costs. Latency is the mean commit timestamp over all displayed tokens; the
delta between two systems on the same utterance set cancels every term that
does not depend on the commit times. ``score_logs`` is the one scorer that
turns commit logs into both numbers; the CLI, the sweep and the adaptation
study all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    CommitLog,
    ContractViolation,
    UndefinedMetric,
    Utterance,
    eval_tokens,
)


@dataclass(frozen=True)
class WerBreakdown:
    substitutions: int
    deletions: int
    insertions: int
    ref_len: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def rate(self) -> float:
        if self.ref_len == 0:
            # empty reference: perfect only if the hypothesis is empty too
            return 0.0 if self.errors == 0 else float("inf")
        return self.errors / self.ref_len

    def __add__(self, other: "WerBreakdown") -> "WerBreakdown":
        return WerBreakdown(
            self.substitutions + other.substitutions,
            self.deletions + other.deletions,
            self.insertions + other.insertions,
            self.ref_len + other.ref_len,
        )


def wer(ref: Sequence, hyp: Sequence) -> WerBreakdown:
    """Edit-distance alignment of hyp against ref with unit costs.

    Ties between minimum-cost moves are broken in a fixed order:
    match/substitution, then deletion, then insertion.
    """
    ref = tuple(ref)
    hyp = tuple(hyp)
    n, m = len(ref), len(hyp)
    d = np.zeros((n + 1, m + 1), dtype=np.int64)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            dele = d[i - 1, j] + 1
            ins = d[i, j - 1] + 1
            d[i, j] = min(sub, dele, ins)
    subs = dels = inss = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            sub = d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            if d[i, j] == sub:
                subs += ref[i - 1] != hyp[j - 1]
                i -= 1
                j -= 1
                continue
        if i > 0 and d[i, j] == d[i - 1, j] + 1:
            dels += 1
            i -= 1
            continue
        inss += 1
        j -= 1
    return WerBreakdown(int(subs), dels, inss, n)


def corpus_wer(pairs: Sequence[tuple[Sequence, Sequence]]) -> WerBreakdown:
    """Pool error counts over (ref, hyp) pairs before dividing."""
    total = WerBreakdown(0, 0, 0, 0)
    for ref, hyp in pairs:
        total = total + wer(ref, hyp)
    return total


@dataclass(frozen=True)
class LatencyReport:
    """Mean commit timestamp over every displayed token of an utterance set."""

    mean_output_time_sec: float
    token_count: int
    utt_ids: frozenset

    def __post_init__(self) -> None:
        if self.token_count < 0:
            raise ContractViolation("token_count must be >= 0")


def mean_output_time(logs: Mapping[str, CommitLog]) -> LatencyReport:
    """Average output timestamp pooled over all tokens of all logs."""
    total = 0.0
    count = 0
    for log in logs.values():
        for entry in log.entries:
            total += entry.output_time_sec
            count += 1
    if count == 0:
        raise UndefinedMetric("no committed tokens; mean output time undefined")
    return LatencyReport(total / count, count, frozenset(logs.keys()))


def latency_delta(a: LatencyReport, b: LatencyReport) -> float:
    """Mean-output-time difference a - b over the same utterance set.

    Terms that depend only on the input stream (not on commit times) are
    identical for both systems and cancel, so this difference needs no
    per-token ground-truth timing. Token counts may differ.
    """
    if a.utt_ids != b.utt_ids:
        raise ContractViolation(
            "latency delta requires the same utterance set on both sides"
        )
    return a.mean_output_time_sec - b.mean_output_time_sec


def score_logs(
    utts: Sequence[Utterance], logs: Mapping[str, CommitLog]
) -> tuple[WerBreakdown, LatencyReport | None]:
    """Corpus WER and mean output time of commit logs over an utterance set.

    Each utterance's committed tokens are scored against its output side
    (``eval_tokens``); an utterance without a log committed nothing. Latency
    pools the tokens of these utterances' logs only, and is None when they
    committed none. Logs of other utterances are ignored.
    """
    scored = {u.id: logs.get(u.id, CommitLog()) for u in utts}
    breakdown = corpus_wer([(eval_tokens(u), scored[u.id].tokens) for u in utts])
    if not any(scored.values()):
        return breakdown, None
    return breakdown, mean_output_time(scored)
