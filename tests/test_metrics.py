import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamdec.core import CommitLog, ContractViolation, UndefinedMetric, Utterance
from streamdec.metrics import (
    LatencyReport,
    WerBreakdown,
    corpus_wer,
    latency_delta,
    mean_output_time,
    score_logs,
    wer,
)

from .oracles import wer_oracle

tokens = st.lists(st.sampled_from("abcde"), max_size=12).map(tuple)


class TestWer:
    def test_perfect_match(self):
        b = wer(("a", "b", "c"), ("a", "b", "c"))
        assert (b.substitutions, b.deletions, b.insertions) == (0, 0, 0)
        assert b.rate == 0.0

    def test_single_substitution(self):
        b = wer(("a", "b", "c"), ("a", "x", "c"))
        assert b.substitutions == 1 and b.errors == 1
        assert b.rate == pytest.approx(1 / 3)

    def test_deletion_and_insertion(self):
        assert wer(("a", "b"), ("a",)).deletions == 1
        assert wer(("a",), ("a", "b")).insertions == 1

    def test_empty_cases(self):
        assert wer((), ()).rate == 0.0
        assert wer((), ("a",)).rate == math.inf
        b = wer(("a", "b"), ())
        assert b.deletions == 2 and b.rate == 1.0

    def test_rate_can_exceed_one(self):
        b = wer(("a",), ("x", "y", "z"))
        assert b.rate > 1.0

    @given(tokens, tokens)
    def test_matches_recursive_oracle(self, ref, hyp):
        b = wer(ref, hyp)
        assert (b.substitutions, b.deletions, b.insertions) == wer_oracle(ref, hyp)

    def test_500_random_pairs_match_oracle(self):
        rng = random.Random(99)
        words = ["a", "b", "c", "d", "e", "f"]
        for _ in range(500):
            ref = tuple(rng.choice(words) for _ in range(rng.randint(0, 12)))
            hyp = tuple(rng.choice(words) for _ in range(rng.randint(0, 12)))
            b = wer(ref, hyp)
            assert (b.substitutions, b.deletions, b.insertions) == wer_oracle(ref, hyp)

    @given(tokens, tokens)
    def test_error_count_is_edit_distance_bounds(self, ref, hyp):
        b = wer(ref, hyp)
        assert b.errors >= abs(len(ref) - len(hyp))
        assert b.errors <= max(len(ref), len(hyp))


class TestCorpusWer:
    def test_pools_counts_not_rates(self):
        # one perfect long pair + one bad short pair: pooled rate weighs by length
        pooled = corpus_wer([(("a",) * 9, ("a",) * 9), (("b",), ("x",))])
        assert pooled.errors == 1 and pooled.ref_len == 10
        assert pooled.rate == pytest.approx(0.1)

    def test_breakdown_addition(self):
        a = WerBreakdown(1, 2, 3, 10)
        b = WerBreakdown(4, 5, 6, 20)
        assert a + b == WerBreakdown(5, 7, 9, 30)


def _log(times: list[tuple[str, int]], chunk_len: float = 0.5) -> CommitLog:
    log = CommitLog()
    for token, chunk in times:
        log.commit([token], chunk, chunk_len)
    return log


class TestLatency:
    def test_mean_over_all_tokens(self):
        logs = {
            "u1": _log([("a", 1), ("b", 2)]),
            "u2": _log([("c", 4)]),
        }
        rep = mean_output_time(logs)
        assert rep.mean_output_time_sec == pytest.approx((0.5 + 1.0 + 2.0) / 3)
        assert rep.token_count == 3
        assert rep.utt_ids == frozenset({"u1", "u2"})

    def test_empty_logs_undefined(self):
        with pytest.raises(UndefinedMetric):
            mean_output_time({"u1": CommitLog()})

    def test_token_identity_irrelevant(self):
        a = mean_output_time({"u": _log([("a", 1), ("b", 3)])})
        b = mean_output_time({"u": _log([("x", 1), ("y", 3)])})
        assert a.mean_output_time_sec == b.mean_output_time_sec

    def test_delta_self_is_zero(self):
        rep = mean_output_time({"u": _log([("a", 2)])})
        assert latency_delta(rep, rep) == 0.0

    def test_delta_antisymmetric(self):
        a = mean_output_time({"u": _log([("a", 1)])})
        b = mean_output_time({"u": _log([("a", 5)])})
        assert latency_delta(a, b) == -latency_delta(b, a)

    def test_delta_requires_same_utterances(self):
        a = mean_output_time({"u1": _log([("a", 1)])})
        b = mean_output_time({"u2": _log([("a", 1)])})
        with pytest.raises(ContractViolation):
            latency_delta(a, b)

    def test_token_counts_may_differ(self):
        a = mean_output_time({"u": _log([("a", 1), ("b", 1)])})
        b = mean_output_time({"u": _log([("a", 3)])})
        assert latency_delta(a, b) == pytest.approx(0.5 - 1.5)

    @given(
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=20),
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=20),
    )
    def test_stream_terms_cancel_in_delta(self, chunks_a, chunks_b):
        """With fabricated per-token reference end times, the delta of raw
        mean output times equals the delta of mean lags computed against
        those end times: the end-time term cancels exactly."""
        # same token count on both sides so the fabricated ends pair up
        n = min(len(chunks_a), len(chunks_b))
        chunks_a, chunks_b = chunks_a[:n], chunks_b[:n]
        ends = [0.123 * (i + 1) for i in range(n)]
        log_a = _log([("t", c) for c in sorted(chunks_a)])
        log_b = _log([("t", c) for c in sorted(chunks_b)])
        rep_a = mean_output_time({"u": log_a})
        rep_b = mean_output_time({"u": log_b})
        raw_delta = latency_delta(rep_a, rep_b)
        lag_a = sum(e.output_time_sec - t for e, t in zip(log_a.entries, ends)) / n
        lag_b = sum(e.output_time_sec - t for e, t in zip(log_b.entries, ends)) / n
        assert raw_delta == pytest.approx(lag_a - lag_b, abs=1e-12)


def _utt(utt_id, ref, tgt=None):
    return Utterance(utt_id, np.zeros((3, 2)), ref, target_tokens=tgt)


class TestScoreLogs:
    def test_wer_and_latency_over_the_utterances(self):
        utts = [_utt("u1", ("a", "b")), _utt("u2", ("c",))]
        logs = {
            "u1": _log([("a", 1), ("x", 2)]),
            "u2": _log([("c", 4)]),
            "stray": _log([("z", 40)]),
        }
        breakdown, rep = score_logs(utts, logs)
        assert breakdown == corpus_wer([(("a", "b"), ("a", "x")), (("c",), ("c",))])
        assert rep == mean_output_time({"u1": logs["u1"], "u2": logs["u2"]})

    def test_missing_log_is_all_deletions(self):
        utts = [_utt("u1", ("a",)), _utt("u2", ("b", "c"))]
        breakdown, rep = score_logs(utts, {"u1": _log([("a", 2)])})
        assert breakdown == WerBreakdown(0, 2, 0, 3)
        assert rep.token_count == 1
        assert rep.utt_ids == frozenset({"u1", "u2"})

    def test_no_commits_gives_wer_and_no_latency(self):
        utts = [_utt("u1", ("a", "b"))]
        logs = {"u1": CommitLog(), "stray": _log([("a", 1)])}
        breakdown, rep = score_logs(utts, logs)
        assert breakdown.rate == 1.0
        assert rep is None

    def test_target_side_is_scored(self):
        utts = [_utt("u1", ("a", "b"), tgt=("p", "q"))]
        breakdown, _ = score_logs(utts, {"u1": _log([("p", 1), ("q", 1)])})
        assert breakdown.rate == 0.0


class TestLatencyReport:
    def test_negative_count_rejected(self):
        with pytest.raises(ContractViolation):
            LatencyReport(0.0, -1, frozenset())
