import re
from dataclasses import MISSING, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamdec.core import Chunk, ConfigError
from streamdec.strategies import (
    STRATEGIES,
    HoldN,
    LocalAgreement,
    Offline,
    WaitK,
    lcp,
    parse_strategy,
    select_prefix,
)

from .oracles import reference_commits

tokens = st.lists(st.sampled_from("abcdexyz"), max_size=10).map(tuple)

# valid values for each parameter type a strategy spec can take
FIELD_VALUES = {
    "int": st.integers(min_value=0, max_value=6),
    "float": st.floats(min_value=0.25, max_value=16.0),
}


def field_values(cls):
    """Valid positional arguments for a table entry: every required field
    and any number of the optional ones after them."""
    fs = fields(cls)
    required = sum(f.default is MISSING for f in fs)
    return st.integers(min_value=required, max_value=len(fs)).flatmap(
        lambda n: st.tuples(*(FIELD_VALUES[f.type] for f in fs[:n]))
    )


class CountingW:
    """A continuation function that counts its calls."""

    def __init__(self, w):
        self.w, self.calls = w, 0

    def __call__(self):
        self.calls += 1
        return self.w


def chunk(index, chunk_len_sec=0.5, is_final=False):
    """Chunk ``index`` of a stream of ``chunk_len_sec`` chunks, one frame
    each: a rule reads only its index and length."""
    return Chunk("u", index, index - 1, index, chunk_len_sec, is_final)


strategy_classes = st.sampled_from(list(STRATEGIES.values()))
configs = strategy_classes.flatmap(
    lambda cls: field_values(cls).map(lambda args: cls(*args))
)
# each rule's own kind of carried state: None before its first chunk, then
# wait-k's budget or local agreement's uncommitted tail
OWN_STATES = {WaitK: st.floats(0.0, 4.0), LocalAgreement: tokens}
configs_and_states = configs.flatmap(
    lambda cfg: st.tuples(
        st.just(cfg), st.none() | OWN_STATES.get(type(cfg), st.none())
    )
)


class TestHoldN:
    def test_delete_last_two(self):
        out, _ = HoldN(2).select(lambda: ("a", "b", "c", "d", "e"), chunk(1), None)
        assert out == ("a", "b", "c")

    def test_n_exceeds_length(self):
        assert HoldN(5).select(lambda: ("a", "b"), chunk(1), None)[0] == ()

    def test_hold_zero_is_identity(self):
        out, _ = HoldN(0).select(lambda: ("a", "b", "c"), chunk(1), None)
        assert out == ("a", "b", "c")

    @given(tokens, st.integers(min_value=0, max_value=12))
    def test_length_law(self, w, n):
        out = HoldN(n).select(lambda: w, chunk(1), None)[0]
        assert len(out) == max(0, len(w) - n)
        assert out == w[: len(out)]

    def test_negative_n_rejected(self):
        with pytest.raises(ConfigError):
            HoldN(-1)

    @pytest.mark.parametrize("n", [1.5, True, "2"])
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(ConfigError, match="must be an integer"):
            HoldN(n)


class TestWaitK:
    def test_holds_first_k_chunks(self):
        out, state = WaitK(1, 8.0).select(lambda: ("a", "b", "c"), chunk(1), None)
        assert out == ()
        assert state is None  # untouched while waiting

    def test_reads_no_w_while_waiting_or_under_one_token(self):
        """Wait-k reads no continuation while it waits its k chunks or while
        its budget is under one token, so the session decodes no such chunk."""
        cfg, state = WaitK(2, 1.0), None
        for c in (1, 2, 3):
            w = CountingW(("a", "b"))
            out, state = cfg.select(w, chunk(c), state)
            assert (out, w.calls) == ((), 0)
        assert state == pytest.approx(0.5)  # chunk 3 banked half a token
        w = CountingW(("a", "b"))
        assert cfg.select(w, chunk(4), state)[0] == ("a",) and w.calls == 1
        w = CountingW(("a", "b"))
        assert WaitK(0, 2.0).select(w, chunk(1), None)[0] == ("a",)
        assert w.calls == 1

    def test_big_budget_emits_everything(self):
        out, state = WaitK(1, 8.0).select(lambda: ("a",), chunk(2), None)
        assert out == ("a",)

    def test_fractional_budget_carries(self):
        out, state = WaitK(0, 2.0).select(lambda: ("a", "b", "c"), chunk(2), None)
        assert out == ("a",)
        assert state == pytest.approx(0.0)

    def test_budget_accumulates_across_chunks(self):
        state = None
        # rate 1 tok/s, 0.5 s chunks: half a token of budget per chunk
        out1, state = WaitK(0, 1.0).select(lambda: ("a", "b"), chunk(1), state)
        assert out1 == ()
        assert state == pytest.approx(0.5)
        out2, state = WaitK(0, 1.0).select(lambda: ("a", "b"), chunk(2), state)
        assert out2 == ("a",)
        assert state == pytest.approx(0.0)

    def test_short_continuation_keeps_surplus(self):
        out, state = WaitK(0, 6.0).select(lambda: ("a",), chunk(1), None)
        assert out == ("a",)
        assert state == pytest.approx(2.0)

    @given(
        tokens,
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=0.1, max_value=16.0),
    )
    def test_budget_never_negative(self, w, c, k, rate):
        out, state = WaitK(k, rate).select(lambda: w, chunk(c), None)
        assert state is None if c <= k else state >= 0.0
        assert out == w[: len(out)]

    def test_float_dust_counts_as_whole_token(self):
        out, state = WaitK(0, 1e-12).select(
            lambda: ("a", "b", "c", "d", "e"), chunk(1), 3.9999999996
        )
        assert len(out) >= 4

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            WaitK(k=-1)
        with pytest.raises(ConfigError):
            WaitK(k=1, rate=0.0)

    @pytest.mark.parametrize("k, rate, match", [
        (1.5, 4.0, "must be an integer"),
        (False, 4.0, "must be an integer"),
        (1, "4", "must be a number"),
        (1, True, "must be a number"),
    ])
    def test_ill_typed_config(self, k, rate, match):
        with pytest.raises(ConfigError, match=match):
            WaitK(k, rate)


class TestLcp:
    def test_examples(self):
        assert lcp(("a", "b", "c"), ("a", "b", "d")) == ("a", "b")
        assert lcp((), ("a",)) == ()
        assert lcp(("a", "b"), ("a", "b")) == ("a", "b")

    @given(tokens, tokens)
    def test_lcp_laws(self, a, b):
        p = lcp(a, b)
        assert a[: len(p)] == p and b[: len(p)] == p
        if len(p) < len(a) and len(p) < len(b):
            assert a[len(p)] != b[len(p)]


class TestLocalAgreement:
    def test_first_chunk_buffers(self):
        out, state = LocalAgreement().select(lambda: ("a", "b"), chunk(1), None)
        assert out == ()
        assert state == ("a", "b")

    def test_second_chunk_commits_agreement(self):
        out, state = LocalAgreement().select(lambda: ("a", "b", "c"), chunk(2), ("a", "b"))
        assert out == ("a", "b")
        assert state == ("c",)

    def test_no_agreement(self):
        out, state = LocalAgreement().select(lambda: ("x", "y"), chunk(2), ("a", "b"))
        assert out == ()
        assert state == ("x", "y")

    @given(tokens, tokens)
    def test_commit_appeared_in_both(self, prev, cur):
        out, _ = LocalAgreement().select(lambda: cur, chunk(2), prev)
        assert out == prev[: len(out)]
        assert out == cur[: len(out)]


class TestSelectPrefix:
    def test_hold_n_dispatch(self):
        out, _ = select_prefix(HoldN(2), None, chunk(1), lambda: ("a", "b", "c"))
        assert out == ("a",)

    def test_final_flush_overrides_strategy(self):
        out, _ = select_prefix(HoldN(2), None, chunk(1, is_final=True), lambda: ("a", "b", "c"))
        assert out == ("a", "b", "c")

    def test_offline_non_final(self):
        out, _ = select_prefix(Offline(), None, chunk(3), lambda: ("a", "b"))
        assert out == ()

    def test_offline_final(self):
        out, _ = select_prefix(Offline(), None, chunk(3, is_final=True), lambda: ("a", "b"))
        assert out == ("a", "b")

    def test_hold_n_and_local_agreement_read_w_offline_does_not(self):
        """hold-n and local agreement read the continuation on every chunk,
        offline never on a non-final one."""
        for cfg, want in ((HoldN(0), 1), (LocalAgreement(), 1), (Offline(), 0)):
            w = CountingW(("a",))
            select_prefix(cfg, None, chunk(1), w)
            assert w.calls == want

    def test_wait_k_uses_chunk_len(self):
        # 1 s chunks double the per-chunk budget relative to 0.5 s
        out, _ = select_prefix(
            WaitK(k=0, rate=2.0), None, chunk(1, chunk_len_sec=1.0), lambda: ("a", "b", "c")
        )
        assert out == ("a", "b")

    @given(
        configs_and_states,
        st.integers(min_value=1, max_value=6),
        st.booleans(),
        tokens,
    )
    def test_prefix_law(self, cfg_state, index, is_final, w):
        cfg, state = cfg_state
        c = chunk(index, is_final=is_final)
        out, new_state = select_prefix(cfg, state, c, lambda: w)
        assert out == w[: len(out)]
        # determinism: same inputs, same outputs
        again, again_state = select_prefix(cfg, state, c, lambda: w)
        assert again == out and again_state == new_state

    @given(
        configs_and_states,
        st.integers(min_value=1, max_value=8),
        st.sampled_from([0.1, 0.25, 0.5, 1.0]),
        tokens,
    )
    def test_unread_continuation_commits_nothing(
        self, cfg_state, index, chunk_len_sec, w
    ):
        """The session decodes a chunk only when its rule reads w, so a
        non-final chunk whose rule never calls w must commit nothing."""
        cfg, state = cfg_state
        reads = CountingW(w)
        out, _ = select_prefix(cfg, state, chunk(index, chunk_len_sec), reads)
        if not reads.calls:
            assert out == ()

    def test_chunked_session_trace_local_agreement(self):
        # scripted two-chunk session: chunk 1 buffers, chunk 2 flushes all
        state = None
        c1, state = select_prefix(LocalAgreement(), state, chunk(1), lambda: ("a", "b"))
        c2, state = select_prefix(
            LocalAgreement(), state, chunk(2, is_final=True), lambda: ("a", "b", "c")
        )
        assert c1 == ()
        assert c2 == ("a", "b", "c")

    @given(
        configs,
        # two token kinds, so consecutive continuations often agree
        st.lists(st.lists(st.sampled_from("ab"), max_size=6).map(tuple),
                 min_size=1, max_size=8),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_session_equals_reference(self, cfg, conts, chunk_len_sec):
        """Chunk by chunk, the rules commit what the rule table says they
        do: ``oracles.reference_commits``, which shares no code with them,
        gets the continuations the rules read and None for the others."""
        state, commits, seen = None, [], []
        for index, cont in enumerate(conts, start=1):
            c = chunk(index, chunk_len_sec, is_final=index == len(conts))
            reads = CountingW(cont)
            out, state = select_prefix(cfg, state, c, reads)
            commits.append(out)
            seen.append(cont if reads.calls else None)
        assert commits == reference_commits(cfg, seen, chunk_len_sec)


class TestNamesAndParsing:
    def test_table_is_keyed_by_name(self):
        assert list(STRATEGIES) == ["hold-n", "wait-k", "local-agreement", "offline"]
        for name, cls in STRATEGIES.items():
            assert cls.name == name

    def test_params_text(self):
        assert HoldN(3).params == "n=3"
        assert WaitK(1, 4.0).params == "k=1 r=4"
        assert WaitK(2, 2.5).params == "k=2 r=2.5"
        assert LocalAgreement().params == ""
        assert Offline().params == ""

    def test_parse_specs(self):
        assert parse_strategy("hold-n:4") == HoldN(4)
        assert parse_strategy("hold-0") == HoldN(0)
        assert parse_strategy("hold-n:0") == HoldN(0)
        assert parse_strategy("wait-k") == WaitK(1, 4.0)
        assert parse_strategy("wait-k:2") == WaitK(2, 4.0)
        assert parse_strategy("wait-k:2:3.0") == WaitK(2, 3.0)
        assert parse_strategy("wait-k:1:4") == WaitK(1, 4.0)
        assert parse_strategy("local-agreement") == LocalAgreement()
        assert parse_strategy("offline") == Offline()

    def test_usage(self):
        assert [c.usage() for c in STRATEGIES.values()] == [
            "hold-n:N", "wait-k[:K[:RATE]]", "local-agreement", "offline",
        ]

    @given(strategy_classes.flatmap(lambda c: st.tuples(st.just(c), field_values(c))))
    def test_parse_round_trip(self, entry):
        cls, args = entry
        cfg = parse_strategy(":".join([cls.name, *map(str, args)]))
        assert type(cfg) is cls
        assert cfg == cls(*args)
        for f, v in zip(fields(cls), args):
            assert getattr(cfg, f.name) == v

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus", "", "HOLD-N:3", "Offline", "hold-n", "hold-n:", "hold-n:x",
            "hold-n:1.5", "hold-n:-1", "hold-n:2:3", "hold-0:1", "wait-k:1:fast",
            "wait-k:x", "wait-k:1:0", "wait-k:1:nan", "wait-k:1:inf",
            "wait-k:1:4:9", "local-agreement:5", "offline:9",
        ],
    )
    def test_malformed_spec_names_it(self, spec):
        with pytest.raises(ConfigError, match=re.escape(repr(spec))):
            parse_strategy(spec)

    def test_non_strategy_rejected(self):
        for cfg in ("hold-n:0", None, object()):
            with pytest.raises(ConfigError):
                select_prefix(cfg, None, chunk(1, is_final=True), lambda: ("a",))
