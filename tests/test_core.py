import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamdec.core import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    Chunk,
    ChunkOutput,
    CommitLog,
    ConfigError,
    ContractViolation,
    TimedToken,
    Utterance,
    Vocab,
    check_bool,
    check_real,
    chunk_stream,
    frames_per_chunk,
    output_time,
)


class TestVocab:
    def test_reserved_ids(self):
        v = Vocab.build(["b", "a"])
        assert v.token_of(PAD_ID) == "<pad>"
        assert v.token_of(BOS_ID) == "<s>"
        assert v.token_of(EOS_ID) == "</s>"

    def test_build_sorts_and_dedups(self):
        v = Vocab.build(["b", "a", "b"])
        assert v.tokens == ("<pad>", "<s>", "</s>", "a", "b")

    def test_round_trip(self):
        v = Vocab.build(["x", "y", "z"])
        for i in range(len(v)):
            assert v.id_of(v.token_of(i)) == i

    def test_encode_decode(self):
        v = Vocab.build(["x", "y"])
        ids = v.encode(("y", "x", "y"))
        assert v.decode(ids) == ("y", "x", "y")

    def test_unknown_token_raises(self):
        v = Vocab.build(["x"])
        with pytest.raises(ContractViolation):
            v.id_of("nope")
        with pytest.raises(ContractViolation):
            v.token_of(99)

    def test_word_ids_excludes_reserved(self):
        v = Vocab.build(["x", "y"])
        assert list(v.word_ids()) == [3, 4]

    def test_repeated_surface_form_rejected(self):
        with pytest.raises(ConfigError, match="duplicate surface forms"):
            Vocab(("<pad>", "<s>", "</s>", "a", "b", "a"))

    def test_reserved_first_enforced(self):
        with pytest.raises(ConfigError):
            Vocab(("a", "<s>", "</s>"))

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=4), min_size=0, max_size=20))
    def test_round_trip_property(self, words):
        v = Vocab.build(words)
        surfaces = tuple(sorted(set(words)))
        assert v.decode(v.encode(surfaces)) == surfaces


class TestUtterance:
    def test_basic(self):
        u = Utterance("u1", np.zeros((30, 4)), ("a", "b"))
        assert u.n_frames == 30
        assert u.duration_sec == pytest.approx(0.3)

    def test_frames_must_be_2d(self):
        with pytest.raises(ConfigError):
            Utterance("u1", np.zeros(30), ("a",))

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_empty_stream_rejected(self, shape):
        """A stream with no frames, or frames of no width, has nothing to
        decode; it would otherwise stream to an empty log without error."""
        with pytest.raises(ConfigError, match="at least one frame"):
            Utterance("u1", np.zeros(shape), ("a",))

    def test_bad_frame_period(self):
        with pytest.raises(ConfigError):
            Utterance("u1", np.zeros((3, 2)), ("a",), frame_period_sec=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_period_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            Utterance("u1", np.zeros((3, 2)), ("a",), frame_period_sec=bad)

    @pytest.mark.parametrize("value, match", [
        (True, "frame_period_sec must be a number"),
        ("0.01", "frame_period_sec must be a number"),
    ])
    def test_ill_typed_frame_period(self, value, match):
        with pytest.raises(ConfigError, match=match):
            Utterance("u1", np.zeros((3, 2)), ("a",), frame_period_sec=value)

    @pytest.mark.parametrize("token", ["<pad>", "<s>", "</s>"])
    @pytest.mark.parametrize("side", ["reference_tokens", "target_tokens"])
    def test_reserved_token_rejected(self, token, side):
        """A reserved token in a transcript is neither a word the model can
        emit nor one it should learn mid-sentence."""
        with pytest.raises(ConfigError, match=f"{side} holds reserved token '{token}'"):
            Utterance("u1", np.zeros((3, 2)), **{"reference_tokens": ("a",), side: ("a", token, "b")})

    @pytest.mark.parametrize("side", ["reference_tokens", "target_tokens"])
    @pytest.mark.parametrize("tokens", ["abc", ("a", 3), 5], ids=["string", "non-string", "int"])
    def test_tokens_must_be_a_sequence_of_strings(self, side, tokens):
        """A string is refused, not split into its characters."""
        with pytest.raises(ConfigError, match=f"{side} must be a sequence of strings"):
            Utterance("u1", np.zeros((3, 2)), **{"reference_tokens": ("a",), side: tokens})

    @pytest.mark.parametrize("utt_id", [5, None, ("u",)], ids=["int", "none", "tuple"])
    def test_id_must_be_a_string(self, utt_id):
        with pytest.raises(ConfigError, match="id must be a string"):
            Utterance(utt_id, np.zeros((3, 2)), ("a",))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frames_rejected(self, bad):
        frames = np.zeros((3, 2))
        frames[1, 0] = bad
        with pytest.raises(ConfigError, match="finite"):
            Utterance("u1", frames, ("a",))


class TestChunkStream:
    def test_exact_division(self):
        chunks = chunk_stream(np.zeros((100, 3)), 0.5, 0.01)
        assert [(c.start, c.end) for c in chunks] == [(0, 50), (50, 100)]
        assert [c.is_final for c in chunks] == [False, True]
        assert [c.index for c in chunks] == [1, 2]

    def test_remainder_chunk(self):
        chunks = chunk_stream(np.zeros((101, 3)), 0.5, 0.01)
        assert [(c.end - c.start) for c in chunks] == [50, 50, 1]
        assert chunks[-1].is_final and not chunks[0].is_final

    def test_empty_input(self):
        assert chunk_stream(np.zeros((0, 3)), 0.5, 0.01) == []

    def test_non_multiple_chunk_len(self):
        with pytest.raises(ConfigError):
            frames_per_chunk(0.505, 0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["chunk", "period"])
    def test_non_finite_lengths_rejected(self, bad, which):
        args = (bad, 0.01) if which == "chunk" else (0.5, bad)
        with pytest.raises(ConfigError, match="finite"):
            frames_per_chunk(*args)

    @pytest.mark.parametrize("args, match", [
        ((True, 0.01), "chunk_len_sec must be a number"),
        ((0.5, True), "frame_period_sec must be a number"),
    ])
    def test_ill_typed_lengths(self, args, match):
        with pytest.raises(ConfigError, match=match):
            frames_per_chunk(*args)

    def test_frames_per_chunk(self):
        assert frames_per_chunk(0.5, 0.01) == 50
        assert frames_per_chunk(2.0, 0.01) == 200

    @given(st.integers(min_value=0, max_value=10_000))
    def test_partition_property(self, n_frames):
        frames = np.arange(n_frames, dtype=np.float64).reshape(-1, 1)
        chunks = chunk_stream(frames, 0.5, 0.01)
        # contiguous, non-overlapping, covering
        pos = 0
        for c in chunks:
            assert c.start == pos
            assert c.end > c.start
            pos = c.end
        assert pos == n_frames
        if chunks:
            assert all(c.end - c.start == 50 for c in chunks[:-1])
            assert chunks[-1].end - chunks[-1].start <= 50
            assert [c.is_final for c in chunks] == [False] * (len(chunks) - 1) + [True]


class TestChecks:
    @pytest.mark.parametrize("interval, inside, outside", [
        ("(0, inf)", [1e-300, 5, 1e300], [0, -1.0]),
        ("[0, inf)", [0, 0.0, 2.5], [-1e-300]),
        ("(0, 1]", [0.5, 1, 1.0], [0, 1.0000001]),
        ("[0, 1)", [0, 0.999], [1, 1.0, -0.1]),
        ("(-inf, inf)", [-1e300, 0, 1e300], []),
    ])
    def test_interval_ends(self, interval, inside, outside):
        for value in inside:
            check_real("x", value, interval)
        message = rf"^x must be a finite number in {re.escape(interval)}, got"
        for value in outside:
            with pytest.raises(ConfigError, match=message):
                check_real("x", value, interval)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, True, "1", None, 1j])
    def test_check_real_refuses_whatever_the_interval(self, value):
        for interval in ("(-inf, inf)", "[0, inf)", "(0, 1]"):
            with pytest.raises(ConfigError, match="^x must be a"):
                check_real("x", value, interval)

    def test_numpy_scalars_are_real(self):
        check_real("x", np.float64(0.5), "(0, 1]")
        check_real("x", np.int64(1), "(0, 1]")

    @pytest.mark.parametrize("value", [0, 1, "no", None, np.bool_(True)])
    def test_check_bool_refuses_non_bools(self, value):
        with pytest.raises(ConfigError, match="^flag must be true or false"):
            check_bool("flag", value)
        check_bool("flag", True)
        check_bool("flag", False)


class TestOutputTime:
    def test_examples(self):
        assert output_time(3, 0.5) == pytest.approx(1.5)
        assert output_time(1, 0.5) == pytest.approx(0.5)
        assert output_time(10, 2.0) == pytest.approx(20.0)

    def test_zero_index_rejected(self):
        with pytest.raises(ContractViolation):
            output_time(0, 0.5)

    @given(st.integers(min_value=1, max_value=1000), st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    def test_timestamp_law(self, index, chunk_len):
        assert output_time(index, chunk_len) == index * chunk_len


class TestCommitLog:
    def test_commit_two_tokens(self):
        log = CommitLog().commit(["a", "b"], 2, 0.5)
        assert log.entries == (
            TimedToken("a", 2, 1.0),
            TimedToken("b", 2, 1.0),
        )

    def test_empty_commit_is_noop(self):
        log = CommitLog().commit(["a"], 1, 0.5)
        before = log.entries
        log.commit([], 5, 0.5)
        assert log.entries == before

    def test_append_preserves_prior(self):
        log = CommitLog().commit(["a"], 1, 0.5)
        log.commit(["b"], 3, 0.5)
        assert log.entries == (
            TimedToken("a", 1, 0.5),
            TimedToken("b", 3, 1.5),
        )

    def test_decreasing_chunk_rejected(self):
        log = CommitLog().commit(["a"], 3, 0.5)
        with pytest.raises(ContractViolation):
            log.commit(["b"], 2, 0.5)

    def test_append_checks_chunk_order(self):
        log = CommitLog().append(TimedToken("a", 3, 1.5))
        log.append(TimedToken("b", 3, 1.5))
        with pytest.raises(ContractViolation, match="chunk 2 after chunk 3"):
            log.append(TimedToken("c", 2, 1.0))
        assert log == CommitLog().commit(["a", "b"], 3, 0.5)

    def test_tokens_property(self):
        log = CommitLog().commit(["a", "b"], 1, 0.5).commit(["c"], 2, 0.5)
        assert log.tokens == ("a", "b", "c")
        assert len(log) == 3
        assert log.last_chunk_index == 2

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from("abc"), max_size=3),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=8,
        )
    )
    def test_monotonic_growth(self, steps):
        log = CommitLog()
        chunk = 0
        seen = ()
        for tokens, gap in steps:
            chunk += 1 + gap
            before = log.tokens
            log.commit(tokens, chunk, 0.5)
            assert log.tokens[: len(before)] == before
            seen = seen + tuple(tokens)
            assert log.tokens == seen
        for e in log.entries:
            assert e.output_time_sec == e.chunk_index * 0.5


class TestChunkOutput:
    def test_aligned_lengths_required(self):
        with pytest.raises(ContractViolation):
            ChunkOutput(1, ("a", "b"), (0.0,))

    def test_fields(self):
        out = ChunkOutput(2, ("a",), (-0.5,))
        assert out.chunk_index == 2 and out.tokens == ("a",)


class TestChunk:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Chunk("u", 0, 0, 10, 0.5, False)  # 1-based index
        with pytest.raises(ConfigError):
            Chunk("u", 1, 10, 10, 0.5, False)  # empty slice
