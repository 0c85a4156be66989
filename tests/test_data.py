import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamdec.core import ConfigError, Utterance
from streamdec.data import (
    SyntheticTaskSpec,
    gen_dataset,
    gen_with_alignments,
    make_partial_pair,
    prototypes,
    task_vocab,
    translation_map,
)


class TestTaskSpec:
    def test_defaults_valid(self):
        SyntheticTaskSpec()

    def test_validation(self):
        with pytest.raises(ConfigError):
            SyntheticTaskSpec(vocab_size=3)
        with pytest.raises(ConfigError):
            SyntheticTaskSpec(min_tokens=0)
        with pytest.raises(ConfigError):
            SyntheticTaskSpec(min_tokens=5, max_tokens=4)
        with pytest.raises(ConfigError):
            SyntheticTaskSpec(noise_std=-0.1)

    def test_min_frames_above_max_rejected(self):
        with pytest.raises(ConfigError, match="min/max frames per token"):
            SyntheticTaskSpec(min_frames_per_token=9, max_frames_per_token=8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["noise_std", "frame_period_sec"])
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(ConfigError, match="finite"):
            SyntheticTaskSpec(**{field: bad})

    @pytest.mark.parametrize("field, value, match", [
        ("vocab_size", 4.5, "must be an integer"),
        ("max_frames_per_token", "30", "must be an integer"),
        ("noise_std", None, "must be a number"),
        ("translation", "no", "true or false"),
        ("world_seed", -1, "world_seed must be >= 0"),
    ])
    def test_ill_typed_config(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            SyntheticTaskSpec(**{field: value})

    @pytest.mark.parametrize("seed, match", [
        (-3, "seed must be >= 0"), (1.5, "seed must be an integer"),
    ])
    def test_bad_dataset_seed_rejected(self, seed, match):
        with pytest.raises(ConfigError, match=match):
            gen_with_alignments(SyntheticTaskSpec(), 1, seed)

    def test_vocab_sides(self):
        spec = SyntheticTaskSpec(vocab_size=5)
        assert "w00" in task_vocab(spec).tokens
        spec_t = SyntheticTaskSpec(vocab_size=5, translation=True)
        assert "v00" in task_vocab(spec_t).tokens


class TestGeneration:
    def test_same_seed_identical(self):
        spec = SyntheticTaskSpec(vocab_size=6)
        a = gen_dataset(spec, 5, seed=9)
        b = gen_dataset(spec, 5, seed=9)
        for ua, ub in zip(a, b):
            assert ua.id == ub.id
            assert ua.reference_tokens == ub.reference_tokens
            np.testing.assert_array_equal(ua.frames, ub.frames)

    def test_different_seeds_share_world(self):
        # prototypes and the translation map come from the task, not the draw
        spec = SyntheticTaskSpec(vocab_size=6, translation=True)
        np.testing.assert_array_equal(prototypes(spec), prototypes(spec))
        np.testing.assert_array_equal(translation_map(spec), translation_map(spec))
        a = gen_dataset(spec, 3, seed=1)
        b = gen_dataset(spec, 3, seed=2)
        assert {u.id for u in a}.isdisjoint({u.id for u in b})

    def test_zero_noise_exact_prototype_repeats(self):
        spec = SyntheticTaskSpec(vocab_size=6, noise_std=0.0)
        utts, aligns = gen_with_alignments(spec, 4, seed=2)
        protos = prototypes(spec)
        vocab = task_vocab(spec)
        for u in utts:
            align = aligns[u.id]
            start = 0
            for tok_id, end in zip(align.token_ids, align.span_ends):
                word = vocab.token_of(tok_id)
                proto = protos[int(word[1:])]
                np.testing.assert_array_equal(
                    u.frames[start:end], np.tile(proto, (end - start, 1))
                )
                start = end

    def test_token_count_range(self):
        spec = SyntheticTaskSpec(vocab_size=8, min_tokens=1, max_tokens=12)
        utts = gen_dataset(spec, 200, seed=5)
        assert all(1 <= len(u.reference_tokens) <= 12 for u in utts)

    def test_alignment_consistency(self):
        spec = SyntheticTaskSpec(vocab_size=6)
        utts, aligns = gen_with_alignments(spec, 10, seed=3)
        for u in utts:
            a = aligns[u.id]
            assert a.total_frames == u.n_frames
            assert len(a.token_ids) == len(a.span_ends) == len(u.reference_tokens)
            assert a.span_ends[-1] == u.n_frames
            assert all(e2 > e1 for e1, e2 in zip(a.span_ends, a.span_ends[1:]))
            durs = np.diff((0,) + a.span_ends)
            assert all(
                spec.min_frames_per_token <= d <= spec.max_frames_per_token
                for d in durs
            )

    def test_translation_targets(self):
        spec = SyntheticTaskSpec(vocab_size=6, translation=True)
        utts, aligns = gen_with_alignments(spec, 20, seed=7)
        perm = translation_map(spec)
        vocab = task_vocab(spec)
        for u in utts:
            assert u.target_tokens is not None
            assert len(u.target_tokens) == len(u.reference_tokens)
            # target multiset = permutation applied to source multiset
            mapped = sorted(f"v{perm[int(w[1:])]:02d}" for w in u.reference_tokens)
            assert sorted(u.target_tokens) == mapped
            # the hidden alignment emits the target side
            assert tuple(vocab.token_of(t) for t in aligns[u.id].token_ids) == tuple(
                u.target_tokens
            )

    def test_non_translation_has_no_targets(self):
        utts = gen_dataset(SyntheticTaskSpec(vocab_size=6), 2, seed=1)
        assert all(u.target_tokens is None for u in utts)


class TestPartialPair:
    def _utt(self, n_frames: int, tokens: tuple[str, ...]) -> Utterance:
        return Utterance("u", np.zeros((n_frames, 2)), tokens)

    def test_ceiling_example_quarter(self):
        frames, toks = make_partial_pair(self._utt(10, ("a", "b", "c", "d")), 0.25)
        assert len(frames) == 3 and len(toks) == 1

    def test_full_ratio_is_identity(self):
        u = self._utt(7, ("a", "b", "c"))
        frames, toks = make_partial_pair(u, 1.0)
        assert len(frames) == 7 and toks == ("a", "b", "c")

    def test_ceiling_example_point_four(self):
        frames, toks = make_partial_pair(self._utt(7, ("a", "b", "c")), 0.4)
        assert len(frames) == 3 and len(toks) == 2

    def test_float_dust_tolerated(self):
        # 10 * 0.1 must give exactly 1 frame even if the product is 1.0000000000000002
        frames, toks = make_partial_pair(self._utt(10, ("a",) * 10), 0.1)
        assert len(frames) == 1 and len(toks) == 1

    def test_target_side_when_present(self):
        u = Utterance("u", np.zeros((8, 2)), ("a", "b"), target_tokens=("x", "y", "z"))
        _, toks = make_partial_pair(u, 0.5)
        assert toks == ("x", "y")

    def test_invalid_ratio(self):
        with pytest.raises(ConfigError):
            make_partial_pair(self._utt(5, ("a",)), 0.0)
        with pytest.raises(ConfigError):
            make_partial_pair(self._utt(5, ("a",)), 1.5)

    @pytest.mark.parametrize("p", [True, "0.5", None])
    def test_ill_typed_ratio(self, p):
        with pytest.raises(ConfigError, match="ratio p must be a number"):
            make_partial_pair(self._utt(5, ("a",)), p)

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_ceiling_law(self, n_frames, n_tokens, p):
        u = self._utt(n_frames, ("a",) * n_tokens)
        frames, toks = make_partial_pair(u, p)
        assert 1 <= len(frames) <= n_frames
        assert 1 <= len(toks) <= n_tokens
        # a prefix, never a re-draw
        assert toks == u.reference_tokens[: len(toks)]
