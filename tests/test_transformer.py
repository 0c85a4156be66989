import itertools
import json
import math
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamdec import transformer
from streamdec.core import BOS_ID, ConfigError, ContractViolation, Vocab
from streamdec.data import SyntheticTaskSpec, gen_dataset
from streamdec.decoder import BeamConfig, run_session
from streamdec.io import load_model, save_model
from streamdec.strategies import LocalAgreement
from streamdec.transformer import (
    BIDIRECTIONAL,
    UNIDIRECTIONAL,
    DecState,
    TinyTransformer,
    TransformerConfig,
    _attend,
    _dec_in,
    _dec_layer,
    _future,
    _split_qkv,
    init_params,
    leaf_tensors,
    sinusoid_table,
    training_logits,
    training_loss,
)

from .oracles import cache_gap, token_walk, unfolded_forward


@pytest.fixture()
def bidi_model(micro_vocab):
    cfg = TransformerConfig(
        frame_dim=4, vocab_size=len(micro_vocab), d_model=8, heads=2,
        ff_dim=12, enc_layers=1, dec_layers=1, mode=BIDIRECTIONAL, init_seed=5,
    )
    return TinyTransformer(cfg, micro_vocab)


@pytest.fixture()
def deep_model(micro_vocab):
    cfg = TransformerConfig(
        frame_dim=4, vocab_size=len(micro_vocab), d_model=16, heads=4,
        ff_dim=24, enc_layers=1, dec_layers=2, mode=BIDIRECTIONAL,
        init_seed=9,
    )
    return TinyTransformer(cfg, micro_vocab)


@pytest.fixture()
def causal_deep_model(micro_vocab):
    cfg = TransformerConfig(
        frame_dim=4, vocab_size=len(micro_vocab), d_model=16, heads=4,
        ff_dim=24, enc_layers=2, dec_layers=1, mode=UNIDIRECTIONAL,
        init_seed=11,
    )
    return TinyTransformer(cfg, micro_vocab)


class TestConfig:
    @pytest.mark.parametrize("heads, match", [
        (4, "divisible by heads"),
        (0, ">= 1"),  # checked first: d_model % 0 would raise ZeroDivisionError
    ])
    def test_head_divisibility(self, micro_vocab, heads, match):
        with pytest.raises(ConfigError, match=match):
            TransformerConfig(
                frame_dim=4, vocab_size=len(micro_vocab), d_model=10, heads=heads
            )

    @pytest.mark.parametrize("field, value", [
        ("heads", 2.0), ("d_model", 32.0), ("enc_layers", True),
        ("ff_dim", "128"), ("frame_dim", None), ("init_seed", 0.5),
    ])
    def test_sizes_must_be_integers(self, micro_cfg, field, value):
        # a float or a bool used to get through and fail later in encode
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            replace(micro_cfg, **{field: value})

    def test_negative_init_seed_rejected(self, micro_cfg):
        with pytest.raises(ConfigError, match="init_seed must be >= 0"):
            replace(micro_cfg, init_seed=-1)

    def test_param_init_deterministic(self, micro_cfg, micro_vocab):
        a = TinyTransformer(micro_cfg, micro_vocab)
        b = TinyTransformer(micro_cfg, micro_vocab)
        assert sorted(a.params) == sorted(b.params)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])


def _encoder_kv_shapes(cfg, frames):
    """The shapes of an encoding's cached keys and values of every layer."""
    return (cfg.heads, cfg.head_dim, frames), (cfg.heads, frames, cfg.head_dim)


class TestEncoderCausality:
    def test_unidirectional_prefix_rows_match_full(self, micro_model, rng):
        for _ in range(10):
            t = int(rng.integers(8, 40))
            cut = int(rng.integers(1, t))
            frames = rng.normal(size=(t, 4))
            full = micro_model.encode(frames, None)
            part = micro_model.encode(frames[:cut], None)
            assert cache_gap(full, part, cut) <= 1e-6

    def test_unidirectional_insensitive_to_future_frames(self, micro_model, rng):
        frames = rng.normal(size=(20, 4))
        tampered = frames.copy()
        tampered[12:] = 99.0
        a = micro_model.encode(frames, None)
        b = micro_model.encode(tampered, None)
        assert cache_gap(a, b, 12) <= 1e-12

    @pytest.mark.parametrize(
        "which", ["micro_model", "causal_deep_model", "bidi_model"]
    )
    def test_grown_states_and_kv_equal_one_shot(self, request, which, rng):
        """Grown over three chunks, every encoder layer's cached keys and
        values and every decoder layer's cross-attention keys and values
        equal a one-shot encode: a causal encoder projects only each chunk's
        new rows, a bidirectional one re-encodes."""
        model = request.getfixturevalue(which)
        frames = rng.normal(size=(33, 4))
        one_shot = model.encode(frames, None, utt_id="u")
        grown = None
        for end in (10, 21, 33):
            grown = model.encode(frames[:end], grown, utt_id="u")
        assert grown.frames_covered == 33
        assert len(grown.layer_kv) == model.cfg.enc_layers
        assert len(grown.cross_kv) == model.cfg.dec_layers
        for got, want in zip(
            grown.layer_kv + grown.cross_kv, one_shot.layer_kv + one_shot.cross_kv
        ):
            for g, w, shape in zip(got, want, _encoder_kv_shapes(model.cfg, 33)):
                assert g.shape == w.shape == shape
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("which", ["micro_model", "causal_deep_model"])
    def test_causal_grow_reuses_prior_rows_bitwise(self, request, which, rng):
        model = request.getfixturevalue(which)
        frames = rng.normal(size=(25, 4))
        prior = model.encode(frames[:9], None, utt_id="u")
        grown = model.encode(frames, prior)
        for got, old in zip(
            grown.layer_kv + grown.cross_kv, prior.layer_kv + prior.cross_kv
        ):
            # keys have their positions last, values second last
            assert np.array_equal(_bits(got[0][..., :9]), _bits(old[0]))
            assert np.array_equal(_bits(got[1][..., :9, :]), _bits(old[1]))
        # the prior itself is left as it was
        for kv in prior.layer_kv + prior.cross_kv:
            assert tuple(a.shape for a in kv) == _encoder_kv_shapes(model.cfg, 9)

    def test_bidirectional_prefix_differs(self, bidi_model, rng):
        frames = rng.normal(size=(30, 4))
        full = bidi_model.encode(frames, None)
        part = bidi_model.encode(frames[:15], None)
        assert cache_gap(full, part, 15) > 1e-4

    def test_bidirectional_prior_not_reused(self, bidi_model, rng):
        # a bidirectional grow re-encodes everything; rows must equal one-shot
        frames = rng.normal(size=(24, 4))
        part = bidi_model.encode(frames[:10], None, utt_id="u")
        grown = bidi_model.encode(frames, part)
        one_shot = bidi_model.encode(frames, None, utt_id="u")
        assert cache_gap(grown, one_shot, 24) <= 1e-9

    def test_frame_dim_mismatch_rejected(self, micro_model, rng):
        with pytest.raises(ContractViolation):
            micro_model.encode(rng.normal(size=(5, 7)), None)

    def test_empty_frames_empty_states(self, micro_model):
        enc = micro_model.encode(np.zeros((0, 4)), None)
        assert enc.frames_covered == 0
        for kv in enc.layer_kv + enc.cross_kv:
            assert tuple(a.shape for a in kv) == _encoder_kv_shapes(micro_model.cfg, 0)


class TestDecoding:
    def test_distribution_normalized(self, micro_model, rng):
        enc = micro_model.encode(rng.normal(size=(12, 4)), None)
        state, lps = micro_model.dec_init(enc, (4, 5))
        np.testing.assert_allclose(np.exp(lps).sum(axis=1), 1.0, atol=1e-6)
        state, lps = micro_model.dec_advance(state, [0, 0], [3, 4])
        np.testing.assert_allclose(np.exp(lps).sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("which", ["micro_model", "bidi_model"])
    def test_state_outlives_encoder_growth(self, request, which, rng):
        """A state keeps decoding the encoding it was made with: after the
        encoder grows it gives bitwise the log-probs it gave before, so no
        encode writes into an older encoding's arrays. The encoding and the
        prefill state here grew from empty caches, which keep the projected
        rows themselves: later dec_advance and encode calls leave every one
        of their arrays bitwise as it was."""
        model = request.getfixturevalue(which)
        frames = rng.normal(size=(20, 4))
        enc1 = model.encode(frames[:10], None, utt_id="u")
        state, init_lps = model.dec_init(enc1, (4, 5))
        held = [*itertools.chain(*enc1.layer_kv, *enc1.cross_kv), *state.kv]
        kept = [a.copy() for a in held]
        _, before = model.dec_advance(state, [0, 0], [3, 4])
        enc2 = model.encode(frames, enc1)
        _, after = model.dec_advance(state, [0, 0], [3, 4])
        model.encode(frames[:15], enc1)
        model.dec_advance(model.dec_advance(state, [0], [5])[0], [0, 0], [3, 4])
        assert np.array_equal(_bits(after), _bits(before))
        assert np.array_equal(_bits(model.dec_init(enc1, (4, 5))[1]), _bits(init_lps))
        for now, then in zip(held, kept):
            assert np.array_equal(_bits(now), _bits(then))
        # the grown encoding is a different one: its caches decode otherwise
        grown, _ = model.dec_init(enc2, (4, 5))
        assert not np.allclose(model.dec_advance(grown, [0, 0], [3, 4])[1], after)

    def test_rebuilt_walk_is_identical(self, micro_model, rng):
        """Forcing the same prefix again gives exactly the numbers the first
        prefill gave: the cache is an optimization only."""
        frames = rng.normal(size=(24, 4))
        enc = micro_model.encode(frames, None, utt_id="u")
        prefix = (3, 4, 5)
        state_a, lps_a = micro_model.dec_init(enc, prefix)
        state_b, lps_b = micro_model.dec_init(enc, prefix)
        np.testing.assert_array_equal(lps_a, lps_b)
        for a, b in zip(state_a.kv, state_b.kv):
            np.testing.assert_array_equal(a, b)

    def test_every_cache_is_head_split(self, causal_deep_model, rng):
        """Every cache is split by head: an encoding's self-attention and
        cross-attention keys are (heads, head_dim, frames) and its values
        (heads, frames, head_dim), the cross ones contiguous, and a decoder
        state holds per layer its keys then its values, (rows, 2, heads,
        positions, head_dim)."""
        model, cfg = causal_deep_model, causal_deep_model.cfg
        h, dh = cfg.heads, cfg.head_dim
        prefix = (3, 4, 5, 6)
        enc = model.encode(rng.normal(size=(14, 4)), None)
        for kv in enc.layer_kv + enc.cross_kv:
            assert tuple(a.shape for a in kv) == _encoder_kv_shapes(cfg, 14)
        for a in itertools.chain(*enc.cross_kv):
            assert a.flags.c_contiguous
        state, _ = model.dec_init(enc, prefix)
        for kv in state.kv:
            assert kv.shape == (1, 2, h, len(prefix) + 1, dh)
        state, _ = model.dec_advance(state, [0, 0, 0], [3, 4, 5])
        for kv in state.kv:
            assert kv.shape == (3, 2, h, state.pos, dh)

    def test_foreign_encoder_rejected(self, micro_cfg, micro_vocab, rng):
        m1 = TinyTransformer(micro_cfg, micro_vocab)
        m2 = TinyTransformer(micro_cfg, micro_vocab)
        enc = m1.encode(rng.normal(size=(10, 4)), None)
        with pytest.raises(ContractViolation):
            m2.dec_init(enc)

    def test_states_of_a_collected_model_rejected(
        self, micro_cfg, micro_vocab, rng
    ):
        """A model built after another was collected can get the same id();
        the states the collected model made must still be refused."""
        frames = rng.normal(size=(10, 4))
        other_cfg = replace(micro_cfg, init_seed=micro_cfg.init_seed + 1)
        for _ in range(50):
            a = TinyTransformer(micro_cfg, micro_vocab)
            enc = a.encode(frames[:6], None)
            state, _ = a.dec_init(enc)
            del a  # the last reference: CPython frees the model here
            b = TinyTransformer(other_cfg, micro_vocab)
            with pytest.raises(ContractViolation):
                b.dec_advance(state, [0], [3])
            with pytest.raises(ContractViolation):
                b.dec_init(enc)
            with pytest.raises(ContractViolation):
                b.encode(frames, enc)

    def test_bad_token_id_rejected(self, micro_model, rng):
        enc = micro_model.encode(rng.normal(size=(10, 4)), None)
        state, _ = micro_model.dec_init(enc)
        with pytest.raises(ContractViolation):
            micro_model.dec_advance(state, [0], [999])


class TestBatchAdvance:
    """Row i of dec_advance(state, rows, token_ids) extends row
    rows[i] of state by token_ids[i]."""

    @staticmethod
    def _three_rows(model, enc):
        """A state whose three rows have consumed bos and one word each."""
        root, _ = model.dec_init(enc)
        return model.dec_advance(root, [0, 0, 0], [3, 4, 5])[0]

    @pytest.mark.parametrize("b_sz", [1, 3, 8])
    @pytest.mark.parametrize("which", ["micro_model", "deep_model"])
    def test_rows_match_per_row_advance(self, request, which, b_sz, rng):
        # Not bit-identical: BLAS may sum a multi-row product in another
        # order than a one-row product (up to 8e-15 apart on the benchmark's
        # bidirectional model).
        model = request.getfixturevalue(which)
        enc = model.encode(rng.normal(size=(30, 4)), None)
        words = list(model.vocab.word_ids())
        state, _ = model.dec_init(enc)
        paths = [()]
        for step in range(3):  # then advance the returned state again
            rows = [(i * i + step) % len(paths) for i in range(b_sz)]
            toks = [words[(5 * i + step) % len(words)] for i in range(b_sz)]
            state, block_lps = model.dec_advance(state, rows, toks)
            assert block_lps.shape == (b_sz, len(model.vocab))
            assert state.pos == step + 2
            paths = [paths[r] + (t,) for r, t in zip(rows, toks)]
            for i, path in enumerate(paths):
                walk, lps = token_walk(model, enc, path)
                np.testing.assert_allclose(
                    block_lps[i], lps[-1], rtol=0, atol=1e-12
                )
                for got, want in zip(state.kv, walk.kv):
                    np.testing.assert_allclose(got[i], want[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [-1, 3, 99])
    def test_out_of_range_row_rejected(self, micro_model, rng, bad):
        enc = micro_model.encode(rng.normal(size=(30, 4)), None)
        state = self._three_rows(micro_model, enc)
        with pytest.raises(ContractViolation, match=f"row {bad} out of range"):
            micro_model.dec_advance(state, [0, bad], [3, 4])

    def test_foreign_state_rejected(self, micro_cfg, micro_vocab, rng):
        frames = rng.normal(size=(30, 4))
        m1 = TinyTransformer(micro_cfg, micro_vocab)
        m2 = TinyTransformer(micro_cfg, micro_vocab)
        foreign, _ = m2.dec_init(m2.encode(frames, None))
        with pytest.raises(ContractViolation, match="from a different model"):
            m1.dec_advance(foreign, [0, 0], [3, 4])

    @pytest.mark.parametrize("bad", [-1, 9, 999])
    def test_out_of_vocab_token_rejected(self, micro_model, rng, bad):
        enc = micro_model.encode(rng.normal(size=(30, 4)), None)
        state = self._three_rows(micro_model, enc)
        with pytest.raises(ContractViolation, match=f"token id {bad} out of"):
            micro_model.dec_advance(state, [0, 1, 2], [3, bad, 4])

    def test_one_token_per_state(self, micro_model, rng):
        """One token id per row, and at least one row."""
        enc = micro_model.encode(rng.normal(size=(30, 4)), None)
        state = self._three_rows(micro_model, enc)
        for rows, toks in (([0, 1, 2], [3, 4]), ([], [])):
            with pytest.raises(ContractViolation, match="one token id per row"):
                micro_model.dec_advance(state, rows, toks)


class TestPrefill:
    """dec_init(enc, prefix) consumes bos and the whole prefix in one
    forward; it must give what consuming the prefix one token per
    dec_advance call gives."""

    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    @pytest.mark.parametrize("which", ["micro_model", "bidi_model", "deep_model"])
    def test_matches_token_walk(self, request, which, n, rng):
        # Not bit-identical: a product over n + 1 positions may sum in
        # another order than n + 1 one-position products (up to about
        # 1.4e-14 apart on the benchmark's bidirectional model).
        model = request.getfixturevalue(which)
        words = list(model.vocab.word_ids())
        prefix = tuple(words[(3 * i + n) % len(words)] for i in range(n))
        frames = rng.normal(size=(30, 4))
        grown = model.encode(frames[:11], None, utt_id="u")
        grown = model.encode(frames, grown)
        for enc in (model.encode(frames, None), grown):
            state, lps = model.dec_init(enc, prefix)
            walk, walk_lps = token_walk(model, enc, prefix)
            assert lps.shape == (n + 1, len(model.vocab))
            assert state.pos == walk.pos == n + 1
            np.testing.assert_allclose(lps, walk_lps, rtol=0, atol=1e-12)
            for got, want in zip(state.kv, walk.kv):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            # and the prefilled state continues like the walked one
            toks = words[:3]
            _, next_lps = model.dec_advance(state, [0, 0, 0], toks)
            _, walk_next = model.dec_advance(walk, [0, 0, 0], toks)
            np.testing.assert_allclose(next_lps, walk_next, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [-1, 9, 999])
    def test_out_of_vocab_prefix_rejected(self, micro_model, rng, bad):
        enc = micro_model.encode(rng.normal(size=(10, 4)), None)
        with pytest.raises(ContractViolation, match=f"token id {bad} out of"):
            micro_model.dec_init(enc, (3, bad, 4))

    def test_foreign_encoding_rejected(self, micro_cfg, micro_vocab, rng):
        m1 = TinyTransformer(micro_cfg, micro_vocab)
        m2 = TinyTransformer(micro_cfg, micro_vocab)
        enc = m1.encode(rng.normal(size=(10, 4)), None)
        with pytest.raises(ContractViolation, match="different model"):
            m2.dec_init(enc, (3, 4))

    def test_empty_encoding_rejected(self, micro_model):
        enc = micro_model.encode(np.zeros((0, 4)), None)
        with pytest.raises(ContractViolation, match="no encoder states"):
            micro_model.dec_init(enc, (3, 4))


def _attend_fresh(q, kt, v, masked=None):
    """_attend as fresh temporaries, the formula the kernel must reproduce
    bit for bit: the unnormalized weights times the values, divided by the
    weights' row sums, and the weights e / sums."""
    s = q @ kt
    if masked is not None:
        s = np.where(masked, -np.inf, s)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    sums = e.dot(np.ones((e.shape[-1], 1)))
    return (e @ v) / sums, e / sums


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestAttendKernel:
    @pytest.mark.parametrize("lead, n, causal", [
        ((2,), 270, False),  # an encoder layer's heads over 270 frames
        ((2,), 270, True),
        ((5, 2), 1, False),  # dec_advance: rows, heads, one position
        ((1, 2), 9, True),  # a prefill
    ])
    def test_bitwise_equal_to_fresh_formula(self, rng, lead, n, causal):
        m, dh = 270, 4
        # queries that carry the 1/sqrt(dh) scale
        q = rng.normal(scale=4.0 / math.sqrt(dh), size=lead + (n, dh))
        kt = rng.normal(size=lead + (dh, m))
        v = rng.normal(size=lead + (m, dh))
        future = _future(m - n, m) if causal else None
        kept = [a.copy() for a in (q, kt, v)]
        want, weights = _attend_fresh(q, kt, v, future)
        parts = []
        got = _attend(q, kt, v, future, parts)
        np.testing.assert_array_equal(_bits(got), _bits(want))
        (e, sums), = parts
        np.testing.assert_array_equal(_bits(e / sums), _bits(weights))
        for a, b in zip((q, kt, v), kept):  # the inputs are only read
            np.testing.assert_array_equal(_bits(a), _bits(b))
        # dividing after the value product is the softmax-weighted average
        np.testing.assert_allclose(got, weights @ v, rtol=0, atol=1e-12)
        if causal:
            assert not (e[..., future]).any()


class TestFutureMask:
    @pytest.mark.parametrize("pos", [0, 1, 7])
    def test_one_query_row_has_no_mask(self, pos):
        assert _future(pos, pos + 1) is None

    @pytest.mark.parametrize("start, stop", [(0, 2), (0, 5), (3, 5), (6, 9)])
    def test_wider_block_masks_later_keys(self, start, stop):
        want = [[k > q for k in range(stop)] for q in range(start, stop)]
        np.testing.assert_array_equal(_future(start, stop), np.array(want))


FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"


def _perturbed(model: TinyTransformer, seed: int = 3) -> TinyTransformer:
    """The model with every gain near 1 and every bias away from 0, so that
    no layer norm's fold is the identity."""
    rng = np.random.default_rng(seed)
    params = {  # the gains and biases are the 1-D parameters
        k: v + rng.normal(scale=0.3, size=v.shape) if v.ndim == 1 else v
        for k, v in model.params.items()
    }
    return TinyTransformer(model.cfg, model.vocab, params)


class TestFoldedWeights:
    """The folded weight set runs the stored parameters' unfolded pre-norm
    transformer: explicit layer-norm affines, separate Q/K/V, scaled
    scores."""

    @pytest.fixture(params=["micro", "micro-bidi", "bidi.bin", "causal.bin"])
    def model_and_frames(self, request, micro_model, rng):
        if request.param == "micro":
            return _perturbed(micro_model), rng.normal(size=(17, 4))
        if request.param == "micro-bidi":
            bidi = TinyTransformer(
                replace(micro_model.cfg, mode=BIDIRECTIONAL), micro_model.vocab)
            return _perturbed(bidi), rng.normal(size=(17, 4))
        model = load_model(str(FIXTURES / request.param))
        return model, gen_dataset(SyntheticTaskSpec(), 1, seed=5)[0].frames

    def test_inference_matches_unfolded_forward(self, model_and_frames):
        model, frames = model_and_frames
        words = list(model.vocab.word_ids())
        prefix = tuple(words[:3])
        logps, _ = unfolded_forward(model, frames, prefix)
        cut = len(frames) // 2
        grown = model.encode(frames, model.encode(frames[:cut]))
        for enc in (model.encode(frames), grown):
            _, got = model.dec_init(enc, prefix)
            np.testing.assert_allclose(got, logps, rtol=0, atol=1e-12)
        # advance three rows of the state after prefix[:-1] by one token each
        state, _ = model.dec_init(grown, prefix[:-1])
        nxt = words[-3:]
        _, got = model.dec_advance(state, [0, 0, 0], nxt)
        for row, tok in zip(got, nxt):
            want = unfolded_forward(model, frames, prefix[:-1] + (tok,))[0][-1]
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)

    def test_weight_set_derived_once_per_model(self, monkeypatch):
        calls = []
        fold = transformer.fold

        def counted(cfg, p):
            calls.append(cfg)
            return fold(cfg, p)

        monkeypatch.setattr(transformer, "fold", counted)
        utt = gen_dataset(SyntheticTaskSpec(), 1, seed=8)[0]
        beam = BeamConfig(beam_width=4)
        for n in (1, 2):
            model = load_model(str(FIXTURES / "bidi.bin"))
            assert len(calls) == n - 1  # loading derives nothing
            log = run_session(model, utt, LocalAgreement(), 0.25, beam)
            assert len(log) and utt.duration_sec > 4 * 0.25  # five chunks
            assert len(calls) == n


class TestTrainingGraphParity:
    def test_graph_matches_inference_walk(self, micro_model, micro_cfg, micro_vocab, rng):
        frames = rng.normal(size=(18, 4))
        ids = (3, 5, 4)
        enc = micro_model.encode(frames, None)
        _, walk = micro_model.dec_init(enc, ids)
        pt = leaf_tensors(micro_model.params)
        dec_in = np.array([[BOS_ID, *ids]])
        graph = training_logits(
            micro_cfg, pt, frames[None], np.ones((1, 18)), dec_in
        ).data[0]
        for j in range(len(ids) + 1):
            np.testing.assert_allclose(walk[j], graph[j], atol=1e-9)

    def test_padding_does_not_change_real_rows(self, micro_model, micro_cfg, rng):
        """Frame padding beyond the mask must not touch real positions'
        log-probs."""
        frames = rng.normal(size=(12, 4))
        pt = leaf_tensors(micro_model.params)
        dec_in = np.array([[1, 3, 4]])
        plain = training_logits(
            micro_cfg, pt, frames[None], np.ones((1, 12)), dec_in
        ).data
        padded_frames = np.concatenate([frames, np.full((5, 4), 7.7)])[None]
        mask = np.concatenate([np.ones(12), np.zeros(5)])[None]
        padded = training_logits(micro_cfg, pt, padded_frames, mask, dec_in).data
        np.testing.assert_allclose(plain, padded, atol=1e-9)

    @pytest.mark.parametrize("row, why", [
        ([1, 1, 0, 1, 0], "not ones followed by zeros"),
        ([0, 1, 1, 1, 1], "not ones followed by zeros"),
        ([0, 0, 0, 0, 0], "no real frame"),
        ([1, 1, 0.5, 0, 0], "0 or 1"),
        ([1, 1, 2, 0, 0], "0 or 1"),
        ([1, np.nan, 0, 0, 0], "0 or 1"),
    ])
    def test_frame_mask_must_give_lengths(self, micro_cfg, micro_model, rng, row, why):
        mask = np.array([[1.0] * 5, row])
        with pytest.raises(ContractViolation, match=why):
            training_logits(
                micro_cfg, leaf_tensors(micro_model.params),
                rng.normal(size=(2, 5, 4)), mask, np.array([[1, 3], [1, 4]]),
            )

    def test_frame_mask_shape_must_match_frames(self, micro_cfg, micro_model, rng):
        with pytest.raises(ContractViolation, match="frame_mask must be"):
            training_logits(
                micro_cfg, leaf_tensors(micro_model.params),
                rng.normal(size=(2, 5, 4)), np.ones((2, 4)), np.array([[1], [1]]),
            )

    def test_loss_scalar_and_finite(self, micro_model, micro_cfg, rng):
        pt = leaf_tensors(micro_model.params)
        batch = {
            "frames": rng.normal(size=(2, 10, 4)),
            "frame_mask": np.ones((2, 10)),
            "dec_in": np.array([[1, 3, 4], [1, 5, 0]]),
            "labels": np.array([[3, 4, 2], [5, 2, 0]]),
            "label_mask": np.array([[1.0, 1, 1], [1, 1, 0]]),
        }
        loss = training_loss(micro_cfg, pt, batch, 0.1)
        assert loss.data.shape == ()
        assert np.isfinite(loss.data)
        loss.backward()
        assert all(
            t.grad is None or np.all(np.isfinite(t.grad)) for t in pt.values()
        )


class TestAttentionDump:
    @pytest.mark.parametrize(
        "which", ["micro_model", "deep_model", "causal_deep_model"]
    )
    def test_grids_match_reference(self, request, which, rng):
        model = request.getfixturevalue(which)
        frames = rng.normal(size=(13, 4))
        for prefix in ((), (3,), (3, 5, 4, 8)):
            got = model.dump_attention(frames, prefix)
            want = unfolded_forward(model, frames, prefix)[1]
            assert sorted(got) == sorted(want)
            for name, grid in want.items():
                np.testing.assert_allclose(
                    got[name], grid, rtol=0, atol=1e-12, err_msg=name
                )

    @pytest.mark.parametrize(
        "which", ["micro_model", "deep_model", "causal_deep_model"]
    )
    def test_cross_grids_are_a_fresh_attend(self, request, which, rng):
        """Each cross grid is bit for bit a fresh _attend of the prefill's
        query rows over the encoding's cross-attention keys and values."""
        model = request.getfixturevalue(which)
        frames = rng.normal(size=(13, 4))
        prefix = (3, 5, 4)
        got = model.dump_attention(frames, prefix)
        enc, h, t = model.encode(frames), model.cfg.heads, len(prefix) + 1
        want = []

        def attend(l, qkv):  # the prefill: one row over t positions
            q, k, v = _split_qkv(qkv, (), h)
            ctx = _attend_fresh(q, k.swapaxes(-1, -2), v, _future(0, t))[0]
            return ctx.swapaxes(0, 1).reshape(t, -1)

        def cross(l, q):
            ctx, w = _attend_fresh(
                q.reshape(t, h, -1).swapaxes(0, 1), *enc.cross_kv[l])
            want.append(w)
            return ctx.swapaxes(0, 1).reshape(t, -1)

        y = _dec_in(model.weights, np.array([BOS_ID, *prefix]),
                    model._pos(t))
        for l in range(model.cfg.dec_layers):
            y = _dec_layer(model.weights, l, y, attend, cross)
        for l, w in enumerate(want):
            for head in range(h):
                grid = got[f"cross.layer{l}.head{head}"]
                assert np.array_equal(_bits(grid), _bits(w[head])), (l, head)

    def test_grid_names_and_shapes(self, micro_model, rng):
        grids = micro_model.dump_attention(rng.normal(size=(9, 4)), (3, 4))
        assert "encoder_self.layer0.head0" in grids
        assert "decoder_self.layer0.head1" in grids
        assert "cross.layer0.head0" in grids
        assert grids["encoder_self.layer0.head0"].shape == (9, 9)
        # decoder rows: bos + 2 forced tokens
        assert grids["decoder_self.layer0.head0"].shape == (3, 3)
        assert grids["cross.layer0.head0"].shape == (3, 9)

    def test_rows_are_distributions(self, micro_model, rng):
        grids = micro_model.dump_attention(rng.normal(size=(9, 4)), (3,))
        for name, g in grids.items():
            np.testing.assert_allclose(
                g.sum(axis=-1), np.ones(g.shape[0]), atol=1e-9, err_msg=name
            )

    def test_empty_encoding_rejected(self, micro_model):
        with pytest.raises(ContractViolation, match="no encoder states"):
            micro_model.dump_attention(np.zeros((0, 4)), ())

    def test_calls_share_no_memory(self, micro_model, rng):
        """The weights are computed in each call's own buffers, so a grid
        handed out once is never written by a later call."""
        frames = rng.normal(size=(9, 4))
        first = micro_model.dump_attention(frames, (3, 4))
        kept = {name: g.copy() for name, g in first.items()}
        second = micro_model.dump_attention(frames, (3, 4))
        for name, grid in first.items():
            assert not np.shares_memory(grid, second[name]), name
            np.testing.assert_array_equal(grid, kept[name])
            np.testing.assert_array_equal(grid, second[name])

    def test_encoder_self_attention_is_causal(self, micro_model, rng):
        g = micro_model.dump_attention(
            rng.normal(size=(7, 4)), ()
        )["encoder_self.layer0.head0"]
        upper = np.triu(g, k=1)
        np.testing.assert_allclose(upper, np.zeros_like(upper), atol=1e-12)


class TestFrozenParamsAndSerialization:
    def test_params_are_frozen_copies(self, micro_cfg, micro_vocab):
        src = init_params(micro_cfg)
        model = TinyTransformer(micro_cfg, micro_vocab, src)
        kept = {k: v.copy() for k, v in src.items()}
        for k in ("enc_in_w", "out_b"):
            with pytest.raises(ValueError, match="read-only"):
                model.params[k] += 1.0
            with pytest.raises(ValueError, match="read-only"):
                model.params[k][0] = 7.0
            with pytest.raises(TypeError):
                model.params[k] = kept[k] + 1.0
            with pytest.raises(TypeError):
                del model.params[k]
        # later writes to the dict the model was built from, in place or by
        # key, do not reach it
        src["enc_in_w"] += 1.0
        src["out_b"] = np.full_like(src["out_b"], 3.0)
        del src["tok_emb"]
        assert sorted(model.params) == sorted(kept)
        for k, v in kept.items():
            np.testing.assert_array_equal(model.params[k], v)
            assert not np.shares_memory(model.params[k], v)

    def test_save_load_round_trip(self, micro_model, tmp_path, rng):
        path = str(tmp_path / "m.bin")
        save_model(micro_model, path)
        m2 = load_model(path)
        assert isinstance(m2, TinyTransformer)
        assert m2.cfg == micro_model.cfg
        assert m2.vocab.tokens == micro_model.vocab.tokens
        for k in micro_model.params:
            np.testing.assert_array_equal(m2.params[k], micro_model.params[k])
        frames = rng.normal(size=(11, 4))
        a = micro_model.encode(frames, None)
        b = m2.encode(frames, None)
        assert cache_gap(a, b, 11) == 0.0


def _tiny_model() -> TinyTransformer:
    vocab = Vocab.build(["a", "b"])
    cfg = TransformerConfig(
        frame_dim=2, vocab_size=len(vocab), d_model=2, heads=1, ff_dim=2,
        enc_layers=1, dec_layers=1, init_seed=3,
    )
    return TinyTransformer(cfg, vocab)


@pytest.fixture(scope="module")
def tiny_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "tiny.bin"
    save_model(_tiny_model(), str(path))
    return path


def _with_header(data: bytes, edit) -> bytes:
    """The model file with its JSON header replaced by edit(header)."""
    (hlen,) = struct.unpack("<I", data[4:8])
    header = edit(json.loads(data[8 : 8 + hlen]))
    head = json.dumps(header).encode()
    return data[:4] + struct.pack("<I", len(head)) + head + data[8 + hlen :]


class TestLoadRejectsBadFiles:
    def test_every_truncation_raises_config_error(self, tiny_file, tmp_path):
        data = tiny_file.read_bytes()
        path = tmp_path / "cut.bin"
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(ConfigError, match=re.escape(str(path))):
                load_model(str(path))

    def test_trailing_bytes_rejected(self, tiny_file, tmp_path):
        path = tmp_path / "long.bin"
        path.write_bytes(tiny_file.read_bytes() + b"\0")
        with pytest.raises(ConfigError, match="trailing"):
            load_model(str(path))

    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                    min_size=1, max_size=6))
    def test_byte_flips_load_or_raise_config_error(self, tiny_file, flips):
        data = bytearray(tiny_file.read_bytes())
        for pos, bits in flips:
            data[pos % len(data)] ^= bits
        path = tiny_file.with_name("flipped.bin")
        path.write_bytes(bytes(data))
        try:
            model = load_model(str(path))
        except ConfigError as e:
            assert str(path) in str(e)
            return
        assert isinstance(model, TinyTransformer)
        assert all(np.isfinite(v).all() for v in model.params.values())

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: p.pop("out_b"), r"missing \['out_b'\]"),
            (lambda p: p.update(out_b=np.zeros(7)), r"misshapen \['out_b'\]"),
            (lambda p: p.update(extra=np.zeros(2)), r"misshapen \['extra'\]"),
            (lambda p: p.update(out_b=np.zeros(5, np.float32)), "dtype"),
            (lambda p: p.update(out_b=np.full(5, np.nan)), "non-finite"),
        ],
    )
    def test_parameters_must_match_config(self, tmp_path, edit, match):
        model = _tiny_model()
        params = dict(model.params)
        edit(params)
        path = tmp_path / "m.bin"
        save_model(TinyTransformer(model.cfg, model.vocab, params), str(path))
        with pytest.raises(ConfigError, match=match):
            load_model(str(path))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: {**h, "config": {**h["config"], "d_model": 2.0}},
            lambda h: {**h, "config": {**h["config"], "bogus": 1}},
            lambda h: {**h, "config": [1, 2]},
            lambda h: {**h, "vocab": h["vocab"][:-1] + [7]},
            lambda h: {**h, "model_type": "rnn"},
            lambda h: {"format_version": 1, "model_type": "synthetic", "meta": {}},
            lambda h: {**h, "format_version": 2},
            lambda h: {k: v for k, v in h.items() if k != "vocab"},
            lambda h: [h],
        ],
    )
    def test_malformed_header(self, tiny_file, tmp_path, edit):
        path = tmp_path / "m.bin"
        path.write_bytes(_with_header(tiny_file.read_bytes(), edit))
        with pytest.raises(ConfigError, match=r"at byte 8\b"):
            load_model(str(path))


class TestSinusoids:
    def test_table_shape_and_range(self):
        t = sinusoid_table(12, 8)
        assert t.shape == (12, 8)
        assert np.max(np.abs(t)) <= 1.0

    def test_rows_extend_consistently(self):
        a = sinusoid_table(5, 8)
        b = sinusoid_table(9, 8)
        np.testing.assert_allclose(a, b[:5], atol=1e-12)
