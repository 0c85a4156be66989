import numpy as np
import pytest

from streamdec.core import DEFAULT_FRAME_PERIOD_SEC, EOS_ID, ConfigError, ContractViolation
from streamdec.data import (
    SyntheticTaskSpec,
    gen_with_alignments,
    task_vocab,
    translation_map,
)
from streamdec.model import SyntheticAlignedModel

from .oracles import decode_step


@pytest.fixture(scope="module")
def world():
    spec = SyntheticTaskSpec(
        vocab_size=8, min_tokens=3, max_tokens=5, min_frames_per_token=20,
        max_frames_per_token=30, frame_dim=4,
    )
    utts, aligns = gen_with_alignments(spec, 8, seed=13)
    return spec, utts, aligns


def greedy(model, enc, max_steps=30):
    state, lps = model.dec_init(enc)
    out = []
    for _ in range(max_steps):
        tok = int(np.argmax(lps[-1]))
        if tok == EOS_ID:
            break
        out.append(tok)
        state, lps = model.dec_advance(state, [0], [tok])
    return out


class TestEmissionRule:
    def test_full_stream_recovers_reference_exactly(self, world):
        spec, utts, aligns = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        for u in utts:
            enc = m.encode(u.frames, utt_id=u.id)
            toks = greedy(m, enc)
            assert m.vocab.decode(toks) == tuple(u.reference_tokens)

    def test_uncovered_span_emits_eos(self, world):
        spec, utts, aligns = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13, instability_frames=0)
        u = utts[0]
        a = aligns[u.id]
        # cut the stream one frame before the end of the second token's span
        cut = a.span_ends[1] - 1
        enc = m.encode(u.frames[:cut], utt_id=u.id)
        _, lps = m.dec_init(enc, a.token_ids[:1])
        assert int(np.argmax(lps[-1])) == EOS_ID

    def test_swapped_slot_waits_for_its_source_word(self):
        # translation swaps some adjacent target pairs; the first slot of a
        # swapped pair translates the later source word, so it emits nothing
        # until that word has been heard in full
        spec = SyntheticTaskSpec(translation=True, noise_std=0.0)
        utts, _ = gen_with_alignments(spec, 40, seed=5)
        m = SyntheticAlignedModel.from_task(spec, 40, seed=5, instability_frames=0)
        perm = translation_map(spec)

        def translate(word):
            return f"v{perm[int(word[1:])]:02d}"

        swaps = 0
        for u in utts:
            ref, tgt = u.reference_tokens, u.target_tokens
            if any(a == b for a, b in zip(ref, ref[1:])):
                continue  # two equal source words would share one run
            # without noise each source word's frames are one run of a row
            runs = np.flatnonzero((u.frames[1:] != u.frames[:-1]).any(axis=1))
            src_end = [*(runs + 1), u.n_frames]
            assert len(src_end) == len(ref)
            ids = m.vocab.encode(tgt)
            for j in range(0, len(tgt) - 1, 2):  # the pairs that may swap
                if tgt[j:j + 2] != (translate(ref[j + 1]), translate(ref[j])):
                    continue
                swaps += 1
                heard = src_end[j + 1]
                for avail, want in ((heard - 1, EOS_ID), (heard, ids[j])):
                    enc = m.encode(u.frames[:avail], utt_id=u.id)
                    _, lps = m.dec_init(enc, ids[:j])
                    assert int(np.argmax(lps[-1])) == want, (u.id, j, avail)
        assert swaps > 5

    def test_margin_rule(self, world):
        """A span covered with >= u frames to spare is emitted correctly; one
        ending within the last u frames of a truncated stream is perturbed."""
        spec, utts, aligns = world
        u_frames = 10
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13, instability_frames=u_frames)
        utt = utts[0]
        a = aligns[utt.id]
        end0 = a.span_ends[0]
        tok0 = a.token_ids[0]
        # margin exactly u: stable
        enc = m.encode(utt.frames[: end0 + u_frames], utt_id=utt.id)
        _, lps = m.dec_init(enc)
        assert int(np.argmax(lps[0])) == tok0
        # margin u-1: inside the unstable window, deterministically wrong
        enc = m.encode(utt.frames[: end0 + u_frames - 1], utt_id=utt.id)
        _, lps = m.dec_init(enc)
        wrong = int(np.argmax(lps[0]))
        assert wrong == m.confusion[tok0]
        assert wrong != tok0
        # deterministic: same truncation, same perturbation
        enc2 = m.encode(utt.frames[: end0 + u_frames - 1], utt_id=utt.id)
        _, lps2 = m.dec_init(enc2)
        assert int(np.argmax(lps2[0])) == wrong

    def test_full_stream_tail_is_stable(self, world):
        # availability == total frames is not a truncation, even though the
        # last span ends within u frames of the end
        spec, utts, aligns = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13, instability_frames=10)
        u = utts[0]
        a = aligns[u.id]
        enc = m.encode(u.frames, utt_id=u.id)
        lps = decode_step(m, enc, a.token_ids[:-1])
        assert int(np.argmax(lps)) == a.token_ids[-1]

    def test_confusion_map_is_fixed_point_free(self, world):
        spec, _, _ = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        assert set(m.confusion) == set(m.vocab.word_ids())
        for src, dst in m.confusion.items():
            assert src != dst
            assert dst in set(m.vocab.word_ids())

    def test_distribution_is_normalized(self, world):
        spec, utts, _ = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        enc = m.encode(utts[0].frames, utt_id=utts[0].id)
        _, lps = m.dec_init(enc)
        assert np.log(np.sum(np.exp(lps[0]))) == pytest.approx(0.0, abs=1e-6)

    def test_past_final_slot_is_eos(self, world):
        spec, utts, aligns = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        u = utts[0]
        enc = m.encode(u.frames, utt_id=u.id)
        lps = decode_step(m, enc, aligns[u.id].token_ids)
        assert int(np.argmax(lps)) == EOS_ID


class TestEncodeContract:
    def test_incremental_grow(self, world):
        spec, utts, _ = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        u = utts[0]
        part = m.encode(u.frames[:30], utt_id=u.id)
        full = m.encode(u.frames, part)
        assert full.frames_covered == u.n_frames
        assert full.utt_id == u.id
        assert full.rows_encoded == u.n_frames - 30

    def test_foreign_prior_rejected(self, world):
        spec, utts, _ = world
        m1 = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        m2 = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        enc = m1.encode(utts[0].frames[:30], utt_id=utts[0].id)
        with pytest.raises(ContractViolation):
            m2.encode(utts[0].frames, enc)

    def test_foreign_encoding_rejected(self, world):
        """Two oracles of one dataset share their alignments, but neither
        decodes the other's encoding."""
        spec, utts, _ = world
        m1 = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        m2 = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        enc = m1.encode(utts[0].frames, utt_id=utts[0].id)
        with pytest.raises(ContractViolation, match="different model"):
            m2.dec_init(enc, ())

    def test_foreign_state_rejected(self, world):
        spec, utts, _ = world
        m1 = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        m2 = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        foreign, _ = m2.dec_init(m2.encode(utts[0].frames, utt_id=utts[0].id))
        with pytest.raises(ContractViolation, match="from a different model"):
            m1.dec_advance(foreign, [0, 0], [3, 4])

    def test_shrinking_coverage_rejected(self, world):
        spec, utts, _ = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        enc = m.encode(utts[0].frames[:50], utt_id=utts[0].id)
        with pytest.raises(ContractViolation):
            m.encode(utts[0].frames[:30], enc)

    def test_unknown_utterance_rejected_at_decode(self, world):
        spec, utts, _ = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        enc = m.encode(utts[0].frames, utt_id="not-a-real-id")
        with pytest.raises(ContractViolation):
            m.dec_init(enc)

    def test_prefill_forces_prefix(self, world):
        spec, utts, aligns = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        u = utts[0]
        enc = m.encode(u.frames, utt_id=u.id)
        ids = aligns[u.id].token_ids
        state, lps = m.dec_init(enc, ids[:2])
        assert state == (2, enc, 1)
        assert [int(np.argmax(row)) for row in lps] == list(ids[:3])

    def test_prefill_rows_are_slot_emissions(self, world):
        """Row j of dec_init(enc, prefix) is slot j's emission, the row a
        token-by-token walk reaches after j tokens."""
        spec, utts, aligns = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        u = utts[1]
        ids = aligns[u.id].token_ids
        for cut in (len(u.frames) // 2, len(u.frames)):
            enc = m.encode(u.frames[:cut], utt_id=u.id)
            for n in range(len(ids) + 2):
                prefix = (list(ids) + [ids[0]])[:n]
                state, lps = m.dec_init(enc, prefix)
                assert state == (n, enc, 1)
                assert lps.shape == (n + 1, len(m.vocab))
                for j in range(n + 1):
                    np.testing.assert_array_equal(lps[j], m._emission(enc, j))
                    np.testing.assert_array_equal(
                        lps[j], decode_step(m, enc, prefix[:j])
                    )
        with pytest.raises(ContractViolation, match="token id 99 out of range"):
            m.dec_init(enc, [ids[0], 99])


@pytest.mark.parametrize("which", ["stable_model", "micro_model"])
class TestFramePeriod:
    """Both models settle an encoding's frame period in one check: a given
    one must be a positive finite number equal to the prior's, and an
    omitted one is the prior's."""

    @staticmethod
    def frames(n=6):
        return np.zeros((n, 4))

    @pytest.mark.parametrize("bad", [0.0, -0.01, np.nan, True])
    def test_bad_period_refused(self, request, which, bad):
        model = request.getfixturevalue(which)
        with pytest.raises(ConfigError, match="frame_period_sec must be"):
            model.encode(self.frames(), utt_id="u0", frame_period_sec=bad)
        prior = model.encode(self.frames(3), utt_id="u0")
        with pytest.raises(ConfigError, match="frame_period_sec must be"):
            model.encode(self.frames(), prior, frame_period_sec=bad)

    def test_period_differing_from_prior_refused(self, request, which):
        model = request.getfixturevalue(which)
        prior = model.encode(self.frames(3), utt_id="u0", frame_period_sec=0.02)
        with pytest.raises(ContractViolation, match="0.05 differs from the prior states' 0.02"):
            model.encode(self.frames(), prior, frame_period_sec=0.05)

    def test_omitted_period_keeps_the_priors(self, request, which):
        model = request.getfixturevalue(which)
        assert model.encode(self.frames(), utt_id="u0").frame_period_sec == DEFAULT_FRAME_PERIOD_SEC
        prior = model.encode(self.frames(3), utt_id="u0", frame_period_sec=0.02)
        assert model.encode(self.frames(), prior).frame_period_sec == 0.02
        assert model.encode(self.frames(), prior, frame_period_sec=0.02).frame_period_sec == 0.02


class TestPerSlotInvariants:
    def test_block_rows_share_the_slot_emission(self, world):
        spec, utts, aligns = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        u = utts[0]
        enc = m.encode(u.frames, utt_id=u.id)
        ids = aligns[u.id].token_ids
        state, _ = m.dec_init(enc)
        state, lps = m.dec_advance(state, [0, 0, 0], list(ids[:3]))
        assert state == (1, enc, 3)
        want = decode_step(m, enc, ids[:1])
        for row in lps:
            np.testing.assert_array_equal(row, want)
        with pytest.raises(ContractViolation, match="one token id per row"):
            m.dec_advance(state, [0, 1], [ids[0]])
        with pytest.raises(ContractViolation, match="token id 99 out of range"):
            m.dec_advance(state, [0], [99])

    @pytest.mark.parametrize("rows, why", [
        ([7], "row 7 out of range 0..0"),
        ([-3], "row -3 out of range 0..0"),
        ([0.5], "rows must be integers"),
    ])
    def test_bad_rows_rejected(self, world, rows, why):
        spec, utts, aligns = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13)
        u = utts[0]
        state, _ = m.dec_init(m.encode(u.frames, utt_id=u.id))
        with pytest.raises(ContractViolation, match=why):
            m.dec_advance(state, rows, [aligns[u.id].token_ids[0]])


@pytest.mark.parametrize("value, match", [
    (1.5, "instability_frames must be an integer"),
    (True, "instability_frames must be an integer"),
    ("3", "instability_frames must be an integer"),
    (-1, "instability_frames must be >= 0"),
])
def test_ill_typed_instability_frames(world, value, match):
    spec = world[0]
    with pytest.raises(ConfigError, match=match):
        SyntheticAlignedModel.from_task(spec, 8, seed=13, instability_frames=value)


class TestRebuild:
    def test_from_task_regenerates_oracle(self, world):
        """The oracle is a function of (spec, count, seed, instability): a
        second build equals the first, confusion map included."""
        spec, utts, _ = world
        m = SyntheticAlignedModel.from_task(spec, 8, seed=13, instability_frames=7)
        m2 = SyntheticAlignedModel.from_task(spec, 8, seed=13, instability_frames=7)
        assert m2.vocab.tokens == m.vocab.tokens
        assert m2.instability_frames == 7
        assert m2.alignments == m.alignments
        assert m2.confusion == m.confusion
        u = utts[0]
        enc = m2.encode(u.frames, utt_id=u.id)
        assert m.vocab.decode(greedy(m2, enc)) == tuple(u.reference_tokens)
