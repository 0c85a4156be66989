import numpy as np
import pytest

from streamdec.core import ContractViolation, ConfigError, Utterance, Vocab
from streamdec.decoder import (
    BUFFERED_STATE,
    FORCED_REDECODE,
    BeamConfig,
    Session,
    beam_search,
    offline_decode,
    run_session,
    step_chunk,
)
from streamdec.model import EncoderStates, UNIDIRECTIONAL
from streamdec.strategies import HoldN, LocalAgreement, Offline, WaitK

from .oracles import beam_oracle, scalar_beam_search
from .test_acceptance import CachedRandomModel


class RandomWalkModel:
    """Protocol stub whose next-token distribution is a deterministic
    function of the forced prefix alone. Small enough to brute-force."""

    def __init__(self, n_words: int, seed: int, spread: float = 2.0):
        self.vocab = Vocab.build([f"w{i}" for i in range(n_words)])
        self.mode = UNIDIRECTIONAL
        self._seed = seed
        self._spread = spread

    def encode(self, frames, prior=None, *, utt_id=None, frame_period_sec=0.010):
        n = len(frames)
        return EncoderStates(np.zeros((n, 1)), n, frame_period_sec, utt_id)

    def _logps(self, prefix):
        key = self._seed
        for t in prefix:
            key = (key * 1000003 + t + 1) % (2**32)
        rng = np.random.default_rng(key)
        logits = rng.normal(size=len(self.vocab)) * self._spread
        logits[self.vocab.pad_id] = -1e9
        logits[self.vocab.bos_id] = -1e9
        x = logits - logits.max()
        return x - np.log(np.exp(x).sum())

    # a state is a tuple of per-row prefixes
    def dec_init(self, enc, prefix=()):
        prefix = tuple(int(t) for t in prefix)
        rows = [self._logps(prefix[:j]) for j in range(len(prefix) + 1)]
        return (prefix,), np.array(rows)

    def dec_advance(self, state, rows, token_ids, enc):
        new = tuple(state[r] + (int(t),) for r, t in zip(rows, token_ids))
        return new, np.array([self._logps(p) for p in new])


def wide_enough(model, enc, cfg):
    """Beam width covering every sequence the cap admits."""
    gen = len(model.vocab) - 3
    cap = int(cfg.cap_tokens_per_sec * enc.audio_sec + 1e-9)
    return sum(gen**k for k in range(cap + 1))


class TestBeamAgainstBruteForce:
    def test_exhaustive_width_matches_oracle_top(self):
        for seed in range(20):
            model = RandomWalkModel(n_words=3, seed=seed)
            enc = model.encode(np.zeros((40, 1)))  # 0.4 s
            cfg = BeamConfig(beam_width=45, cap_tokens_per_sec=7.5)
            assert int(7.5 * 0.4 + 1e-9) == 3
            best = beam_search(model, enc, (), cfg)[0]
            oracle_tokens, oracle_score = beam_oracle(model, enc, cfg)[0]
            assert best.tokens == oracle_tokens
            assert best.log_prob == pytest.approx(oracle_score, abs=1e-12)

    def test_narrow_beam_scores_are_faithful(self):
        # pruning may lose the optimum but never mis-scores what it returns
        model = RandomWalkModel(n_words=4, seed=7)
        enc = model.encode(np.zeros((40, 1)))
        cfg = BeamConfig(beam_width=2, cap_tokens_per_sec=7.5)
        truth = dict(
            (tok, sc) for tok, sc in beam_oracle(model, enc, cfg)
        )
        for hyp in beam_search(model, enc, (), cfg):
            assert hyp.finished
            assert hyp.log_prob == pytest.approx(truth[hyp.tokens], abs=1e-12)

    def test_narrow_beam_never_beats_oracle(self):
        for seed in range(10):
            model = RandomWalkModel(n_words=4, seed=seed)
            enc = model.encode(np.zeros((40, 1)))
            cfg = BeamConfig(beam_width=1, cap_tokens_per_sec=7.5)
            best = beam_search(model, enc, (), cfg)[0]
            _, oracle_score = beam_oracle(model, enc, cfg)[0]
            assert best.log_prob <= oracle_score + 1e-12

    def test_uniform_model_ties_break_lexicographically(self):
        model = RandomWalkModel(n_words=3, seed=0, spread=0.0)
        enc = model.encode(np.zeros((20, 1)))  # cap 8*0.2 = 1 token
        cfg = BeamConfig(beam_width=8)
        hyps = beam_search(model, enc, (), cfg)
        # all terminals score identically, so ranking is pure tie-break:
        # () before (w0,) before (w1,) before (w2,)
        assert [h.tokens for h in hyps[:4]] == [(), (3,), (4,), (5,)]


class TestForcedPrefix:
    def test_all_hypotheses_pass_through_prefix(self):
        model = RandomWalkModel(n_words=4, seed=3)
        enc = model.encode(np.zeros((50, 1)))
        prefix = (3, 5)
        for hyp in beam_search(model, enc, prefix, BeamConfig(beam_width=4)):
            assert hyp.tokens[:2] == prefix

    def test_prefix_steps_scored_like_a_fresh_walk(self):
        model = RandomWalkModel(n_words=4, seed=3)
        enc = model.encode(np.zeros((50, 1)))
        prefix = (3, 5)
        hyp = beam_search(model, enc, prefix, BeamConfig(beam_width=4))[0]
        assert hyp.step_log_probs[0] == pytest.approx(model._logps(())[3])
        assert hyp.step_log_probs[1] == pytest.approx(model._logps((3,))[5])
        assert hyp.log_prob == pytest.approx(sum(hyp.step_log_probs), abs=1e-9)

    def test_eos_in_prefix_rejected(self):
        model = RandomWalkModel(n_words=3, seed=0)
        enc = model.encode(np.zeros((10, 1)))
        with pytest.raises(ContractViolation):
            beam_search(model, enc, (model.vocab.eos_id,), BeamConfig())

    def test_no_audio_returns_prefix_unchanged(self):
        model = RandomWalkModel(n_words=3, seed=0)
        hyps = beam_search(model, None, (3, 4), BeamConfig())
        assert len(hyps) == 1
        assert hyps[0].tokens == (3, 4)
        assert hyps[0].finished
        assert hyps[0].log_prob == 0.0
        empty = model.encode(np.zeros((0, 1)))
        assert beam_search(model, empty, (), BeamConfig())[0].tokens == ()

    def test_prefix_at_cap_is_terminal(self):
        model = RandomWalkModel(n_words=3, seed=1)
        enc = model.encode(np.zeros((20, 1)))  # cap: 8 * 0.2 s = 1 token
        hyps = beam_search(model, enc, (4,), BeamConfig())
        assert len(hyps) == 1
        assert hyps[0].tokens == (4,)
        assert hyps[0].finished


class TestLengthCapAndNormalization:
    def test_no_hypothesis_exceeds_cap(self):
        model = RandomWalkModel(n_words=4, seed=9)
        enc = model.encode(np.zeros((55, 1)))  # 8 * 0.55 = 4.4 -> 4 tokens
        for hyp in beam_search(model, enc, (), BeamConfig(beam_width=6)):
            assert len(hyp.tokens) <= 4

    def test_fractional_cap_floors(self):
        model = RandomWalkModel(n_words=3, seed=2)
        enc = model.encode(np.zeros((41, 1)))
        cfg = BeamConfig(beam_width=45, cap_tokens_per_sec=7.5)
        # 7.5 * 0.41 = 3.075 -> 3: a 3-token prefix is already terminal
        at_cap = beam_search(model, enc, (3, 3, 3), cfg)
        assert len(at_cap) == 1 and at_cap[0].finished
        below = beam_search(model, enc, (3, 3), cfg)
        assert any(len(h.tokens) == 3 for h in below)
        assert all(len(h.tokens) <= 3 for h in below)

    def test_length_normalization_prefers_longer_path(self):
        # raw: (w0) scores -2.0, (w1,w2) scores -3.0 -> raw picks (w0);
        # per-token: -2.0 vs -1.5 -> normalized picks (w1,w2)
        model = RandomWalkModel(n_words=3, seed=0)
        eos = model.vocab.eos_id
        table = {
            (): {3: -1.0, 4: -1.6, eos: -6.0},
            (3,): {eos: -1.0},
            (4,): {5: -1.0, eos: -6.0},
            (4, 5): {eos: -0.4},
        }

        def scripted(prefix):
            lps = np.full(len(model.vocab), -9.0)
            for tok, lp in table.get(tuple(prefix), {eos: -0.5}).items():
                lps[tok] = lp
            return lps

        model._logps = scripted
        enc = model.encode(np.zeros((30, 1)))
        raw = beam_search(model, enc, (), BeamConfig(beam_width=8))
        norm = beam_search(
            model, enc, (), BeamConfig(beam_width=8, length_normalize=True)
        )
        assert raw[0].tokens == (3,)
        assert norm[0].tokens == (4, 5)

    def test_exhaustive_width_matches_normalized_oracle_top(self):
        # a live path's per-token score can still rise as it grows, so
        # stopping on raw scores would return a worse or unfinished path
        for seed in range(200):
            model = RandomWalkModel(n_words=3, seed=seed)
            enc = model.encode(np.zeros((50, 1)))  # 0.5 s: cap 4 tokens
            cfg = BeamConfig(beam_width=200, length_normalize=True)
            assert wide_enough(model, enc, cfg) <= 200
            best = beam_search(model, enc, (), cfg)[0]
            oracle_tokens, oracle_score = beam_oracle(model, enc, cfg)[0]
            assert best.finished
            assert best.tokens == oracle_tokens
            assert best.log_prob == pytest.approx(oracle_score, abs=1e-12)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            BeamConfig(beam_width=0)
        with pytest.raises(ConfigError):
            BeamConfig(cap_tokens_per_sec=0.0)


class QuantizedWalkModel(RandomWalkModel):
    """Log-probs on a 0.5 grid: paths through different parents tie exactly,
    so their order is decided by the token tie-break."""

    def _logps(self, prefix):
        return np.round(super()._logps(prefix) * 2.0) / 2.0


def _differential_cases(kind, micro_model):
    """(model, encoder states) pairs of one model kind, 0.5 s of audio each."""
    if kind == "random_walk":
        models = [RandomWalkModel(n_words=4, seed=s) for s in range(3)]
        return [(m, m.encode(np.zeros((50, 1)))) for m in models]
    if kind == "uniform":  # every score ties: order is the token tie-break
        m = RandomWalkModel(n_words=3, seed=0, spread=0.0)
        return [(m, m.encode(np.zeros((50, 1))))]
    if kind == "quantized":
        models = [QuantizedWalkModel(n_words=4, seed=s) for s in range(12)]
        return [(m, m.encode(np.zeros((50, 1)))) for m in models]
    if kind == "cached_random":
        models = [CachedRandomModel(s) for s in range(3)]
        return [(m, m.encode(np.zeros((50, 1)))) for m in models]
    rng = np.random.default_rng(17)
    return [
        (micro_model, micro_model.encode(rng.normal(size=(50, 4)), None))
        for _ in range(3)
    ]


class TestBatchedAgainstScalar:
    """The batched search returns what the one-call-per-child search does."""

    @pytest.mark.parametrize("length_normalize", [False, True])
    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "kind",
        ["random_walk", "uniform", "quantized", "cached_random", "transformer"],
    )
    def test_same_hypotheses(self, kind, width, length_normalize, micro_model):
        for model, enc in _differential_cases(kind, micro_model):
            words = list(model.vocab.word_ids())
            for rate in (4.0, 8.0, 12.0):  # caps of 2, 4 and 6 tokens
                cfg = BeamConfig(width, rate, length_normalize)
                cap = int(rate * enc.audio_sec + 1e-9)
                for n_forced in (0, cap // 2, cap):
                    prefix = tuple(
                        words[(3 * i + 1) % len(words)] for i in range(n_forced)
                    )
                    got = beam_search(model, enc, prefix, cfg)
                    want = scalar_beam_search(model, enc, prefix, cfg)
                    assert [h.tokens for h in got] == [h.tokens for h in want]
                    for g, w in zip(got, want):
                        assert g.finished == w.finished
                        assert abs(g.log_prob - w.log_prob) <= 1e-12
                        np.testing.assert_allclose(
                            g.step_log_probs, w.step_log_probs,
                            rtol=0, atol=1e-12,
                        )

    def test_nan_log_probs_are_rejected(self):
        model = RandomWalkModel(n_words=3, seed=4)
        clean = model._logps

        def poisoned(prefix):
            lps = clean(prefix).copy()
            lps[4] = np.nan
            return lps

        model._logps = poisoned
        enc = model.encode(np.zeros((50, 1)))
        with pytest.raises(ContractViolation, match="NaN"):
            beam_search(model, enc, (), BeamConfig(beam_width=3))


class TestOfflineDecode:
    def test_recovers_reference_on_oracle_model(self, stable_model, small_corpus):
        for utt in small_corpus[:4]:
            assert offline_decode(stable_model, utt) == utt.reference_tokens


def synthetic_session_cases(model, corpus):
    return [
        (HoldN(0), corpus[0]),
        (HoldN(2), corpus[1]),
        (WaitK(1, rate=4.0), corpus[2]),
        (LocalAgreement(), corpus[3]),
        (Offline(), corpus[4]),
    ]


class TestSession:
    def test_chunks_cover_stream(self, stable_model, small_corpus):
        s = Session(stable_model, small_corpus[0], HoldN(0))
        chunks = s.chunks()
        assert chunks[0].index == 1
        assert chunks[-1].is_final
        assert chunks[-1].end == len(small_corpus[0].frames)

    def test_out_of_order_chunk_rejected(self, stable_model, small_corpus):
        s = Session(stable_model, small_corpus[0], HoldN(0))
        chunks = s.chunks()
        with pytest.raises(ContractViolation):
            step_chunk(s, chunks[1])

    def test_unknown_mode_rejected(self, stable_model, small_corpus):
        with pytest.raises(ConfigError):
            Session(stable_model, small_corpus[0], HoldN(0), mode="eager")

    def test_commit_log_grows_monotonically(self, stable_model, small_corpus):
        utt = small_corpus[0]
        s = Session(stable_model, utt, HoldN(2))
        seen: list[tuple[str, ...]] = [()]
        for chunk in s.chunks():
            step_chunk(s, chunk)
            now = s.log.tokens
            assert now[: len(seen[-1])] == seen[-1]
            seen.append(now)

    def test_offline_session_commits_only_at_final(self, stable_model, small_corpus):
        utt = small_corpus[0]
        s = Session(stable_model, utt, Offline())
        chunks = s.chunks()
        for chunk in chunks[:-1]:
            _, committed = step_chunk(s, chunk)
            assert committed == ()
        _, committed = step_chunk(s, chunks[-1])
        assert committed == utt.reference_tokens
        times = [e.output_time_sec for e in s.log.entries]
        assert all(t == times[0] for t in times)

    def test_final_tokens_match_offline_decode(self, stable_model, small_corpus):
        # every strategy agrees on surface tokens for a stable model; only
        # the timestamps differ
        target = offline_decode(stable_model, small_corpus[0])
        for strat, _ in synthetic_session_cases(stable_model, small_corpus):
            log = run_session(stable_model, small_corpus[0], strat)
            assert log.tokens == target

    def test_hold_n_lags_by_n_until_final(self, stable_model, small_corpus):
        utt = small_corpus[0]
        s = Session(stable_model, utt, HoldN(2))
        chunks = s.chunks()
        for chunk in chunks[:-1]:
            out, _ = step_chunk(s, chunk)
        assert len(s.log.tokens) <= max(0, len(utt.reference_tokens) - 2)
        step_chunk(s, chunks[-1])
        assert s.log.tokens == utt.reference_tokens

    def test_chunk_output_is_fresh_continuation(self, stable_model, small_corpus):
        utt = small_corpus[0]
        s = Session(stable_model, utt, HoldN(0))
        for chunk in s.chunks():
            out, _ = step_chunk(s, chunk)
            committed_before = len(s.committed_ids) - len(
                [t for t in out.tokens][: len(s.committed_ids)]
            )
            assert committed_before >= 0
            assert len(out.tokens) == len(out.log_probs)

    def test_eos_never_committed(self, stable_model, small_corpus):
        for utt in small_corpus[:3]:
            log = run_session(stable_model, utt, Offline())
            eos = stable_model.vocab.token_of(stable_model.vocab.eos_id)
            assert eos not in log.tokens


def session_log(model, utt, strat, mode, beam=BeamConfig()):
    s = Session(model, utt, strat, beam=beam, mode=mode)
    for chunk in s.chunks():
        step_chunk(s, chunk)
    return s.log


class TestModeEquivalence:
    @pytest.mark.parametrize("strat", [
        HoldN(0), HoldN(2), WaitK(1, rate=4.0),
        LocalAgreement(), Offline(),
    ])
    def test_synthetic_model_modes_agree(self, unstable_model, small_corpus, strat):
        for utt in small_corpus[:3]:
            a = session_log(unstable_model, utt, strat, FORCED_REDECODE)
            b = session_log(unstable_model, utt, strat, BUFFERED_STATE)
            assert a.tokens == b.tokens
            assert [
                (e.token, e.chunk_index, e.output_time_sec) for e in a.entries
            ] == [
                (e.token, e.chunk_index, e.output_time_sec) for e in b.entries
            ]

    def test_transformer_modes_agree(self, micro_model, micro_vocab, rng):
        utt = Utterance(
            id="t0",
            frames=rng.normal(size=(120, 4)),
            reference_tokens=(micro_vocab.tokens[3], micro_vocab.tokens[4]),
        )
        beam = BeamConfig(beam_width=3)
        for strat in (HoldN(0), LocalAgreement()):
            a = session_log(micro_model, utt, strat, FORCED_REDECODE, beam)
            b = session_log(micro_model, utt, strat, BUFFERED_STATE, beam)
            assert a.tokens == b.tokens

    def test_buffered_unidirectional_encodes_each_frame_once(
        self, unstable_model, small_corpus
    ):
        utt = small_corpus[0]
        s = Session(unstable_model, utt, HoldN(0), mode=BUFFERED_STATE)
        for chunk in s.chunks():
            step_chunk(s, chunk)
        assert s.positions_encoded == len(utt.frames)
