from dataclasses import replace

import numpy as np
import pytest

from streamdec import decoder
from streamdec.core import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    ChunkOutput,
    ConfigError,
    ContractViolation,
    Utterance,
    Vocab,
)
from streamdec.decoder import (
    BUFFERED_STATE,
    FORCED_REDECODE,
    BeamConfig,
    Session,
    beam_search,
    run_session,
    step_chunk,
)
from streamdec.model import EncoderStates
from streamdec.strategies import HoldN, LocalAgreement, Offline, WaitK
from streamdec.transformer import BIDIRECTIONAL, UNIDIRECTIONAL, TinyTransformer

from .oracles import beam_oracle, eager_session_log, scalar_beam_search
from .test_acceptance import CachedRandomModel


class RandomWalkModel:
    """Protocol stub whose next-token distribution is a deterministic
    function of the forced prefix alone. Small enough to brute-force."""

    def __init__(self, n_words: int, seed: int, spread: float = 2.0):
        self.vocab = Vocab.build([f"w{i}" for i in range(n_words)])
        self._seed = seed
        self._spread = spread

    def encode(self, frames, prior=None, *, utt_id=None, frame_period_sec=0.010):
        return EncoderStates(len(frames), frame_period_sec, utt_id)

    def _logps(self, prefix):
        key = self._seed
        for t in prefix:
            key = (key * 1000003 + t + 1) % (2**32)
        rng = np.random.default_rng(key)
        logits = rng.normal(size=len(self.vocab)) * self._spread
        logits[PAD_ID] = -1e9
        logits[BOS_ID] = -1e9
        x = logits - logits.max()
        return x - np.log(np.exp(x).sum())

    # a state is a tuple of per-row prefixes
    def dec_init(self, enc, prefix=()):
        prefix = tuple(int(t) for t in prefix)
        rows = [self._logps(prefix[:j]) for j in range(len(prefix) + 1)]
        return (prefix,), np.array(rows)

    def dec_advance(self, state, rows, token_ids):
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

    @pytest.mark.parametrize(
        "tok", [PAD_ID, BOS_ID, EOS_ID, 3.7], ids=["pad", "bos", "eos", "float"]
    )
    def test_eos_in_prefix_rejected(self, tok):
        # only word ids may be forced
        model = RandomWalkModel(n_words=3, seed=0)
        enc = model.encode(np.zeros((10, 1)))
        with pytest.raises(ContractViolation):
            beam_search(model, enc, (tok,), BeamConfig())

    def test_no_audio_returns_prefix_unchanged(self):
        model = RandomWalkModel(n_words=3, seed=0)
        empty = model.encode(np.zeros((0, 1)))
        hyps = beam_search(model, empty, (3, 4), BeamConfig())
        assert len(hyps) == 1
        assert hyps[0].tokens == (3, 4)
        assert hyps[0].finished
        assert hyps[0].log_prob == 0.0
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
        eos = EOS_ID
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cap_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            BeamConfig(cap_tokens_per_sec=bad)

    @pytest.mark.parametrize("field, bad", [
        ("beam_width", 2.5),
        ("beam_width", 8.0),
        ("beam_width", True),
        ("beam_width", "8"),
        ("cap_tokens_per_sec", True),
        ("cap_tokens_per_sec", "8"),
        ("cap_tokens_per_sec", None),
        ("length_normalize", "no"),
        ("length_normalize", 1),
        ("length_normalize", None),
    ])
    def test_mistyped_config_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            BeamConfig(**{field: bad})

    def test_numpy_scalars_accepted(self):
        cfg = BeamConfig(np.int64(3), np.float64(4.0), False)
        assert (cfg.beam_width, cfg.cap_tokens_per_sec) == (3, 4.0)
        assert BeamConfig(cap_tokens_per_sec=5).cap_tokens_per_sec == 5


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

    @pytest.mark.parametrize("column, forced, cap", [
        (4, False, BeamConfig.cap_tokens_per_sec),  # a word's column in every row
        (PAD_ID, False, BeamConfig.cap_tokens_per_sec),  # pad, which no score reads
        (4, True, BeamConfig.cap_tokens_per_sec),  # only the forced prefix's step
        (4, True, 2.0),  # that step, and the prefix fills 0.5 s at 2 tokens/s
    ], ids=["word", "pad", "prefix-step", "prefix-at-cap"])
    def test_nan_log_probs_are_rejected(self, column, forced, cap):
        model = RandomWalkModel(n_words=3, seed=4)
        clean = model._logps

        def poisoned(prefix):
            lps = clean(prefix).copy()
            if not (forced and prefix):
                lps[column] = np.nan
            return lps

        model._logps = poisoned
        enc = model.encode(np.zeros((50, 1)))
        with pytest.raises(ContractViolation, match="NaN"):
            beam_search(model, enc, (4,) if forced else (),
                        BeamConfig(beam_width=3, cap_tokens_per_sec=cap))


class _RecordedRead(np.ndarray):
    """A log-probability array that notes whether it was ever indexed."""

    read = False

    def __getitem__(self, key):
        self.read = True
        return np.asarray(self)[key]


class ReadRecordingModel:
    """Passes every call to a model, counts its encode and dec_init calls
    and keeps each log-probability array its dec_advance returned, marked
    when the caller indexes it."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.encodes = 0
        self.inits = 0
        self.returned: list[_RecordedRead] = []

    def encode(self, *args, **kwargs):
        self.encodes += 1
        return self.inner.encode(*args, **kwargs)

    def dec_init(self, enc, prefix=()):
        self.inits += 1
        return self.inner.dec_init(enc, prefix)

    def dec_advance(self, state, rows, token_ids):
        state, lps = self.inner.dec_advance(state, rows, token_ids)
        lps = np.asarray(lps).view(_RecordedRead)
        self.returned.append(lps)
        return state, lps


class TestNoUnreadStep:
    """The search stops before a decoder call whose log-probs it would not
    read, and so makes a fixed number of calls."""

    @pytest.mark.parametrize("length_normalize", [False, True])
    @pytest.mark.parametrize("width", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "kind",
        ["random_walk", "uniform", "quantized", "cached_random", "transformer"],
    )
    def test_every_step_is_read(self, kind, width, length_normalize, micro_model):
        """No dec_advance call is wasted: the search reads the log-probs of
        every call it makes, including the last one before it stops."""
        for inner, enc in _differential_cases(kind, micro_model):
            model = ReadRecordingModel(inner)
            words = list(model.vocab.word_ids())
            for rate in (4.0, 8.0, 12.0):
                cfg = BeamConfig(width, rate, length_normalize)
                cap = int(rate * enc.audio_sec + 1e-9)
                for n_forced in (0, cap // 2, cap):
                    prefix = tuple(
                        words[(3 * i + 1) % len(words)] for i in range(n_forced)
                    )
                    model.returned.clear()
                    beam_search(model, enc, prefix, cfg)
                    unread = [i for i, lps in enumerate(model.returned)
                              if not lps.read]
                    assert not unread, (
                        f"dec_advance calls {unread} of {len(model.returned)} "
                        f"unread (rate {rate}, {n_forced} forced)"
                    )

    def test_call_count_is_pinned(self, unstable_model, small_corpus):
        """The exact decoder calls of a small oracle stream set. The
        oracle's scores differ by whole logit peaks, so no last-bit rounding
        can move the count from one platform to another. Each wait-k
        session's first chunk reads no continuation and makes no call."""
        model = ReadRecordingModel(unstable_model)
        strategies = (HoldN(0), HoldN(2), WaitK(1, rate=4.0), LocalAgreement())
        for i, utt in enumerate(small_corpus[:8]):
            for width in (1, 3, 8):
                run_session(model, utt, strategies[i % 4], 0.5, BeamConfig(width))
        assert (model.inits, len(model.returned)) == (51, 135)


class TestOfflineDecode:
    def test_recovers_reference_on_oracle_model(self, stable_model, small_corpus):
        for utt in small_corpus[:4]:
            log = run_session(stable_model, utt, Offline())
            assert log.tokens == utt.reference_tokens

    @pytest.mark.parametrize("mode", [UNIDIRECTIONAL, BIDIRECTIONAL])
    def test_one_encode_and_one_search(self, micro_cfg, micro_vocab, rng, mode):
        """An offline session skips every chunk before its final one, so it
        encodes the whole stream once and searches once, and its result is
        that of beam_search on a one-shot encoding, bit for bit."""
        inner = TinyTransformer(replace(micro_cfg, mode=mode), micro_vocab)
        model = ReadRecordingModel(inner)
        utt = Utterance(id="t0", frames=rng.normal(size=(120, 4)),
                        reference_tokens=(micro_vocab.tokens[3],))
        beam = BeamConfig(beam_width=3)
        s = Session(model, utt, Offline(), beam=beam)
        outs = [step_chunk(s, chunk)[0] for chunk in s.chunks()]
        assert (model.encodes, model.inits) == (1, 1)
        assert all(out.tokens == () for out in outs[:-1])
        enc = inner.encode(utt.frames, None, utt_id=utt.id)
        best = beam_search(inner, enc, (), beam)[0]
        assert best.tokens
        assert outs[-1].tokens == tuple(map(micro_vocab.token_of, best.tokens))
        assert outs[-1].log_probs == best.step_log_probs
        assert s.log.tokens == outs[-1].tokens


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

    @pytest.mark.parametrize("feed", [
        lambda own, other: [own[1]],
        lambda own, other: [other[0]],
        lambda own, other: [replace(own[0], is_final=True)],
        lambda own, other: [replace(own[0], end=own[0].end - 1)],
        lambda own, other: [replace(own[0], chunk_len_sec=0.25)],
        lambda own, other: own + [replace(own[-1], index=own[-1].index + 1)],
    ], ids=["skipped", "other-utterance", "final-too-soon", "other-bounds",
            "other-length", "after-final"])
    def test_out_of_order_chunk_rejected(self, stable_model, small_corpus, feed):
        """Only the session's own next chunk is decoded: the last chunk fed
        is refused and leaves the session as it was."""
        s = Session(stable_model, small_corpus[0], HoldN(0))
        other = Session(stable_model, small_corpus[1], HoldN(0))
        *good, bad = feed(s.chunks(), other.chunks())
        for chunk in good:
            step_chunk(s, chunk)
        before = (s.next_chunk_index, s.committed_ids, s.log.tokens)
        with pytest.raises(ContractViolation):
            step_chunk(s, bad)
        assert (s.next_chunk_index, s.committed_ids, s.log.tokens) == before

    def test_unknown_mode_rejected(self, stable_model, small_corpus):
        with pytest.raises(ConfigError):
            Session(stable_model, small_corpus[0], HoldN(0), mode="eager")

    @pytest.mark.parametrize("progress", [
        {"committed_ids": (3,)}, {"next_chunk_index": 2}, {"positions_encoded": 5},
    ], ids=lambda p: next(iter(p)))
    def test_progress_is_not_a_constructor_argument(
        self, stable_model, small_corpus, progress
    ):
        """A session starts from nothing; only its chunks move its progress."""
        with pytest.raises(TypeError):
            Session(stable_model, small_corpus[0], HoldN(0), **progress)

    @pytest.mark.parametrize("value, match", [
        (True, "chunk_len_sec must be a number"),
        ("0.5", "chunk_len_sec must be a number"),
        (0.0, r"chunk_len_sec must be a finite number in \(0, inf\)"),
    ])
    def test_ill_typed_chunk_len(self, stable_model, small_corpus, value, match):
        with pytest.raises(ConfigError, match=match):
            Session(stable_model, small_corpus[0], HoldN(0), chunk_len_sec=value)

    @pytest.mark.parametrize("strategy", ["hold-0", object()], ids=["spec", "object"])
    def test_non_strategy_rejected(self, stable_model, small_corpus, strategy):
        """A strategy that is not a STRATEGIES entry is refused when the
        session is built, before any chunk is encoded or searched."""
        with pytest.raises(ConfigError, match="unknown strategy config"):
            Session(stable_model, small_corpus[0], strategy)

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
        target = run_session(stable_model, small_corpus[0], Offline()).tokens
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
            eos = stable_model.vocab.token_of(EOS_ID)
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


class TestUndecodedChunks:
    @pytest.mark.parametrize("strategy", [
        WaitK(0, rate=1.0), WaitK(2, rate=3.0), Offline(), HoldN(1), LocalAgreement(),
    ], ids=str)
    def test_skipping_changes_no_commit(self, unstable_model, small_corpus, strategy):
        """A chunk the session did not encode returns an empty output, and
        each chunk commits what it commits when every chunk is encoded and
        decoded. WaitK(0, 1.0) on 0.5 s chunks reads no continuation on
        every other chunk, so its budget must still grow on the chunks it
        skips."""
        for utt in small_corpus[:4]:
            s = Session(unstable_model, utt, strategy)
            commits = []
            for chunk in s.chunks():
                out, committed = step_chunk(s, chunk)
                commits.append(committed)
                if s.enc is None or s.enc.frames_covered < chunk.end:
                    assert out == ChunkOutput(chunk.index, (), ())
            assert (s.log, commits) == eager_session_log(
                unstable_model, utt, strategy, s.chunk_len_sec, s.beam
            )

    def test_one_decode_however_often_the_rule_reads(
        self, unstable_model, small_corpus, monkeypatch
    ):
        """The continuation is decoded at most once per chunk: a rule that
        reads it twice still costs one encode and one beam search."""
        def read_twice(self, w, chunk, state):
            assert w() == w()
            return w()[:1], state

        searches = []

        def counted_search(*args, **kwargs):
            searches.append(1)
            return beam_search(*args, **kwargs)

        monkeypatch.setattr(HoldN, "select", read_twice)
        monkeypatch.setattr(decoder, "beam_search", counted_search)
        model = ReadRecordingModel(unstable_model)
        s = Session(model, small_corpus[0], HoldN(0))
        for chunk in s.chunks():
            before = (model.encodes, len(searches))
            step_chunk(s, chunk)
            assert (model.encodes, len(searches)) == (before[0] + 1, before[1] + 1)
        assert s.log.tokens  # the rule committed through the twice-read w


class TestEncoderRows:
    """A session counts the encoder rows that encode reports it ran."""

    def test_stub_without_mode_streams(self):
        model = RandomWalkModel(n_words=3, seed=0)
        assert not hasattr(model, "mode")
        utt = Utterance(id="s0", frames=np.zeros((120, 1)), reference_tokens=("w0",))
        log = run_session(model, utt, HoldN(0), beam=BeamConfig(beam_width=2))
        assert set(log.tokens) <= {"w0", "w1", "w2"}

    @pytest.mark.parametrize("strategy, decoded", [
        (HoldN(0), [50, 100, 120]),
        (WaitK(1, rate=2.0), [100, 120]),  # chunk 1 waits
        (Offline(), [120]),
    ], ids=["hold-0", "wait-k", "offline"])
    @pytest.mark.parametrize("mode", [UNIDIRECTIONAL, BIDIRECTIONAL])
    def test_transformer_reports_rows(
        self, micro_cfg, micro_vocab, rng, mode, strategy, decoded
    ):
        model = TinyTransformer(replace(micro_cfg, mode=mode), micro_vocab)
        utt = Utterance(id="t0", frames=rng.normal(size=(120, 4)),
                        reference_tokens=(micro_vocab.tokens[3],))
        s = Session(model, utt, strategy, beam=BeamConfig(beam_width=2))
        ends = []
        for chunk in s.chunks():
            step_chunk(s, chunk)
            if s.enc is not None and s.enc.frames_covered == chunk.end:
                ends.append(chunk.end)
        assert ends == decoded
        # a causal encoder runs each frame once, an undecoded chunk's frames
        # on the next decoded chunk; a bidirectional one re-encodes the whole
        # prefix on every decoded chunk
        if mode == UNIDIRECTIONAL:
            assert s.positions_encoded == len(utt.frames)
        else:
            assert s.positions_encoded == sum(decoded)
