"""Acceptance gate: eleven end-to-end checks over the whole package.

Each test computes its verdict, records one PASS/FAIL line (replayed in the
terminal summary), and then asserts. Budgets are wall-clock seconds measured
inside the test. Seeds are pinned; every number here is reproducible.
"""

import math
import time

import numpy as np
import pytest

from streamdec.core import BOS_ID, PAD_ID, Chunk, CommitLog, Utterance, Vocab
from streamdec.data import (
    SyntheticTaskSpec,
    gen_dataset,
    gen_with_alignments,
    task_vocab,
)
from streamdec.decoder import (
    BUFFERED_STATE,
    FORCED_REDECODE,
    BeamConfig,
    Session,
    beam_search,
    step_chunk,
    run_session,
)
from streamdec.harness import compare_modes
from streamdec.metrics import (
    LatencyReport,
    corpus_wer,
    latency_delta,
    mean_output_time,
    wer,
)
from streamdec.model import EncoderStates, SyntheticAlignedModel
from streamdec.strategies import (
    HoldN,
    LocalAgreement,
    Offline,
    WaitK,
    lcp,
    select_prefix,
)
from streamdec.training import (
    TrainConfig,
    adapt,
    batch_loss_and_grads,
    make_batch,
    token_error_rate,
    train,
)
from streamdec.transformer import (
    BIDIRECTIONAL,
    UNIDIRECTIONAL,
    TinyTransformer,
    TransformerConfig,
)

from .oracles import beam_oracle, cache_gap, wer_oracle

RESULTS: list[str] = []


def record(n: int, ok: bool, detail: str) -> None:
    line = f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures

C10_SPEC = SyntheticTaskSpec(min_tokens=3, max_tokens=6)


@pytest.fixture(scope="session")
def trained_uni():
    """The shipped unidirectional transformer: trained once, reused by the
    causality and adaptation criteria."""
    data = gen_dataset(C10_SPEC, 1200, seed=3)
    vocab = task_vocab(C10_SPEC)
    cfg = TransformerConfig(
        frame_dim=C10_SPEC.frame_dim, vocab_size=len(vocab), d_model=32,
        heads=2, ff_dim=64, enc_layers=2, dec_layers=2,
        mode=UNIDIRECTIONAL, init_seed=0,
    )
    tcfg = TrainConfig(
        learning_rate=2e-3, warmup_steps=100, total_steps=1000,
        batch_size=16, seed=0, eval_every=100,
    )
    t0 = time.perf_counter()
    model, _ = train(TinyTransformer(cfg, vocab), data, tcfg)
    return {
        "model": model,
        "data": data,
        "train_sec": time.perf_counter() - t0,
    }


@pytest.fixture(scope="session")
def bidi_trained():
    """A briefly trained bidirectional model for the causality contrast."""
    data = gen_dataset(C10_SPEC, 200, seed=3)
    vocab = task_vocab(C10_SPEC)
    cfg = TransformerConfig(
        frame_dim=C10_SPEC.frame_dim, vocab_size=len(vocab), d_model=32,
        heads=2, ff_dim=64, enc_layers=2, dec_layers=2,
        mode=BIDIRECTIONAL, init_seed=1,
    )
    tcfg = TrainConfig(
        learning_rate=2e-3, warmup_steps=50, total_steps=120,
        batch_size=16, seed=1, eval_every=60,
    )
    model, _ = train(TinyTransformer(cfg, vocab), data, tcfg)
    return model


@pytest.fixture(scope="session")
def adaptation_result(trained_uni):
    """Pre/post-adaptation streaming WER and offline TER on held-out data."""
    dev = gen_dataset(C10_SPEC, 64, seed=4)
    evalset = gen_dataset(C10_SPEC, 60, seed=5)
    model = trained_uni["model"]
    beam = BeamConfig(beam_width=4)

    def hold0(m):
        pairs = []
        for u in evalset:
            log = run_session(m, u, HoldN(0), 0.5, beam)
            pairs.append((u.reference_tokens, log.tokens))
        return corpus_wer(pairs).rate

    t0 = time.perf_counter()
    pre_wer = hold0(model)
    pre_ter = token_error_rate(model, evalset)
    acfg = TrainConfig(
        learning_rate=2e-3, warmup_steps=100, total_steps=200,
        batch_size=16, seed=0, eval_every=25,
    )
    adapted, _ = adapt(model, trained_uni["data"], acfg, dev)
    post_wer = hold0(adapted)
    post_ter = token_error_rate(adapted, evalset)
    return {
        "pre_wer": pre_wer,
        "post_wer": post_wer,
        "pre_ter": pre_ter,
        "post_ter": post_ter,
        "wall_sec": trained_uni["train_sec"] + time.perf_counter() - t0,
    }


@pytest.fixture(scope="session")
def tail_unstable_world():
    spec = SyntheticTaskSpec()
    utts, _ = gen_with_alignments(spec, 40, seed=11)
    model = SyntheticAlignedModel.from_task(spec, 40, 11, instability_frames=10)
    return utts, model


# ---------------------------------------------------------------- criteria

def test_c01_prefix_function_conformance():
    t0 = time.perf_counter()
    ok = True
    # chunk i of a stream of 0.5 s chunks; not the final one
    c1, c2 = (Chunk("u", i, i - 1, i, 0.5, False) for i in (1, 2))
    # hold-n keeps all but the last n fresh tokens
    out, _ = HoldN(2).select(lambda: ("a", "b", "c", "d", "e"), c1, None)
    ok &= out == ("a", "b", "c")
    ok &= HoldN(5).select(lambda: ("a", "b"), c1, None)[0] == ()
    ok &= HoldN(0).select(lambda: ("a", "b", "c"), c1, None)[0] == ("a", "b", "c")
    ok &= HoldN(3).select(lambda: (), c1, None)[0] == ()
    # wait-k: silent chunks leave the budget untouched, then the rate accrues
    # per chunk and emission spends it
    out, st2 = WaitK(1, 4.0).select(lambda: ("a", "b"), c1, None)
    ok &= out == () and st2 is None
    out, st2 = WaitK(1, 4.0).select(lambda: ("a", "b"), c2, None)
    ok &= out == ("a", "b") and st2 == 0.0
    out, st2 = WaitK(0, 2.0).select(lambda: ("a", "b", "c"), c1, None)
    ok &= out == ("a",) and st2 == 0.0
    out, st2 = WaitK(0, 1.0).select(lambda: ("a",), c1, None)
    ok &= out == () and st2 == pytest.approx(0.5)
    out, st2 = WaitK(0, 1.0).select(lambda: ("a",), c2, st2)
    ok &= out == ("a",) and st2 == pytest.approx(0.0)
    # longest common prefix
    ok &= lcp(("a", "b", "c"), ("a", "b", "d")) == ("a", "b")
    ok &= lcp((), ("a",)) == ()
    ok &= lcp(("a",), ("a",)) == ("a",)
    ok &= lcp(("x",), ("y",)) == ()
    # local agreement: first chunk only buffers, the second commits the
    # agreed prefix and keeps the rest buffered
    out, la_st = LocalAgreement().select(lambda: ("a", "b", "c"), c1, None)
    ok &= out == () and la_st == ("a", "b", "c")
    out, la_st = LocalAgreement().select(lambda: ("a", "b", "d"), c2, la_st)
    ok &= out == ("a", "b") and la_st == ("d",)
    # final chunk flushes everything through every strategy
    final = Chunk("u", 1, 0, 1, 0.5, True)
    for strat in (HoldN(3), WaitK(5, rate=1.0), LocalAgreement(), Offline()):
        committed, _ = select_prefix(strat, None, final, lambda: ("a", "b", "c"))
        ok &= committed == ("a", "b", "c")
    elapsed = time.perf_counter() - t0
    ok = bool(ok) and elapsed < 1.0
    record(1, ok, f"strategy select rules exact, {elapsed*1000:.0f} ms (< 1 s)")


def test_c02_commit_monotonicity(tail_unstable_world):
    t0 = time.perf_counter()
    spec = SyntheticTaskSpec()
    syn_utts = gen_dataset(spec, 63, seed=41)
    syn_model = SyntheticAlignedModel.from_task(spec, 63, 41, instability_frames=10)

    words = [f"m{i}" for i in range(6)]
    vocab = Vocab.build(words)
    tcfg = TransformerConfig(
        frame_dim=4, vocab_size=len(vocab), d_model=8, heads=2, ff_dim=12,
        enc_layers=1, dec_layers=1, mode=UNIDIRECTIONAL, init_seed=3,
    )
    tmodel = TinyTransformer(tcfg, vocab)
    rng = np.random.default_rng(8)
    t_utts = [
        Utterance(
            f"r{i}", rng.normal(size=(int(rng.integers(15, 41)), 4)),
            (words[0], words[1]),
        )
        for i in range(63)
    ]

    strategies = [
        HoldN(0), HoldN(2), HoldN(4),
        WaitK(0, rate=2.0), WaitK(1, rate=4.0), WaitK(2, rate=8.0),
        LocalAgreement(), Offline(),
    ]
    sessions = 0
    violations = 0
    cases = [
        (syn_model, syn_utts, 0.5, BeamConfig(beam_width=4)),
        (tmodel, t_utts, 0.1, BeamConfig(beam_width=2)),
    ]
    for model, utts, chunk_sec, beam in cases:
        for i, utt in enumerate(utts):
            for j, strat in enumerate(strategies):
                mode = FORCED_REDECODE if (i + j) % 2 == 0 else BUFFERED_STATE
                s = Session(model, utt, strat, chunk_sec, beam, mode)
                prev: tuple[str, ...] = ()
                for chunk in s.chunks():
                    step_chunk(s, chunk)
                    now = s.log.tokens
                    if now[: len(prev)] != prev:
                        violations += 1
                    prev = now
                sessions += 1
    elapsed = time.perf_counter() - t0
    ok = sessions >= 1000 and violations == 0 and elapsed < 60.0
    record(
        2,
        ok,
        f"{sessions} sessions, {violations} prefix violations, "
        f"{elapsed:.1f} s (< 60 s)",
    )


def test_c03_wait_k_zero_equals_hold_zero():
    t0 = time.perf_counter()
    spec = SyntheticTaskSpec()
    utts = gen_dataset(spec, 200, seed=23)
    model = SyntheticAlignedModel.from_task(spec, 200, 23, instability_frames=10)
    beam = BeamConfig(beam_width=4)  # cap 8 tokens/s; rate 16 is 2x the cap
    mismatches = 0
    for u in utts:
        a = run_session(model, u, WaitK(0, rate=16.0), 0.5, beam)
        b = run_session(model, u, HoldN(0), 0.5, beam)
        ea = [(e.token, e.chunk_index, e.output_time_sec) for e in a.entries]
        eb = [(e.token, e.chunk_index, e.output_time_sec) for e in b.entries]
        if ea != eb:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    record(
        3,
        ok,
        f"wait-k(k=0, rate 2x cap) == hold-0 on 200/200 utterances "
        f"({mismatches} mismatches), {elapsed:.1f} s",
    )


def test_c04_encoder_causality(trained_uni, bidi_trained):
    model = trained_uni["model"]
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 71))
        cut = int(rng.integers(1, n))
        frames = rng.normal(size=(n, C10_SPEC.frame_dim))
        full = model.encode(frames, None)
        part = model.encode(frames[:cut], None)
        worst = max(worst, cache_gap(full, part, cut))
    frames = rng.normal(size=(60, C10_SPEC.frame_dim))
    bidi_full = bidi_trained.encode(frames, None)
    bidi_part = bidi_trained.encode(frames[:30], None)
    bidi_gap = cache_gap(bidi_full, bidi_part, 30)
    ok = worst <= 1e-6 and bidi_gap > 1e-4
    record(
        4,
        ok,
        f"unidirectional prefix vs full K/V max |diff| {worst:.2e} (<= 1e-6); "
        f"bidirectional diff {bidi_gap:.2e} (> 1e-4)",
    )


def test_c05_mode_equivalence():
    t0 = time.perf_counter()
    spec = SyntheticTaskSpec()
    utts = gen_dataset(spec, 200, seed=29)
    model = SyntheticAlignedModel.from_task(spec, 200, 29, instability_frames=10)
    cmp = compare_modes(
        model, utts, LocalAgreement(), 0.5, BeamConfig(beam_width=4)
    )
    total_frames = sum(len(u.frames) for u in utts)
    ok = (
        cmp.equal
        and cmp.utterances == 200
        and cmp.buffered_positions_encoded == total_frames
    )
    elapsed = time.perf_counter() - t0
    record(
        5,
        ok,
        f"forced == buffered on 200/200 utterances; buffered encoder reported "
        f"{cmp.buffered_positions_encoded}/{total_frames} rows, each position once, "
        f"{elapsed:.1f} s",
    )


class CachedRandomModel:
    """Five-word stub whose per-prefix distributions are random but cached,
    so the pruned search and the exhaustive oracle walk identical numbers."""

    def __init__(self, seed: int):
        self.vocab = Vocab.build([f"w{i}" for i in range(5)])
        self._seed = seed
        self._cache: dict[tuple, np.ndarray] = {}

    def encode(self, frames, prior=None, *, utt_id=None, frame_period_sec=0.010):
        return EncoderStates(len(frames), frame_period_sec, utt_id)

    def _logps(self, prefix):
        hit = self._cache.get(prefix)
        if hit is not None:
            return hit
        key = self._seed
        for t in prefix:
            key = (key * 1000003 + t + 1) % (2**32)
        rng = np.random.default_rng(key)
        logits = rng.normal(size=len(self.vocab)) * 2.0
        logits[PAD_ID] = -1e9
        logits[BOS_ID] = -1e9
        x = logits - logits.max()
        out = x - np.log(np.exp(x).sum())
        self._cache[prefix] = out
        return out

    # a state is a tuple of per-row prefixes
    def dec_init(self, enc, prefix=()):
        prefix = tuple(int(t) for t in prefix)
        rows = [self._logps(prefix[:j]) for j in range(len(prefix) + 1)]
        return (prefix,), np.array(rows)

    def dec_advance(self, state, rows, token_ids):
        new = tuple(state[r] + (int(t),) for r, t in zip(rows, token_ids))
        return new, np.array([self._logps(p) for p in new])


def test_c06_beam_search_exactness():
    t0 = time.perf_counter()
    cfg = BeamConfig(beam_width=3125, cap_tokens_per_sec=10.0)
    mismatches = 0
    for seed in range(100):
        model = CachedRandomModel(seed)
        enc = model.encode(np.zeros((50, 1)))  # 0.5 s -> max length 5
        best = beam_search(model, enc, (), cfg)[0]
        oracle_tokens, oracle_score = beam_oracle(model, enc, cfg)[0]
        if best.tokens != oracle_tokens or abs(best.log_prob - oracle_score) > 1e-9:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    record(
        6,
        ok,
        f"beam B=3125 == brute force (vocab 5, length <= 5) on 100/100 "
        f"random models, {elapsed:.1f} s",
    )


def test_c07_gradient_check():
    t0 = time.perf_counter()
    spec = SyntheticTaskSpec(
        vocab_size=8, min_tokens=2, max_tokens=3, min_frames_per_token=6,
        max_frames_per_token=8, frame_dim=4, noise_std=0.05, world_seed=2,
    )
    data = gen_dataset(spec, 6, seed=31)
    vocab = task_vocab(spec)
    cfg = TransformerConfig(
        frame_dim=4, vocab_size=len(vocab), d_model=8, heads=2, ff_dim=12,
        enc_layers=1, dec_layers=1, mode=UNIDIRECTIONAL, init_seed=7,
    )
    model = TinyTransformer(cfg, vocab)
    batch = make_batch(
        [(u.frames, u.reference_tokens) for u in data[:3]], vocab, 4
    )
    _, grads = batch_loss_and_grads(cfg, model.params, batch, 0.1)

    def loss_with(name, idx, delta):
        params = dict(model.params)
        params[name] = params[name].copy()
        params[name].reshape(-1)[idx] += delta
        loss, _ = batch_loss_and_grads(cfg, params, batch, 0.1)
        return loss

    rng = np.random.default_rng(55)
    names = sorted(model.params)
    worst = 0.0
    checked = 0
    failures = 0
    while checked < 100:
        name = names[int(rng.integers(len(names)))]
        flat = model.params[name].reshape(-1)
        idx = int(rng.integers(flat.size))
        scale = max(float(np.sqrt(np.mean(model.params[name] ** 2))), 0.1)
        h = 1e-4 * scale
        fd = (loss_with(name, idx, h) - loss_with(name, idx, -h)) / (2 * h)
        an = float(grads[name].reshape(-1)[idx])
        denom = max(abs(fd), abs(an), 1e-8)
        rel = abs(an - fd) / denom
        worst = max(worst, rel)
        if rel >= 1e-3:
            failures += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    record(
        7,
        ok,
        f"100 central-difference probes, worst relative error {worst:.2e} "
        f"(< 1e-3), {elapsed:.1f} s (< 60 s)",
    )


def test_c08_wer_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    alphabet = ["a", "b", "c", "d"]
    mismatches = 0
    for _ in range(500):
        ref = tuple(
            alphabet[int(i)] for i in rng.integers(0, 4, int(rng.integers(0, 9)))
        )
        hyp = tuple(
            alphabet[int(i)] for i in rng.integers(0, 4, int(rng.integers(0, 9)))
        )
        mine = wer(ref, hyp)
        s, d, i = wer_oracle(ref, hyp)
        if (mine.substitutions, mine.deletions, mine.insertions) != (s, d, i):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    record(
        8,
        ok,
        f"500/500 random pairs match the recursive oracle's exact "
        f"(S, D, I) counts, {elapsed:.1f} s",
    )


def test_c09_bounds_and_ordering(tail_unstable_world):
    t0 = time.perf_counter()
    utts, model = tail_unstable_world
    beam = BeamConfig(beam_width=4)
    cells = {}
    for name, strat in [
        ("hold-0", HoldN(0)), ("hold-2", HoldN(2)), ("hold-4", HoldN(4)),
        ("hold-6", HoldN(6)), ("la", LocalAgreement()), ("offline", Offline()),
    ]:
        logs = {}
        pairs = []
        for u in utts:
            log = run_session(model, u, strat, 0.5, beam)
            logs[u.id] = log
            pairs.append((u.reference_tokens, log.tokens))
        cells[name] = (
            corpus_wer(pairs).rate,
            mean_output_time(logs).mean_output_time_sec,
        )
    w = {k: v[0] for k, v in cells.items()}
    t = {k: v[1] for k, v in cells.items()}
    wer_chain = w["offline"] <= w["la"] <= w["hold-2"] <= w["hold-0"]
    latency_chain = (
        t["hold-0"] < t["hold-2"] < t["hold-4"] < t["hold-6"] < t["offline"]
    )
    elapsed = time.perf_counter() - t0
    ok = wer_chain and latency_chain and elapsed < 300.0
    record(
        9,
        ok,
        "WER offline<=LA<=hold-2<=hold-0: "
        f"{w['offline']:.3f}<={w['la']:.3f}<={w['hold-2']:.3f}<={w['hold-0']:.3f}; "
        "latency hold-0<hold-2<hold-4<hold-6<offline: "
        f"{t['hold-0']:.3f}<{t['hold-2']:.3f}<{t['hold-4']:.3f}"
        f"<{t['hold-6']:.3f}<{t['offline']:.3f}; "
        f"{elapsed:.1f} s (< 5 min)",
    )


def test_c10_adaptation_effect(adaptation_result):
    r = adaptation_result
    rel_drop = (r["pre_wer"] - r["post_wer"]) / r["pre_wer"]
    if r["pre_ter"] == 0.0:
        ter_stable = r["post_ter"] == 0.0
        ter_text = f"TER {r['pre_ter']:.4f} -> {r['post_ter']:.4f}"
    else:
        ter_change = abs(r["post_ter"] - r["pre_ter"]) / r["pre_ter"]
        ter_stable = ter_change <= 0.10
        ter_text = (
            f"TER {r['pre_ter']:.4f} -> {r['post_ter']:.4f} "
            f"({ter_change:+.1%} of pre, <= 10%)"
        )
    ok = rel_drop >= 0.05 and ter_stable and r["wall_sec"] < 900.0
    record(
        10,
        ok,
        f"hold-0 WER {r['pre_wer']:.4f} -> {r['post_wer']:.4f} "
        f"(-{rel_drop:.1%} relative, >= 5%); {ter_text}; "
        f"{r['wall_sec']:.0f} s end-to-end (< 15 min)",
    )


def test_c11_latency_metric_law():
    # same tokens at the same stream positions, different commit times: the
    # mean-output-time delta must equal the mean-lag delta exactly, because
    # the input-side terms cancel when token counts match
    ends = {"u1": [0.37, 0.81, 1.22], "u2": [0.5, 1.9]}

    def fabricate(offsets):
        logs = {}
        for uid, times in offsets.items():
            log = CommitLog()
            for i, t in enumerate(times):
                chunk = i + 1
                log.commit((f"tok{i}",), chunk, t / chunk)
            logs[uid] = log
        return logs

    sys_a = fabricate({"u1": [0.5, 1.0, 2.1], "u2": [1.0, 2.5]})
    sys_b = fabricate({"u1": [1.5, 1.8, 2.4], "u2": [2.0, 3.0]})
    rep_a = mean_output_time(sys_a)
    rep_b = mean_output_time(sys_b)
    raw_delta = latency_delta(rep_a, rep_b)

    def mean_lag(logs):
        lags = []
        for uid, log in logs.items():
            for entry, end in zip(log.entries, ends[uid]):
                lags.append(entry.output_time_sec - end)
        return sum(lags) / len(lags)

    lag_delta = mean_lag(sys_a) - mean_lag(sys_b)
    gap = abs(raw_delta - lag_delta)
    ok = gap < 1e-12
    record(
        11,
        ok,
        f"delta(mean t_out) == delta(mean lag) to {gap:.1e} (< 1e-12) "
        f"on fabricated logs with matched token counts",
    )
