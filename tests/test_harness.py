import importlib.util
import math
import multiprocessing
import re
from pathlib import Path

import numpy as np
import pytest

from streamdec import harness, training
from streamdec.core import EOS_ID, ConfigError
from streamdec.data import SyntheticTaskSpec, gen_dataset
from streamdec.decoder import BeamConfig
from streamdec.harness import (
    CSV_HEADER,
    ModeComparison,
    SweepSpec,
    TradeoffRow,
    compare_modes,
    eval_tokens,
    rows_to_csv,
    save_sweep_csv,
    sweep,
)
from streamdec.io import load_model
from streamdec.strategies import HoldN, LocalAgreement, Offline, WaitK

FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"


@pytest.fixture(scope="module")
def sweep_strategies():
    return (HoldN(0), HoldN(2), WaitK(1, rate=4.0), LocalAgreement(), Offline())


def find_row(rows, strategy, params=None):
    hits = [
        r for r in rows
        if r.strategy == strategy and (params is None or r.params == params)
    ]
    assert len(hits) == 1, (strategy, params, rows)
    return hits[0]


class Boom:
    """A model whose every session fails at its first encode."""

    def __init__(self, inner):
        self.vocab = inner.vocab

    def encode(self, *a, **k):
        raise RuntimeError("boom")


class TestSweep:
    def test_rows_and_baseline_delta(
        self, unstable_model, small_corpus, sweep_strategies
    ):
        spec = SweepSpec(strategies=sweep_strategies, beam=BeamConfig(beam_width=4))
        rows = sweep({"uni": unstable_model}, small_corpus[:6], spec)
        assert len(rows) == len(sweep_strategies)
        base = find_row(rows, "hold-n", "n=0")
        assert base.delta_latency == pytest.approx(0.0, abs=1e-12)
        # every other row is measured against that baseline on the same utts
        off = find_row(rows, "offline")
        assert off.delta_latency == pytest.approx(
            off.mean_t_out - base.mean_t_out, abs=1e-9
        )
        assert off.delta_latency > 0

    def test_rows_sorted_by_delta(
        self, unstable_model, small_corpus, sweep_strategies
    ):
        spec = SweepSpec(strategies=sweep_strategies, beam=BeamConfig(beam_width=4))
        rows = sweep({"uni": unstable_model}, small_corpus[:6], spec)
        deltas = [r.delta_latency for r in rows]
        assert deltas == sorted(deltas)

    def test_baseline_computed_even_when_not_requested(
        self, unstable_model, small_corpus
    ):
        spec = SweepSpec(strategies=(Offline(),), beam=BeamConfig(beam_width=4))
        rows = sweep({"uni": unstable_model}, small_corpus[:4], spec)
        assert len(rows) == 1
        assert rows[0].strategy == "offline"
        assert rows[0].delta_latency > 0  # measured against implicit hold-0

    def test_multiple_models_share_one_baseline(
        self, stable_model, unstable_model, small_corpus
    ):
        spec = SweepSpec(strategies=(HoldN(0),), beam=BeamConfig(beam_width=4))
        rows = sweep(
            {"stable": stable_model, "unstable": unstable_model},
            small_corpus[:4],
            spec,
        )
        stable_row = [r for r in rows if r.model == "stable"][0]
        unstable_row = [r for r in rows if r.model == "unstable"][0]
        # first named model anchors the baseline
        assert stable_row.delta_latency == pytest.approx(0.0, abs=1e-12)
        assert unstable_row.delta_latency == pytest.approx(
            unstable_row.mean_t_out - stable_row.mean_t_out, abs=1e-9
        )

    def test_empty_inputs_rejected(self, unstable_model, small_corpus):
        with pytest.raises(ConfigError):
            sweep({}, small_corpus, SweepSpec(strategies=(HoldN(0),)))
        with pytest.raises(ConfigError):
            sweep({"m": unstable_model}, [], SweepSpec(strategies=(HoldN(0),)))
        with pytest.raises(ConfigError):
            SweepSpec(strategies=())

    @pytest.mark.parametrize("field, value, match", [
        ("workers", 1.5, "workers must be an integer"),
        ("workers", True, "workers must be an integer"),
        ("workers", "2", "workers must be an integer"),
        ("chunk_len_sec", "0.5", "chunk_len_sec must be a number"),
    ])
    def test_ill_typed_config(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            SweepSpec(strategies=(HoldN(0),), **{field: value})

    @pytest.mark.parametrize(
        "strategies, repeated",
        [
            ((HoldN(2), HoldN(2), HoldN(0)), "HoldN(n=2)"),
            ((Offline(), WaitK(1, 4.0), WaitK(1, rate=4)), "WaitK(k=1, rate=4)"),
            ((LocalAgreement(), LocalAgreement()), "LocalAgreement()"),
        ],
    )
    def test_repeated_strategy_rejected(self, strategies, repeated):
        with pytest.raises(ConfigError, match=re.escape(repeated)):
            SweepSpec(strategies=strategies)

    @pytest.mark.parametrize("which", ["synthetic", "transformer"])
    def test_worker_parity(self, which, unstable_model, small_corpus, sweep_strategies):
        # the workers get their models pickled
        model, utts = unstable_model, small_corpus[:4]
        if which == "transformer":
            model = load_model(str(FIXTURES / "bidi.bin"))
            utts = gen_dataset(SyntheticTaskSpec(), 4, seed=12)
        spec1 = SweepSpec(
            strategies=sweep_strategies, beam=BeamConfig(beam_width=4), workers=1
        )
        spec2 = SweepSpec(
            strategies=sweep_strategies, beam=BeamConfig(beam_width=4), workers=2
        )
        a = sweep({"uni": model}, utts, spec1)
        b = sweep({"uni": model}, utts, spec2)
        assert a == b

    def test_failed_cell_becomes_nan_row(self, unstable_model, small_corpus):
        spec = SweepSpec(strategies=(Offline(),), beam=BeamConfig(beam_width=4))
        said = re.escape("sweep cell broken/offline: RuntimeError('boom')")
        with pytest.warns(UserWarning, match=said):
            rows = sweep(
                {"ok": unstable_model, "broken": Boom(unstable_model)},
                small_corpus[:3],
                spec,
            )
        broken = [r for r in rows if r.model == "broken"][0]
        ok = [r for r in rows if r.model == "ok"][0]
        assert math.isnan(broken.wer) and math.isnan(broken.delta_latency)
        assert math.isfinite(ok.wer)
        assert rows[-1].model == "broken"  # nan rows sort last

    def test_failed_baseline_model_leaves_no_delta(
        self, unstable_model, small_corpus
    ):
        """The first model fails, so its unrequested hold-0 cell, the
        baseline, fails too: that cell warns like a requested one, every
        delta is nan, and the requested rows still come back."""
        spec = SweepSpec(strategies=(Offline(),), beam=BeamConfig(beam_width=4))
        with pytest.warns(UserWarning) as caught:
            rows = sweep(
                {"broken": Boom(unstable_model), "ok": unstable_model},
                small_corpus[:3],
                spec,
            )
        said = {str(w.message) for w in caught}
        assert said == {
            "sweep cell broken/offline: RuntimeError('boom')",
            "sweep cell broken/hold-n: RuntimeError('boom')",
        }
        assert [(r.model, r.strategy) for r in rows] == [
            ("broken", "offline"), ("ok", "offline")
        ]
        assert all(math.isnan(r.delta_latency) for r in rows)
        ok = rows[1]
        assert math.isfinite(ok.wer) and math.isfinite(ok.mean_t_out)

    def test_cell_that_commits_nothing_keeps_its_wer(
        self, unstable_model, small_corpus
    ):
        class EosOnly:
            """Delegates everything but puts all next-token mass on eos, so
            no session commits a token."""

            def __init__(self, inner):
                self._inner = inner
                self.vocab = inner.vocab

            def __getattr__(self, name):
                return getattr(self._inner, name)

            @staticmethod
            def _eos(lps):
                out = np.full_like(lps, -30.0)
                out[..., EOS_ID] = 0.0
                return out

            def dec_init(self, enc, prefix=()):
                state, lps = self._inner.dec_init(enc, prefix)
                return state, self._eos(lps)

            def dec_advance(self, state, rows, token_ids):
                state, lps = self._inner.dec_advance(state, rows, token_ids)
                return state, self._eos(lps)

        spec = SweepSpec(
            strategies=(HoldN(0), Offline()), beam=BeamConfig(beam_width=4)
        )
        rows = sweep(
            {"ok": unstable_model, "mute": EosOnly(unstable_model)},
            small_corpus[:3],
            spec,
        )
        mute = [r for r in rows if r.model == "mute"]
        assert len(mute) == 2
        for r in mute:
            assert r.wer == 1.0  # every reference token deleted
            assert math.isnan(r.mean_t_out) and math.isnan(r.delta_latency)


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_tradeoff_sweep_matches_its_golden_table(capsys):
    """scripts/tradeoff_sweep.py prints its checked-in table byte for byte,
    with one worker or two, and leaves no worker process behind."""
    spec = importlib.util.spec_from_file_location(
        "tradeoff_sweep", SCRIPTS / "tradeoff_sweep.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    golden = (SCRIPTS / "tradeoff_sweep_utts8_seed11.txt").read_text()
    for workers in ("1", "2"):
        assert script.main(["--utts", "8", "--seed", "11", "--workers", workers]) == 0
        assert capsys.readouterr().out == golden, workers
        assert multiprocessing.active_children() == []


def _blas_threads(_) -> int:
    return training._openblas()[0]()


def test_sweep_workers_hold_blas_to_one_thread():
    """Each worker of the sweep's pool runs BLAS on one thread, even when
    the caller's pool, which a forked worker would inherit, is wider."""
    blas = training._openblas()
    if blas is None:
        pytest.skip("this numpy has no bundled OpenBLAS to ask")
    get, put = blas
    was = get()
    put(2)
    try:
        with harness._pool(2) as pool:
            assert list(pool.map(_blas_threads, range(4))) == [1] * 4
        assert get() == 2  # the caller's own count is left alone
    finally:
        put(was)


class TestCsv:
    def test_header_and_formatting(self):
        rows = [
            TradeoffRow("m", "hold-n", "n=2", 0.25, 1.5, 0.125),
        ]
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER == "model,strategy,params,wer,mean_t_out,delta_latency"
        assert lines[1] == "m,hold-n,n=2,0.2500,1.5000,0.1250"

    def test_save_round_trip(self, tmp_path):
        rows = [TradeoffRow("m", "offline", "", 0.0, 2.0, 0.5)]
        path = str(tmp_path / "rows.csv")
        save_sweep_csv(rows, path)
        assert open(path).read() == rows_to_csv(rows)


class TestEvalTokens:
    def test_reference_side_by_default(self, small_corpus):
        u = small_corpus[0]
        assert eval_tokens(u) == u.reference_tokens

    def test_target_side_when_present(self, rng):
        from streamdec.core import Utterance

        u = Utterance(
            "t", rng.normal(size=(4, 2)), ("a",), target_tokens=("b", "c")
        )
        assert eval_tokens(u) == ("b", "c")


class TestCompareModes:
    def test_modes_agree_on_synthetic_model(self, unstable_model, small_corpus):
        cmp = compare_modes(
            unstable_model,
            small_corpus[:4],
            LocalAgreement(),
            beam=BeamConfig(beam_width=4),
        )
        assert isinstance(cmp, ModeComparison)
        assert cmp.equal
        assert cmp.divergence is None
        assert cmp.utterances == 4
        assert cmp.chunks > 4
        # unidirectional: both modes touch each frame exactly once
        total = sum(len(u.frames) for u in small_corpus[:4])
        assert cmp.forced_positions_encoded == total
        assert cmp.buffered_positions_encoded == total

    def test_divergence_reported_with_location(self, unstable_model, small_corpus):
        class Flaky:
            """Delegates everything but swaps the two most likely tokens of
            the distribution the beam starts from on every second dec_init:
            the lockstep sessions each start one search per chunk, so the
            second session's searches disagree."""

            def __init__(self, inner):
                self._inner = inner
                self.vocab = inner.vocab
                self._calls = 0

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def dec_init(self, enc, prefix=()):
                state, lps = self._inner.dec_init(enc, prefix)
                self._calls += 1
                if self._calls % 2 == 0:
                    lps = lps.copy()
                    last = lps[-1]
                    top, second = np.argsort(-last)[:2]
                    last[top], last[second] = last[second], last[top]
                return state, lps

        flaky = Flaky(unstable_model)
        cmp = compare_modes(
            flaky, small_corpus[:2], HoldN(0), beam=BeamConfig(beam_width=2)
        )
        assert not cmp.equal
        d = cmp.divergence
        assert d.utt_id in {u.id for u in small_corpus[:2]}
        assert d.chunk_index >= 1
        assert d.field_name in ("tokens", "log_probs", "commit")
        assert d.forced != d.buffered
