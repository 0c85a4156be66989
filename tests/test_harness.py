import math

import numpy as np
import pytest

from streamdec.core import ConfigError
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
from streamdec.strategies import HoldN, LocalAgreement, Offline, WaitK


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

    def test_worker_parity(self, unstable_model, small_corpus, sweep_strategies):
        spec1 = SweepSpec(
            strategies=sweep_strategies, beam=BeamConfig(beam_width=4), workers=1
        )
        spec2 = SweepSpec(
            strategies=sweep_strategies, beam=BeamConfig(beam_width=4), workers=2
        )
        a = sweep({"uni": unstable_model}, small_corpus[:4], spec1)
        b = sweep({"uni": unstable_model}, small_corpus[:4], spec2)
        assert a == b

    def test_failed_cell_becomes_nan_row(self, unstable_model, small_corpus):
        class Boom:
            vocab = unstable_model.vocab
            mode = unstable_model.mode

            def encode(self, *a, **k):
                raise RuntimeError("boom")

        spec = SweepSpec(strategies=(Offline(),), beam=BeamConfig(beam_width=4))
        rows = sweep(
            {"ok": unstable_model, "broken": Boom()}, small_corpus[:3], spec
        )
        broken = [r for r in rows if r.model == "broken"][0]
        ok = [r for r in rows if r.model == "ok"][0]
        assert math.isnan(broken.wer) and math.isnan(broken.delta_latency)
        assert math.isfinite(ok.wer)
        assert rows[-1].model == "broken"  # nan rows sort last


class TestCsv:
    def test_header_and_formatting(self):
        rows = [
            TradeoffRow("m", "hold-n", "n=2", 0.25, 1.5, 0.125),
        ]
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
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
                self.mode = inner.mode
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
