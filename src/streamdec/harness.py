"""Accuracy-latency sweeps and the lockstep session comparison harness.

The sweep runs every (model, strategy) cell over the same utterance list, so
mean-output-time deltas between rows are directly comparable: the timing of
the input stream itself contributes identically to both sides and cancels in
the difference.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

from . import training
from .core import (DEFAULT_CHUNK_SEC, ConfigError, Utterance, check_int,
                   check_real, frames_per_chunk)
from .core import eval_tokens  # noqa: F401  (harness.eval_tokens is public)
from .decoder import (
    BUFFERED_STATE,
    FORCED_REDECODE,
    BeamConfig,
    Session,
    run_session,
    step_chunk,
)
from .metrics import latency_delta, score_logs
from .model import SequenceModel
from .strategies import HoldN, StrategyConfig


@dataclass(frozen=True)
class SweepSpec:
    strategies: tuple[StrategyConfig, ...]
    chunk_len_sec: float = DEFAULT_CHUNK_SEC
    beam: BeamConfig = field(default_factory=BeamConfig)
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ConfigError("sweep needs at least one strategy")
        check_real("chunk_len_sec", self.chunk_len_sec, "(0, inf)")
        check_int("workers", self.workers, least=1)
        for i, s in enumerate(self.strategies):
            if s in self.strategies[:i]:
                raise ConfigError(f"sweep lists strategy {s!r} more than once")


@dataclass(frozen=True)
class TradeoffRow:
    model: str
    strategy: str
    params: str
    wer: float
    mean_t_out: float
    delta_latency: float

    def csv(self) -> str:
        values = (getattr(self, f.name) for f in fields(self))
        return ",".join(v if isinstance(v, str) else f"{v:.4f}" for v in values)


CSV_HEADER = ",".join(f.name for f in fields(TradeoffRow))


def _cell_job(args):
    model, utts, strategy, chunk_len_sec, beam = args
    try:
        logs = {
            u.id: run_session(model, u, strategy, chunk_len_sec, beam)
            for u in utts
        }
        return (*score_logs(utts, logs), None)
    except Exception as e:  # failed cells become nan rows, not a dead sweep
        return None, None, repr(e)


def _one_blas_thread_for_life() -> None:
    """A sweep worker's initializer: its BLAS runs on one thread, where the
    thread count can be reached, so that the pool's processes do not each
    keep a BLAS pool as wide as the machine and fight over its CPUs."""
    blas = training._openblas()
    if blas is not None:
        blas[1](1)


def _pool(workers: int) -> ProcessPoolExecutor:
    """The sweep's worker processes, each with BLAS held to one thread."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread_for_life)


def sweep(
    models: Mapping[str, SequenceModel],
    utts: Sequence[Utterance],
    spec: SweepSpec,
) -> list[TradeoffRow]:
    """One TradeoffRow per (model, strategy) cell.

    Every cell runs the same utterances; the latency baseline is the first
    model's hold-0 cell, which runs even when hold-0 is not among the
    requested strategies and only becomes a row when requested. Rows are
    ordered by latency delta, then model and strategy labels; failed cells
    carry nan metrics, sort last and are each reported by a warning that
    names the cell and its error. A chunk length that is not a whole number
    of some utterance's frames is a ConfigError before any cell runs.
    """
    if not models:
        raise ConfigError("sweep needs at least one model")
    if not utts:
        raise ConfigError("sweep needs at least one utterance")
    for u in utts:
        frames_per_chunk(spec.chunk_len_sec, u.frame_period_sec)
    cells = [(name, strat) for name in models for strat in spec.strategies]
    baseline = (next(iter(models)), HoldN(0))
    jobs = cells if baseline in cells else [*cells, baseline]
    args = [
        (models[name], utts, strat, spec.chunk_len_sec, spec.beam)
        for name, strat in jobs
    ]
    if spec.workers > 1:
        with _pool(spec.workers) as pool:
            outs = list(pool.map(_cell_job, args))
    else:
        outs = [_cell_job(a) for a in args]
    results = dict(zip(jobs, outs))

    for (name, strat), (_, _, err) in results.items():
        if err is not None:
            warnings.warn(f"sweep cell {name}/{strat.name}: {err}", stacklevel=2)
    base = results[baseline][1]
    nan = float("nan")
    rows = []
    for name, strat in cells:
        breakdown, report, _ = results[(name, strat)]
        rows.append(
            TradeoffRow(
                model=name,
                strategy=strat.name,
                params=strat.params,
                wer=breakdown.rate if breakdown else nan,
                mean_t_out=report.mean_output_time_sec if report else nan,
                delta_latency=latency_delta(report, base) if report and base else nan,
            )
        )

    def order(r: TradeoffRow):
        bad = r.delta_latency != r.delta_latency  # nan check
        return (bad, r.delta_latency if not bad else 0.0, r.model, r.strategy, r.params)

    rows.sort(key=order)
    return rows


def rows_to_csv(rows: Sequence[TradeoffRow]) -> str:
    return "\n".join([CSV_HEADER, *(r.csv() for r in rows)]) + "\n"


def save_sweep_csv(rows: Sequence[TradeoffRow], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(rows_to_csv(rows))


@dataclass(frozen=True)
class Divergence:
    utt_id: str
    chunk_index: int
    field_name: str
    forced: tuple
    buffered: tuple


@dataclass(frozen=True)
class ModeComparison:
    equal: bool
    divergence: Divergence | None
    utterances: int
    chunks: int
    forced_positions_encoded: int
    buffered_positions_encoded: int


def compare_modes(
    model: SequenceModel,
    utts: Sequence[Utterance],
    strategy: StrategyConfig,
    chunk_len_sec: float = DEFAULT_CHUNK_SEC,
    beam: BeamConfig = BeamConfig(),
) -> ModeComparison:
    """Run each utterance through two sessions on the one shared model in
    lockstep, labelled ``forced`` and ``buffered``, which must agree.

    Both sessions run the same chunk loop, so any mismatch means the model
    is not deterministic or one session's calls changed state the other
    reads (a cache keyed wrongly, a state shared by mistake). Chunk outputs
    (tokens and per-token log-probs) and commits are compared chunk by
    chunk; the first mismatch is reported. Encoder-position counts
    accumulate per session either way.
    """
    pos = {FORCED_REDECODE: 0, BUFFERED_STATE: 0}
    n_chunks = 0
    first_div: Divergence | None = None
    for u in utts:
        sessions = {
            m: Session(
                model=model,
                utterance=u,
                strategy=strategy,
                chunk_len_sec=chunk_len_sec,
                beam=beam,
                mode=m,
            )
            for m in (FORCED_REDECODE, BUFFERED_STATE)
        }
        for chunk in sessions[FORCED_REDECODE].chunks():
            n_chunks += 1
            outs = {}
            commits = {}
            for m, s in sessions.items():
                outs[m], commits[m] = step_chunk(s, chunk)
            if first_div is None:
                f, b = outs[FORCED_REDECODE], outs[BUFFERED_STATE]
                if f.tokens != b.tokens:
                    first_div = Divergence(u.id, chunk.index, "tokens", f.tokens, b.tokens)
                elif f.log_probs != b.log_probs:
                    first_div = Divergence(u.id, chunk.index, "log_probs", f.log_probs, b.log_probs)
                elif commits[FORCED_REDECODE] != commits[BUFFERED_STATE]:
                    first_div = Divergence(
                        u.id, chunk.index, "commit",
                        commits[FORCED_REDECODE], commits[BUFFERED_STATE],
                    )
        for m, s in sessions.items():
            pos[m] += s.positions_encoded
    return ModeComparison(
        equal=first_div is None,
        divergence=first_div,
        utterances=len(utts),
        chunks=n_chunks,
        forced_positions_encoded=pos[FORCED_REDECODE],
        buffered_positions_encoded=pos[BUFFERED_STATE],
    )
