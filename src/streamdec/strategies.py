"""Partial-hypothesis selection.

Given the fresh continuation W decoded at chunk c, each strategy decides which
prefix of W is committed (displayed irreversibly):

* hold-n      -- commit all but the last n tokens; the tail is assumed unstable.
* wait-k      -- commit nothing for the first k chunks, then emit at a fixed
                 token rate using a fractional budget that accumulates across
                 chunks.
* local agreement -- commit the longest common prefix of the continuations
                 produced by two consecutive chunks.
* offline     -- commit nothing until the stream ends.

On the final chunk every strategy flushes all of W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

from .core import EOS_TOKEN, ConfigError, ContractViolation


@dataclass(frozen=True)
class HoldN:
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ConfigError("hold-n requires n >= 0")


@dataclass(frozen=True)
class WaitK:
    k: int = 1
    rate: float = 4.0  # tokens per second once emission starts

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ConfigError("wait-k requires k >= 0")
        if self.rate <= 0:
            raise ConfigError("wait-k requires a positive rate")


@dataclass(frozen=True)
class LocalAgreement:
    pass


@dataclass(frozen=True)
class Offline:
    pass


StrategyConfig = Union[HoldN, WaitK, LocalAgreement, Offline]


@dataclass(frozen=True)
class StrategyState:
    """Carry-over between chunks: the discard buffer for local agreement and
    the fractional emission budget for wait-k."""

    discard_buffer: tuple = ()
    budget: float = 0.0


def initial_state() -> StrategyState:
    return StrategyState()


def hold_n(w: Sequence, n: int) -> tuple:
    """All of w except its last n tokens."""
    if n < 0:
        raise ConfigError("n must be >= 0")
    w = tuple(w)
    return w[: max(0, len(w) - n)]


def wait_k(
    w: Sequence,
    chunk_index: int,
    state: StrategyState,
    k: int,
    rate: float,
    chunk_len_sec: float,
) -> tuple[tuple, StrategyState]:
    """Nothing for the first k chunks; afterwards emit floor(budget) tokens,
    where the budget grows by rate * chunk_len_sec per chunk and unused
    fractions carry over."""
    w = tuple(w)
    if chunk_index < 1:
        raise ContractViolation("chunk_index is 1-based")
    if chunk_index <= k:
        return (), state
    budget = state.budget + rate * chunk_len_sec
    # the epsilon lets accumulated float dust (e.g. 3.9999999996) count as a
    # whole token; the max() keeps the carried budget from dipping below zero
    emit = min(len(w), math.floor(budget + 1e-9))
    out = w[:emit]
    return out, replace(state, budget=max(budget - emit, 0.0))


def lcp(a: Sequence, b: Sequence) -> tuple:
    """Longest common prefix of two token sequences."""
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return tuple(out)


def local_agreement(
    w: Sequence, chunk_index: int, state: StrategyState
) -> tuple[tuple, StrategyState]:
    """Commit the agreement between this chunk's continuation and the
    previous one's; the disagreeing tail is buffered for the next round."""
    w = tuple(w)
    if chunk_index < 1:
        raise ContractViolation("chunk_index is 1-based")
    if chunk_index == 1:
        return (), replace(state, discard_buffer=w)
    agreed = lcp(state.discard_buffer, w)
    return agreed, replace(state, discard_buffer=w[len(agreed) :])


def _strip_eos(tokens: tuple) -> tuple:
    if tokens and tokens[-1] == EOS_TOKEN:
        return tokens[:-1]
    return tokens


def select_prefix(
    cfg: StrategyConfig,
    state: StrategyState,
    chunk_index: int,
    is_final: bool,
    w: Sequence,
    chunk_len_sec: float = 0.5,
) -> tuple[tuple, StrategyState]:
    """Dispatch to the configured strategy; on the final chunk all of w is
    flushed regardless of strategy. The end-of-sequence marker is never part
    of the committed output."""
    w = tuple(w)
    if chunk_index < 1:
        raise ContractViolation("chunk_index is 1-based")
    if is_final:
        return _strip_eos(w), replace(state, discard_buffer=())
    if isinstance(cfg, HoldN):
        out = hold_n(w, cfg.n)
        new_state = state
    elif isinstance(cfg, WaitK):
        out, new_state = wait_k(
            w, chunk_index, state, cfg.k, cfg.rate, chunk_len_sec
        )
    elif isinstance(cfg, LocalAgreement):
        out, new_state = local_agreement(w, chunk_index, state)
    elif isinstance(cfg, Offline):
        out = ()
        new_state = state
    else:
        raise ConfigError(f"unknown strategy config {cfg!r}")
    return _strip_eos(out), new_state


def strategy_name(cfg: StrategyConfig) -> str:
    if isinstance(cfg, HoldN):
        return "hold-n"
    if isinstance(cfg, WaitK):
        return "wait-k"
    if isinstance(cfg, LocalAgreement):
        return "local-agreement"
    if isinstance(cfg, Offline):
        return "offline"
    raise ConfigError(f"unknown strategy config {cfg!r}")


def strategy_params(cfg: StrategyConfig) -> str:
    if isinstance(cfg, HoldN):
        return f"n={cfg.n}"
    if isinstance(cfg, WaitK):
        return f"k={cfg.k} r={cfg.rate:g}"
    return ""


def parse_strategy(
    name: str,
    n: int | None = None,
    k: int | None = None,
    rate: float | None = None,
) -> StrategyConfig:
    """Build a strategy config from CLI-style arguments."""
    name = name.lower()
    if name == "hold-0":
        return HoldN(0)
    if name == "hold-n":
        if n is None:
            raise ConfigError("hold-n requires --n")
        return HoldN(n)
    if name == "wait-k":
        return WaitK(k if k is not None else 1, rate if rate is not None else 4.0)
    if name == "local-agreement":
        return LocalAgreement()
    if name == "offline":
        return Offline()
    raise ConfigError(f"unknown strategy {name!r}")
