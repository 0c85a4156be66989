"""Partial-hypothesis selection.

Given the fresh continuation W decoded at chunk c, each strategy decides which
prefix of W is committed (displayed irreversibly):

* hold-n:N    -- commit all but the last N tokens; the tail is assumed unstable.
* wait-k[:K[:RATE]] -- commit nothing for the first K chunks, then emit RATE
                 tokens per second using a fractional budget that accumulates
                 across chunks.
* local-agreement -- commit the longest common prefix of the continuations
                 produced by two consecutive chunks.
* offline     -- commit nothing until the stream ends.

Each strategy is one class listed in ``STRATEGIES`` whose ``select`` is its
rule, and ``parse_strategy`` builds one from its spec. ``select_prefix`` is
the one entry point: it flushes all of W on the final chunk and hands every
other chunk to the strategy's ``select``. W never holds end-of-sequence,
because the beam search only extends paths with word ids. A rule gets W as a
zero-argument function and calls it only when its choice depends on W
(offline never does, wait-k not while it waits); a chunk on which no rule
calls it is not decoded. Tokens are opaque to every rule.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable, Sequence

from .core import DEFAULT_CHUNK_SEC, FIELD_TYPES, ConfigError, ContractViolation, check_int, check_real


class StrategyConfig:
    """A commit strategy. Each subclass is a frozen dataclass whose fields,
    in order, are the parameters of its compact spec ``name[:p1[:p2]]``
    (fields without a default are required), and it knows its ``name``, its
    CSV ``params`` text and its selection rule."""

    name = ""

    @property
    def params(self) -> str:
        return ""

    @classmethod
    def usage(cls) -> str:
        """The spec pattern, e.g. ``hold-n:N`` or ``wait-k[:K[:RATE]]``."""
        out, opened = cls.name, 0
        for f in fields(cls):
            if f.default is not MISSING:
                out += "["
                opened += 1
            out += ":" + f.name.upper()
        return out + "]" * opened

    @classmethod
    def from_spec(cls, spec: str, values: Sequence[str]) -> StrategyConfig:
        fs = fields(cls)
        required = sum(f.default is MISSING for f in fs)
        if not required <= len(values) <= len(fs):
            raise ConfigError(f"strategy {spec!r}: expected {cls.usage()}")
        args = []
        for f, v in zip(fs, values):
            try:
                args.append(FIELD_TYPES[f.type](v))
            except ValueError:
                raise ConfigError(
                    f"strategy {spec!r}: {f.name.upper()} must be {f.type}, got {v!r}"
                ) from None
        try:
            return cls(*args)
        except ConfigError as e:
            raise ConfigError(f"strategy {spec!r}: {e}") from None

    def select(
        self, w: Callable[[], tuple], chunk_index: int, state: StrategyState,
        chunk_len_sec: float,
    ) -> tuple[tuple, StrategyState]:
        """The prefix of the continuation ``w()`` that chunk ``chunk_index``
        (1-based, not the final one) commits, and the state carried to the
        next chunk. A rule calls ``w`` only when its choice depends on it."""
        raise NotImplementedError


@dataclass(frozen=True)
class HoldN(StrategyConfig):
    n: int
    name = "hold-n"

    def __post_init__(self) -> None:
        check_int("hold-n n", self.n, least=0)

    @property
    def params(self) -> str:
        return f"n={self.n}"

    def select(self, w, chunk_index, state, chunk_len_sec):
        """All of w except its last n tokens."""
        cont = w()
        return cont[: max(0, len(cont) - self.n)], state


@dataclass(frozen=True)
class WaitK(StrategyConfig):
    k: int = 1
    rate: float = 4.0  # tokens per second once emission starts
    name = "wait-k"

    def __post_init__(self) -> None:
        check_int("wait-k k", self.k, least=0)
        check_real("wait-k rate", self.rate, "(0, inf)")

    @property
    def params(self) -> str:
        return f"k={self.k} r={self.rate:g}"

    def select(self, w, chunk_index, state, chunk_len_sec):
        """Nothing for the first k chunks; afterwards emit floor(budget)
        tokens, where the budget grows by rate * chunk_len_sec per chunk and
        unused fractions carry over."""
        if chunk_index <= self.k:
            return (), state
        budget = state.budget + self.rate * chunk_len_sec
        # the epsilon lets float dust (e.g. 3.9999999996) count as a whole token
        whole = math.floor(budget + 1e-9)
        cont = w() if whole else ()
        emit = min(len(cont), whole)
        # the max() keeps the carried budget from dipping below zero
        return cont[:emit], replace(state, budget=max(budget - emit, 0.0))


@dataclass(frozen=True)
class LocalAgreement(StrategyConfig):
    name = "local-agreement"

    def select(self, w, chunk_index, state, chunk_len_sec):
        """Commit the agreement between this chunk's continuation and the
        previous one's; the disagreeing tail is buffered for the next round."""
        cont = w()
        if chunk_index == 1:
            return (), replace(state, discard_buffer=cont)
        agreed = lcp(state.discard_buffer, cont)
        return agreed, replace(state, discard_buffer=cont[len(agreed) :])


@dataclass(frozen=True)
class Offline(StrategyConfig):
    name = "offline"

    def select(self, w, chunk_index, state, chunk_len_sec):
        return (), state


# The strategy table: a new strategy is one class above and one entry here.
STRATEGIES: dict[str, type[StrategyConfig]] = {
    cls.name: cls for cls in (HoldN, WaitK, LocalAgreement, Offline)
}
ALIASES = {"hold-0": "hold-n:0"}


@dataclass(frozen=True)
class StrategyState:
    """Carry-over between chunks: the discard buffer for local agreement and
    the fractional emission budget for wait-k."""

    discard_buffer: tuple = ()
    budget: float = 0.0


def lcp(a: Sequence, b: Sequence) -> tuple:
    """Longest common prefix of two token sequences."""
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return tuple(out)


def select_prefix(
    cfg: StrategyConfig,
    state: StrategyState,
    chunk_index: int,
    is_final: bool,
    w: Callable[[], tuple],
    chunk_len_sec: float = DEFAULT_CHUNK_SEC,
) -> tuple[tuple, StrategyState]:
    """Dispatch to the configured strategy; on the final chunk all of the
    continuation ``w()`` is flushed regardless of strategy."""
    if type(cfg) not in STRATEGIES.values():
        raise ConfigError(f"unknown strategy config {cfg!r}")
    if chunk_index < 1:
        raise ContractViolation("chunk_index is 1-based")
    if is_final:
        return w(), replace(state, discard_buffer=())
    return cfg.select(w, chunk_index, state, chunk_len_sec)


def parse_strategy(spec: str) -> StrategyConfig:
    """Build a strategy config from a compact spec ``name[:p1[:p2]]``, e.g.
    ``hold-n:4``, ``wait-k:3:4.0`` or ``offline``."""
    name, *values = ALIASES.get(spec, spec).split(":")
    if name not in STRATEGIES:
        raise ConfigError(
            f"unknown strategy {spec!r}; expected one of {spec_usage()}"
        )
    return STRATEGIES[name].from_spec(spec, values)


def spec_usage() -> str:
    return ", ".join([*(c.usage() for c in STRATEGIES.values()), *ALIASES])
