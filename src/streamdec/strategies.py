"""Partial-hypothesis selection: which prefix of the fresh continuation W
decoded at a chunk is committed (displayed irreversibly).

* hold-n:N -- all but the last N tokens; the tail is assumed unstable.
* wait-k[:K[:RATE]] -- nothing for the first K chunks, then RATE tokens per
  second from a fractional budget carried across chunks.
* local-agreement -- the longest common prefix of two consecutive chunks'
  continuations.
* offline -- nothing until the stream ends.

Each strategy is one class listed in ``STRATEGIES`` whose ``select`` is its
rule, and ``parse_strategy`` builds one from its spec. ``select_prefix`` is
the one entry point: it flushes all of W on the final chunk and hands every
other chunk to the strategy's ``select``, with the ``Chunk`` (its index and
length) and the rule's own state from the previous chunk, ``None`` before
the first: wait-k keeps its budget, local agreement the uncommitted tail of
the previous continuation, hold-n and offline nothing. W never holds
end-of-sequence: beam search extends paths with word ids only. A rule gets W
as a zero-argument function and calls it only when its choice depends on W
(offline never does, wait-k not while it waits); a chunk on which no rule
calls it is not decoded. Tokens are opaque to every rule.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, Sequence

from .core import FIELD_TYPES, Chunk, ConfigError, check_int, check_real


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
        self, w: Callable[[], tuple], chunk: Chunk, state: Any
    ) -> tuple[tuple, Any]:
        """The prefix of ``w()`` that ``chunk`` (not the final one) commits,
        and the rule's state for the next chunk (``None`` on the first). A
        rule calls ``w`` only when its choice depends on it."""
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

    def select(self, w, chunk, state):
        """All of w except its last n tokens."""
        cont = w()
        return cont[: max(0, len(cont) - self.n)], None


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

    def select(self, w, chunk, budget):
        """Nothing for the first k chunks; afterwards emit floor(budget)
        tokens, where the budget grows by rate * chunk length per chunk and
        unused fractions carry over."""
        if chunk.index <= self.k:
            return (), budget
        budget = (budget or 0.0) + self.rate * chunk.chunk_len_sec
        # the epsilon lets float dust (e.g. 3.9999999996) count as a whole token
        whole = math.floor(budget + 1e-9)
        cont = w() if whole else ()
        emit = min(len(cont), whole)
        # the max() keeps the carried budget from dipping below zero
        return cont[:emit], max(budget - emit, 0.0)


@dataclass(frozen=True)
class LocalAgreement(StrategyConfig):
    name = "local-agreement"

    def select(self, w, chunk, tail):
        """Commit the agreement between this chunk's continuation and the
        previous one's uncommitted tail; this chunk's own uncommitted tail
        is kept for the next round."""
        cont = w()
        agreed = lcp(tail or (), cont)
        return agreed, cont[len(agreed) :]


@dataclass(frozen=True)
class Offline(StrategyConfig):
    name = "offline"

    def select(self, w, chunk, state):
        return (), None


# The strategy table: a new strategy is one class above and one entry here.
STRATEGIES: dict[str, type[StrategyConfig]] = {
    cls.name: cls for cls in (HoldN, WaitK, LocalAgreement, Offline)
}
ALIASES = {"hold-0": "hold-n:0"}


def lcp(a: Sequence, b: Sequence) -> tuple:
    """Longest common prefix of two token sequences."""
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return tuple(out)


def select_prefix(
    cfg: StrategyConfig, state: Any, chunk: Chunk, w: Callable[[], tuple]
) -> tuple[tuple, Any]:
    """Dispatch to the configured strategy; the final chunk flushes all of
    ``w()`` whatever the strategy, and carries no state on."""
    if type(cfg) not in STRATEGIES.values():
        raise ConfigError(f"unknown strategy config {cfg!r}")
    if chunk.is_final:
        return w(), None
    return cfg.select(w, chunk, state)


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
