"""Taint-source vocabulary: the one list of nondeterminism sources.

Two source categories exist:

* ``wall-clock`` — any call in :data:`WALL_CLOCK_CALLS`;
* ``rng`` — the process-global PRNG surfaces: ``random.<fn>`` (except
  an explicitly *seeded* ``random.Random(seed)``) and
  ``numpy.random.<fn>`` (except a *seeded* seedable constructor).

:func:`source_category` classifies one call.  REPRO111
(:mod:`repro.lintkit.rules.taintflow`) flags the sources written inside
the determinism perimeter; the summary layer propagates the categories
through assignments, expressions and helper calls, so REPRO111 can also
ask "does this function's return value derive from a clock or a global
PRNG, however indirectly?".
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Optional

#: Wall-clock reads; any of these makes a cycle count run-dependent.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: PRNG constructors that are deterministic *when seeded*.
SEEDABLE_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
    }
)

#: The taint categories a value can carry.
WALL_CLOCK = "wall-clock"
RNG = "rng"
CATEGORIES: FrozenSet[str] = frozenset({WALL_CLOCK, RNG})


def source_category(dotted: Optional[str], call: ast.Call) -> Optional[str]:
    """The taint category a call introduces, or ``None``.

    ``dotted`` is the import-resolved name of the call target
    (``time.monotonic``, ``numpy.random.default_rng``); value-rooted
    calls arrive as ``None`` and introduce nothing themselves (taint
    on the *receiver* is the evaluator's business, not this table's).
    """
    if dotted is None:
        return None
    if dotted in WALL_CLOCK_CALLS:
        return WALL_CLOCK
    if dotted in SEEDABLE_CONSTRUCTORS:
        # Seeded constructions are deterministic; unseeded draw entropy.
        if not call.args and not call.keywords:
            return RNG
        return None
    if dotted.startswith("random.") or dotted.startswith("numpy.random."):
        return RNG
    return None


def describe(category: str) -> str:
    """Human phrasing for finding messages."""
    if category == WALL_CLOCK:
        return "the wall clock"
    return "a process-global PRNG"
