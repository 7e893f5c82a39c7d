"""REPRO111 positive fixture: deterministic code calls a helper whose
return value derives from the wall clock two calls away, in a package
outside the determinism perimeter."""

from repro.obs.clockutil import elapsed_tag


def step(state):
    tag = elapsed_tag()
    return f"{state}/{tag}"
