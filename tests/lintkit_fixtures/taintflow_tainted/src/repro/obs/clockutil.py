"""REPRO111 positive fixture helpers: a two-hop clock laundering chain
in an excluded package, outside the determinism perimeter."""

import time


def _raw_stamp():
    return time.time()


def elapsed_tag():
    return f"t{_raw_stamp():.0f}"
