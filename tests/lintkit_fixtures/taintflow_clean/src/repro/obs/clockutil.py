"""REPRO111 negative fixture helper: entropy stays in an excluded package,
outside the determinism perimeter."""

import time


def now_seconds():
    return time.time()
