"""Reference distributor stream: one Python tuple per (triangle, node) entry.

The shipped :func:`repro.core.distributor.interleave_stream` returns
the stream as four aligned columns built with one stable sort.  This is
the tuple list it replaced, unchanged apart from its name, and the
format :func:`tests.oracles.reference_event_machine` reads.
:func:`stream_columns` turns such a list into the shipped columns, so
tests can write streams as tuples and feed both machines the same rows.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.distributor import DistributorStream

#: Stream entry: (triangle id, node, pixels, texels).
StreamEntry = Tuple[int, int, int, int]


def reference_interleave_stream(
    triangles: List[np.ndarray],
    pixels: List[np.ndarray],
    texels: List[np.ndarray],
) -> List[StreamEntry]:
    """Merge per-node work lists back into global submission order.

    Produces the distributor's stream of ``(triangle, node, pixels,
    texels)`` entries, ordered by triangle id and, within one triangle,
    by node id — the order a broadcast distribution network would emit.
    """
    entries: List[StreamEntry] = []
    for node, ids in enumerate(triangles):
        px = pixels[node]
        tx = texels[node]
        for slot, tri in enumerate(ids.tolist()):
            entries.append((tri, node, int(px[slot]), int(tx[slot])))
    entries.sort()
    return entries


def stream_columns(entries: Sequence[StreamEntry]) -> DistributorStream:
    """The columnar stream holding ``entries`` as its rows, in order."""
    table = np.array(entries, dtype=np.int64).reshape(len(entries), 4)
    return DistributorStream(*(np.ascontiguousarray(column) for column in table.T))


def stream_rows(stream: DistributorStream) -> List[StreamEntry]:
    """The rows of a columnar stream as tuples, in order."""
    columns = (stream.triangle, stream.node, stream.pixels, stream.texels)
    return list(zip(*(column.tolist() for column in columns)))
