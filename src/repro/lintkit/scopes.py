"""Where the scoped rules apply: the determinism perimeter and the service layer.

The determinism perimeter is every ``repro`` module except the
packages in :data:`EXCLUDED`.  It fails closed: a new module is
checked the moment it exists, and no list has to be edited for it.
:func:`in_perimeter` is the one predicate that decides membership;
REPRO104, REPRO111, REPRO201, REPRO202, REPRO301 and REPRO501 check
the perimeter through it.
"""

from __future__ import annotations

from typing import Iterable, Tuple

#: Packages outside the determinism perimeter, each with its reason.
EXCLUDED: Tuple[str, ...] = (
    "repro.cli",  # host code: parses arguments and prints wall-time tables
    "repro.lintkit",  # the analyzer itself; no simulation runs it
    "repro.obs",  # observes wall time; nothing simulated reads it
    "repro.service",  # host code: job leases, deadlines and timestamps
)

#: The multi-threaded service layer (REPRO101, REPRO401, REPRO411/412).
SERVICE: Tuple[str, ...] = ("repro.service",)


def in_package(module: str, packages: Iterable[str]) -> bool:
    """Whether ``module`` is one of ``packages`` or inside one of them.

    Matching is package-exact: ``repro.obsolete`` is not in ``repro.obs``.
    """
    return any(
        module == package or module.startswith(package + ".") for package in packages
    )


def in_perimeter(module: str) -> bool:
    """Whether ``module`` is inside the determinism perimeter."""
    return in_package(module, ("repro",)) and not in_package(module, EXCLUDED)


#: How ``repro-lint --list-rules`` names the perimeter.
PERIMETER_LABEL = "repro minus " + ", ".join(EXCLUDED)
