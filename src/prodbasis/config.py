"""Central record of the numeric tolerances used across the package.

The tile constructions are algebraically exact; fixed tolerances are what
make their properties checkable in floating point.  Every module reads its
thresholds from :data:`TOLERANCES` when a function is called, so a report
produced with one configuration is reproducible.  Only ``verify --tol/--eta``
sets thresholds for a run, so only its path takes them as an argument,
defaulting to :data:`TOLERANCES`: ``verify.check_upb`` forwards its record
to ``overlap_verdict`` and its ``tol.orthonormality`` to
``check_orthonormal``.  The see-saw on that path, which neither flag sets,
reads ``TOLERANCES.operator_interval`` like any other function.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    unit_norm: float = 1e-12          # |norm - 1| for state vectors
    orthonormality: float = 1e-10     # max|Gram - I| for basis sets
    operator_interval: float = 1e-8   # slack on 0 <= Q <= I for see-saw input
    upb_margin: float = 1e-3          # overlap < 1 - upb_margin certifies numerically
    extendible_margin: float = 1e-8   # overlap >= 1 - extendible_margin flags a witness
    range_cutoff: float = 1e-9        # eigenvalue cutoff for range extraction
    ppt: float = 1e-10                # min partial-transpose eigenvalue >= -ppt
    ray_grouping: float = 1e-8        # |overlap| >= 1 - ray_grouping merges rays
    split_inside_residual: float = 1e-10
    split_outside_overlap: float = 1e-20
    set_match: float = 1e-9           # default for phase-insensitive set equality


TOLERANCES = Tolerances()
