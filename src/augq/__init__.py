"""Exact augmentation-ideal quotients of commutative augmented rings.

Everything runs over the integers with exact arithmetic: Hermite and Smith
normal forms drive the lattice work, finite abelian groups carry the
quotient invariants, and a small stable of constructors (group rings,
Burnside rings, representation rings) supplies rings to experiment on.
Stabilization of the quotient sequence is only ever detected empirically;
no report claims certainty.
"""

from .abgroup import (
    FinAbGroup,
    InconsistentProfileError,
    NotPrimeError,
    ParseError,
    ValuationProfile,
)
from .augring import (
    AugmentedRing,
    DimensionMismatchError,
    QuotientResult,
    RankDropError,
    RingSpecError,
    ValidationReport,
)
from .constructors import (
    BadParameterError,
    CayleyGroup,
    CayleyTableError,
    MarksMatrix,
    SubgroupClasses,
    TooLargeError,
    burnside_ring,
    cayley_from_abelian,
    dihedral_group,
    enumerate_subgroups,
    group_ring,
    parse_group_spec,
    rep_ring_abelian,
    rep_ring_dihedral,
    symmetric_group,
    table_of_marks,
)
from .intlinalg import (
    AugqError,
    IntMatrix,
    InvariantFactors,
    Lattice,
    NotASublatticeError,
    kernel_basis,
    lattice_from_generators,
    quotient_invariants,
    smith_invariants,
    snf,
)
from .stabilize import (
    ReportInconsistencyError,
    StabilizationReport,
    build_report,
    detect_stabilization,
    lambda_diagnostics,
    quotient_sequence,
    report_csv_rows,
    report_from_dict,
    report_from_json,
    report_to_dict,
    report_to_json,
    verify_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedRing",
    "AugqError",
    "BadParameterError",
    "CayleyGroup",
    "CayleyTableError",
    "DimensionMismatchError",
    "FinAbGroup",
    "InconsistentProfileError",
    "IntMatrix",
    "InvariantFactors",
    "Lattice",
    "MarksMatrix",
    "NotASublatticeError",
    "NotPrimeError",
    "ParseError",
    "QuotientResult",
    "RankDropError",
    "ReportInconsistencyError",
    "RingSpecError",
    "StabilizationReport",
    "SubgroupClasses",
    "TooLargeError",
    "ValidationReport",
    "ValuationProfile",
    "burnside_ring",
    "build_report",
    "cayley_from_abelian",
    "detect_stabilization",
    "dihedral_group",
    "enumerate_subgroups",
    "group_ring",
    "kernel_basis",
    "lambda_diagnostics",
    "lattice_from_generators",
    "parse_group_spec",
    "quotient_invariants",
    "smith_invariants",
    "quotient_sequence",
    "rep_ring_abelian",
    "rep_ring_dihedral",
    "report_csv_rows",
    "report_from_dict",
    "report_from_json",
    "report_to_dict",
    "report_to_json",
    "snf",
    "symmetric_group",
    "table_of_marks",
    "verify_bound",
]
