"""Regularity of Schubert variety tangent cones, two independent ways.

The tableau route (perm/shapes) evaluates the covexillary combinatorial
rule; the algebra route (ideal/gb) computes Hilbert-series data of the
tangent cone of a Kazhdan-Lusztig chart from scratch.  reg ties the two
together with reports, conjecture checkers and scans; cli is the console
surface and m2 exports Macaulay2 cross-check scripts.
"""

from ._version import __version__
from .gb import (
    GroebnerBasis,
    HilbertData,
    ResourceBudgetExceeded,
    buchberger,
    hilbert_data,
    hilbert_numerator,
    lowest_degree_forms_ideal,
    time_budget,
)
from .groth import (
    groth_degree,
    groth_min_degree,
    groth_spec_1mq,
    grothendieck,
    vexillary_degree_formula,
)
from .ideal import (
    Ideal,
    kl_generators,
)
from .perm import (
    Permutation,
    bruhat_interval,
    bruhat_leq,
    contains_pattern,
    diagram,
    essential_set,
    is_covexillary,
    is_vexillary,
    length,
    sw_rank,
)
from .poly import MultiPoly, PolyRing, UniPoly
from .reg import (
    RegularityReport,
    ScanRecord,
    check_conjectures,
    finalps_check,
    kl_polynomial,
    max_reg_scan,
    ps_series,
    regularity,
    staircase_permutation,
)
from .shapes import (
    Filling,
    NotCovexillaryError,
    companion_permutation,
    rank_filling,
    regularity_formula,
)

__all__ = [
    "__version__",
    "Permutation",
    "PolyRing",
    "MultiPoly",
    "UniPoly",
    "Ideal",
    "GroebnerBasis",
    "HilbertData",
    "RegularityReport",
    "ScanRecord",
    "Filling",
    "NotCovexillaryError",
    "ResourceBudgetExceeded",
    "time_budget",
    "length",
    "sw_rank",
    "bruhat_leq",
    "bruhat_interval",
    "contains_pattern",
    "is_covexillary",
    "is_vexillary",
    "diagram",
    "essential_set",
    "companion_permutation",
    "rank_filling",
    "regularity_formula",
    "kl_generators",
    "buchberger",
    "lowest_degree_forms_ideal",
    "hilbert_numerator",
    "hilbert_data",
    "grothendieck",
    "groth_degree",
    "groth_min_degree",
    "groth_spec_1mq",
    "vexillary_degree_formula",
    "regularity",
    "ps_series",
    "finalps_check",
    "kl_polynomial",
    "check_conjectures",
    "max_reg_scan",
    "staircase_permutation",
]
