"""Regularity of Schubert variety tangent cones, two independent ways.

The tableau route (perm/shapes) evaluates the covexillary combinatorial
rule; the algebra route (ideal/gb) computes Hilbert-series data of the
tangent cone of a Kazhdan-Lusztig chart from scratch.  reg ties the two
together with reports, conjecture checkers and scans; cli is the console
surface and m2 exports Macaulay2 cross-check scripts.  The package exports
only __version__ and Permutation; import every other name from its module.
"""

from ._version import __version__
from .perm import Permutation  # the benchmark child imports it from the package

__all__ = ["__version__", "Permutation"]
