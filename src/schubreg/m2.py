"""Macaulay2 script export for external cross-validation.

The scripts recompute tangent cone, Hilbert series, Betti table and
regularity from the exact generators this tool produced, printing every
value as a KEY=VALUE line that an outer harness can diff against the JSON
report.  Variables are emitted as z_(i,j): in Macaulay2 an underscore is
the subscript operator, so a bare z_5_1 would parse as (z_5)_1 instead of
naming one variable.
"""

from __future__ import annotations

import re

from ._version import __version__
from .ideal import kl_generators
from .perm import Permutation, chart_shape

_VAR = re.compile(r"z_(\d+)_(\d+)")


def _m2ify(text: str) -> str:
    return _VAR.sub(r"z_(\1,\2)", text)


def m2_script(v: Permutation, w: Permutation) -> str:
    """A standalone Macaulay2 script checking the chart of (v, w)."""
    chart_ideal = kl_generators(v, w)
    ring = chart_ideal.ring
    lines = [
        "-- schubreg %s cross-check script" % __version__,
        "-- chart pair: v=%s w=%s" % (v, w),
        "-- expected: dim %d, codim %d in %d variables" % chart_shape(v, w),
    ]
    # printed with a positive first term (MultiPoly prints by degree first)
    gens = [g if g.sorted_terms()[0][1] > 0 else -g for g in chart_ideal.generators if g.terms]
    if ring.nvars == 0 or not gens:
        # Nothing for Macaulay2 to chew on: the quotient is the whole ring.
        lines += [
            "-- the chart ideal is zero; the tangent cone is the ambient space",
            'print("n_vars=%d")' % ring.nvars,
            'print("dim=%d")' % ring.nvars,
            'print("codim=0")',
            'print("multiplicity=1")',
            'print("h_polynomial=1")',
            'print("reg=0")',
        ]
        return "\n".join(lines) + "\n"
    names = ", ".join(_m2ify(name) for name in ring.names)
    lines += [
        "R = QQ[%s];" % names,
        "I = ideal(",
    ]
    for k, g in enumerate(gens):
        tail = "," if k + 1 < len(gens) else ""
        lines.append("  %s%s" % (_m2ify(str(g)), tail))
    lines += [
        ");",
        "C = tangentCone I;",
        "hs = hilbertSeries(comodule C, Reduce => true);",
        'print("n_vars=" | toString numgens R);',
        'print("dim=" | toString dim C);',
        'print("codim=" | toString codim C);',
        'print("multiplicity=" | toString degree C);',
        'print("h_polynomial=" | toString numerator hs);',
        "F = res comodule C;",
        'print("betti=" | toString betti F);',
        'print("reg=" | toString regularity comodule C);',
    ]
    return "\n".join(lines) + "\n"


def write_m2_script(v: Permutation, w: Permutation, path) -> str:
    text = m2_script(v, w)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
