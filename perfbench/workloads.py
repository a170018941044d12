"""The benchmark's four workloads, why each exists, and what each must show.

Every workload calls the public library API with workers=1 in one process
per timed item; the multiprocessing scan path is left unmeasured on
purpose, because the reference machine is a shared 2-core VM where a
process pool measures the neighbours more than the code.  The times below
are plain seconds on that machine; the benchmark itself reports
reference-host seconds (see child.HostSpeed).

scan5
    Full maxReg(5) scan with no checks, writing a fresh JSON-lines cache
    (3,781 Bruhat pairs, about 1.8 s on a quiet machine).  It is the only
    workload where the tableau route's companion_permutation search is the
    largest layer (40-47% of traced time), and it exercises the cache
    write path.
resume5
    The same scan resumed from the complete cache a cold scan wrote in the
    run's set-up, so no pair is recomputed (about 0.1 s per resume; a run
    repeats it for --seconds and reports the median).  It uses the scan
    layer in the other direction: cache read plus scan_pairs enumeration.
    A cache-keying fix that speeds writes but slows reads shows up here.
sweep5
    max_reg_scan(5, checks=ALL_CHECKS), about 23 s and steady within 3%.
    Minor generation is the largest layer (kl_generators about 40%),
    KL/bruhat_interval about 13%, and hilbert_data is called 14,014 times
    for 3,678 distinct pairs, so about 74% of those calls repeat work.  A
    memoisation or essential-minor change must move this workload.
slow-charts
    regularity(v, w) on the frozen SLOW_CHARTS pool below; the Lazard basis
    (gb.buchberger under grevlex_t) is 85-95% of each chart.  One pass is
    about 12 s.
"""

from __future__ import annotations

import random

WORKLOADS = ("scan5", "resume5", "sweep5", "slow-charts")

# The slow-charts pool.  It was chosen by timing regularity() on S6 charts
# at the identity and on samples of S7 charts at the identity, keeping the
# slowest non-homogeneous charts that finish in a few seconds.  Measured
# single-chart times on the reference machine: (123456, 645123) 2.8 s,
# (1234567, 6527134) 2.5 s, (1234567, 5712346) 1.3 s; the rest take 0.01-0.6 s
# and the whole pool about 12 s.  Excluded, with the reason:
#   (1234567, 6741523): its tangent-cone stage alone takes 441 s.
#   About 11% of sampled S7 identity charts exceed 4 s each; a pool made of
#   them would make every run minutes long.
#   Full maxReg(6): 270 s per scan, too long for a run that is repeated
#   twenty-odd times per comparison.
# Every run computes the whole pool, so that a run's cost does not depend on
# which charts a seed happens to draw; the seed only picks the order.
SLOW_CHARTS = (
    ("123456", "645123"),
    ("123456", "635124"),
    ("123456", "564123"),
    ("123456", "641523"),
    ("123456", "561234"),
    ("123456", "135624"),
    ("123456", "546123"),
    ("123456", "563124"),
    ("213456", "645123"),
    ("123645", "341625"),
    ("1234567", "6527134"),
    ("1234567", "5712346"),
    ("1234567", "7146253"),
    ("1234567", "6427135"),
    ("1234567", "5762143"),
    ("1234567", "7523614"),
    ("1234567", "6742315"),
    ("1234567", "7453126"),
    ("1234567", "4617253"),
)

# Layers that must record calls on each workload in a traced run; a zero
# means the wiring no longer reaches the code it is meant to measure.
EXPECTED_LAYERS = {
    "scan5": (
        "reg.max_reg_scan",
        "reg.scan_pairs",
        "shapes.companion_permutation",
        "shapes.regularity_formula",
        "ideal.kl_generators",
        "gb.hilbert_data",
        "gb.buchberger.grevlex",
        "gb.hilbert_numerator",
        "kernel.normal_form",
        "reg.ScanRecord.to_json_line",
    ),
    "resume5": (
        "reg.max_reg_scan",
        "reg.scan_pairs",
        "reg.ScanRecord.from_json_line",
    ),
    "sweep5": (
        "reg.max_reg_scan",
        "reg.scan_pairs",
        "perm.bruhat_interval",
        "reg.kl_polynomial",
        "shapes.companion_permutation",
        "shapes.regularity_formula",
        "ideal.kl_generators",
        "gb.hilbert_data",
        "gb.buchberger.grevlex",
        "gb.hilbert_numerator",
        "kernel.normal_form",
    ),
    "slow-charts": (
        "ideal.kl_generators",
        "gb.hilbert_data",
        "gb.buchberger.grevlex",
        "gb.buchberger.grevlex_t",
        "gb.hilbert_numerator",
        "kernel.normal_form",
        "kernel.s_polynomial",
    ),
}


def chart_order(seed: int):
    """The slow-charts pool in the order the seed picks."""
    charts = list(SLOW_CHARTS)
    random.Random(seed).shuffle(charts)
    return charts
