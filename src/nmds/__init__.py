"""Near-MDS code constructions over GF(2^m) and their LRC optimality.

Twelve dimension-3 code families built from a quadratic evaluation block
plus fixed tail columns, with exact weight distributions, NMDS
classification, minimum-weight pairing, locality and bound checks.
"""

# perfbench/selftest.py (test_span_targets) checks that this attribute is the
# function; ROADMAP item 3 deletes this line together with that check.
from .classify import classify
