"""Estimate-constant growth verdicts: calibration and the elliptic pair.

The restricted estimate constant C(n) is the reciprocal of the smallest
singular value on the orthogonal complement of the kernel.  Truncations
of diag(1/k) give C(n) = n (growing); identity maps give C = 1
(bounded).  The same machinery applied to a 1-D elliptic operator shows
how the verdict depends on the norms: between plain L2 grams the
constant grows like 4(N+1)^2, between H1_0 and H-1 grams it is exactly 1.
Run:  python3 demos/demo_estimate_diagnostics.py
"""

import numpy as np

from fcopt.spaces import SpaceDescriptor, LinearMap
from fcopt.diagnostics import (OperatorFamily, restricted_estimate_constant,
                               codim_growth_verdict)
from fcopt.elliptic import elliptic_sweep

sizes = (8, 16, 32, 64)


def harmonic(n):
    s = SpaceDescriptor("X", n)
    return LinearMap(np.diag(1.0 / np.arange(1.0, n + 1)), s, s)


print("diag(1/k) truncations:")
for n in sizes:
    rep = restricted_estimate_constant(harmonic(n))
    print("  n=%-3d  C(n) = %-8.4g  C(n)/n = %.4f" % (n, rep.constant,
                                                      rep.constant / n))
fam = OperatorFamily([(n, harmonic(n)) for n in sizes])
print("  verdict: %s" % codim_growth_verdict(fam).verdict)
print()

meshes = (15, 31, 63, 127)
l2 = elliptic_sweep(meshes, tag="L2L2", a=1.0, c=0.0)
h1 = elliptic_sweep(meshes, tag="H1H-1", a=1.0, c=0.0)
print("elliptic operator -(a y')' - c y, a=1, c=0:")
print("  N     L2/L2 constant    H1/H-1 constant")
for (n, rl), (_, rh) in zip(l2.levels, h1.levels):
    print("  %-4d  %-16.6g  %-16.12g" % (n, rl.constant, rh.constant))
print("  verdicts: L2/L2 -> %s, H1/H-1 -> %s" % (l2.verdict, h1.verdict))
print()
print("Same operator, different grams: the growth of the constant is a")
print("property of the chosen norms, and the H1/H-1 pairing removes it.")
