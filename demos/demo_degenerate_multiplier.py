"""Walk the penalty schedule on the degenerate sequence-space example.

The feasible set of this problem is a straight line through the
reference point, yet the constraint map is chosen so that no normal
(KKT) multiplier exists: the extracted pair has z0 = 0 and all the
weight sits on the constraint functional, aligned with span{(1,1,0,...)}.
Run:  python3 demos/demo_degenerate_multiplier.py
"""

import numpy as np

from fcopt.problems import l2_example
from fcopt.penalty import (PenaltyConfig, default_schedule, extract_multiplier,
                           fritz_john_residual, kkt_check)

p = l2_example(dim=6)
schedule = default_schedule(0.1, 15)
pair, trace = extract_multiplier(p, p.u_bar, schedule, PenaltyConfig(seed=7))

print("schedule: eps from %.3g down to %.3g in %d values"
      % (schedule[0], schedule[-1], len(schedule)))
print()
print("  eps        a          |b|        dist       gap")
for r in trace:
    print("  %-9.3g  %-9.4f  %-9.4f  %-9.3g  %-9.3g"
          % (r.eps, r.a, r.b_norm(), r.dist_val, r.f0_gap))

print()
print("extracted pair: z0 = %.3g, z = %s" % (pair.z0,
                                             np.round(pair.z.coords, 6)))
print("normalization:  z0^2 + |z|^2 = %.12f"
      % (pair.z0 ** 2 + pair.z_norm() ** 2))

kk = kkt_check(p, p.u_bar, pair)
print("kkt_check:      normal = %s (surjectivity sigma %.3g)"
      % (kk["normal"], kk["surjectivity_sigma"]))

fj = fritz_john_residual(p, p.u_bar, pair, p.variations(p.u_bar, 1000, seed=7))
print("stationarity:   min Fritz John residual over 1000 variations = %.3g"
      % fj)
print()
print("z0 = 0 with |z| = 1: the problem admits only the abnormal branch,")
print("and z points along (1,1,0,...)/sqrt(2) as the construction forces.")
