"""Sampling the controlled process under the extracted policy.

Each path looks up its member at the nearest grid point stage by stage and
draws an exact transition sample.  The sample mean reproduces the grid value
of the same policy; for convex data the greedy policy is exactly optimal, so
it also reproduces the envelope.
"""

import numpy as np

from nisio import (GBMOperator, HeatOperator, SamplerSpec, SemigroupFamily,
                   WeightedGrid, greedy_policy, mc_compare, mc_value, nisio_value)
from nisio.probes import probe_function

grid = WeightedGrid.uniform(-8.0, 8.0, 0.02, boundary="reflect")
family = SemigroupFamily([HeatOperator(grid, 0.5), HeatOperator(grid, 1.0)])
u0 = probe_function("quadratic", grid)

greedy = greedy_policy(family, 1.0, u0, m=32)
spec = SamplerSpec(family, greedy.policy, n_paths=200_000, seed=7)
out = mc_compare(spec, 0.0, u0, greedy.value)
envelope = nisio_value(family, greedy.policy.horizon, u0, max_level=6, tol=1e-9)
print("convex data, greedy policy, x0 = 0, t = 1:")
print(f"  Monte Carlo:  {out['mc']['estimate']:.5f} +- {out['mc']['std_error']:.1e}")
print(f"  grid policy:  {out['grid']:.5f}")
print(f"  envelope:     {float(envelope.value.at(0.0)):.5f}   (closed form: 1.0)")
print(f"  z score:      {out['z_score']:+.2f}  flagged: {out['flag']}")

print("\nlognormal member, mean of the terminal state:")
gl = WeightedGrid.loggrid(8.0, 1e-2, 600, kappa=lambda x: (1 + np.abs(x)) ** -2.0)
gfam = SemigroupFamily([GBMOperator(gl, 0.1, 0.2)])
glin = probe_function("linear", gl)
gpol = greedy_policy(gfam, 1.0, glin, m=1).policy
gout = mc_value(SamplerSpec(gfam, gpol, 200_000, seed=11), 1.0, glin)
print(f"  estimate {gout['estimate']:.5f} +- {gout['std_error']:.1e}"
      f"   (closed form e^0.1 = {np.exp(0.1):.5f})")
