"""Tour of the transition-operator zoo, each member against a closed form."""

import numpy as np

from nisio import (ChainOperator, GBMOperator, GridFunction, HeatOperator,
                   KoopmanOperator, OUOperator, ScaledOperator, StableOperator,
                   WeightedGrid)
from nisio.probes import probe_function

print("heat: Gaussian kernel, second moment")
g = WeightedGrid.uniform(-8.0, 8.0, 0.02, boundary="reflect")
heat = HeatOperator(g, 1.0)
u = probe_function("quadratic", g)
err = np.max(np.abs(heat.apply(0.5, u).values - (g.points ** 2 + 0.5))[g.window_mask(-2, 2)])
print(f"  S(0.5) x^2 vs x^2 + 0.5:      {err:.2e}")

print("geometric: lognormal kernel on the sign-glued log grid")
gl = WeightedGrid.loggrid(8.0, 1e-2, 600, kappa=lambda x: (1 + np.abs(x)) ** -2.0)
gbm = GBMOperator(gl, 0.1, 0.2)
w = gbm.apply(1.0, probe_function("linear", gl)).values
mask = (np.abs(gl.points) > 0.1) & (np.abs(gl.points) < 1.0)
print(f"  S(1) x vs x e^mu:             {np.max(np.abs(w - gl.points*np.exp(0.1))[mask]):.2e}")

print("linear drift + diffusion: exact Gaussian moments")
go = WeightedGrid.uniform(-8.0, 8.0, 0.02, boundary="reflect")
ou = OUOperator(go, -0.5, 0.2, 1.0)
M, drift, var = ou.moments(0.7)
print(f"  mean factor e^(bt):           {abs(M - np.exp(-0.35)):.2e}")
print(f"  variance integral vs (1-e^(2bt))/(2|b|): "
      f"{abs(var - (1 - np.exp(-0.7))):.2e}")

print("transport: Runge-Kutta flow of x' = -x")
ko = KoopmanOperator(go, lambda x: -x, 1.0)
w = ko.apply(1.0, probe_function("linear", go)).values
print(f"  S(1) x vs x e^-1:             {np.max(np.abs(w - go.points*np.exp(-1))):.2e}")

print("spectral jump member: Fourier multiplier on a periodic grid")
gp = WeightedGrid.uniform(-np.pi, np.pi, 2 * np.pi / 256, periodic=True)
st = StableOperator(gp, 0.5)
u2 = GridFunction(np.cos(2 * gp.points), gp)
err = np.max(np.abs(st.apply(1.0, u2).values - np.exp(-2.0) * np.cos(2 * gp.points)))
print(f"  mode 2 decay e^-2:            {err:.2e}")

print("finite-state member: uniformized matrix exponential")
gc = WeightedGrid.labels(2)
ch = ChainOperator(gc, np.array([[-1.0, 1.0], [1.0, -1.0]]))
w = ch.apply(0.7, GridFunction(np.array([1.0, 0.0]), gc)).values
oracle = np.array([(1 + np.exp(-1.4)) / 2, (1 - np.exp(-1.4)) / 2])
print(f"  two-state closed form:        {np.max(np.abs(w - oracle)):.2e}")

print("time dilation: S_lambda(t) = S(lambda t)")
sc = ScaledOperator(heat, 4.0)
err = np.max(np.abs(sc.apply(0.25, u).values - (g.points ** 2 + 1.0))[g.window_mask(-2, 2)])
print(f"  scaled heat variance:         {err:.2e}")

print("generators: strong derivative at t = 0")
res = heat.generator(u)
print(f"  heat generator on x^2 vs 1:   {np.max(np.abs(res.values[res.valid] - 1.0)):.2e}")
res = ch.generator(GridFunction(np.array([1.0, 0.0]), gc))
print(f"  chain generator is Q u:       {np.max(np.abs(res.values - ch.Q @ [1.0, 0.0])):.2e}")
