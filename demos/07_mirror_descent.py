"""Entropic mirror descent on the probability simplex.

The solver only needs a value and a subgradient per step; iterates stay
strictly inside the simplex because the update is multiplicative.  For a
Lipschitz objective the best of T iterates lands within
sqrt(2 L^2 log(s) / T) of the minimum; the observed gap is usually far
smaller.
"""

import math

import numpy as np

import colsel as cs
from colsel.emd import SubgradientSample

rng = np.random.default_rng(5)
s = 16
c = rng.random(s)
objective = lambda f: SubgradientSample(float(c @ f), c)
true_min = c.min()

print(f"linear objective <c, f> on the {s}-simplex, minimum {true_min:.4f}")
print("\n  T      best value      gap     theoretical bound")
for horizon in (10, 100, 1000, 10000):
    run = cs.emd_minimize(objective, s, horizon, "fixed-horizon")
    bound = math.sqrt(2 * np.abs(c).max() ** 2 * math.log(s) / horizon)
    print(f"{horizon:7d}   {run.best_value:.6f}   {run.best_value - true_min:8.6f}"
          f"   {bound:8.6f}")

print("\n== the eigenvalue objective behind the factorizations ==")
b = cs.standardize(rng.standard_normal((6, 10)))
alpha = 0.9 * cs.norm_inf2_exact(b)[0]  # infeasible: minimum stays positive
evaluator = cs.pietsch.PietschObjective(b, alpha)
values = []


def recorded(f):
    sample = evaluator(f)
    values.append(sample.value)
    return sample


run = cs.emd_minimize(recorded, 10, 400, "adaptive")
trace = np.minimum.accumulate(values)
print(f"lambda_max value: start {trace[0]:.4f} -> best {trace[-1]:.4f} "
      f"(never reaches 0 because alpha is below the norm)")
print(f"running best after 1, 10, 100, 400 steps: "
      f"{trace[0]:.4f}, {trace[9]:.4f}, {trace[99]:.4f}, {trace[-1]:.4f}")
print(f"certified by the subgradient cuts: {run.lower_bound:.4f} <= minimum "
      f"<= {run.best_value:.4f}")
run = cs.emd_minimize(evaluator, 10, 5000, "adaptive", stop_below=0.0)
print(f"asked only whether 0 is reachable: exit {run.exit!r} after "
      f"{run.iterations} evaluations, bound {run.lower_bound:.4f} > 0")

print("\n== early exit when only feasibility matters ==")
alpha = 1.5 * cs.norm_inf2_exact(b)[0]
evaluator = cs.pietsch.PietschObjective(b, alpha)
run = cs.emd_minimize(evaluator, 10, 5000, "adaptive", stop_below=0.0)
print(f"feasible level: exit {run.exit!r} after {run.iterations} evaluation(s) "
      f"with value {run.best_value:.4f} <= 0")
