"""Entropic mirror descent over the probability simplex.

Minimizes a nonsmooth convex objective ``J`` given only a value/subgradient
evaluator.  Iterates stay strictly inside the simplex: each step multiplies
the current weights by ``exp(-beta * theta)`` and renormalizes, which is the
closed-form mirror step for the relative-entropy divergence.

For an objective with Lipschitz constant ``L`` in the l1/linf pairing and a
fixed horizon of ``T`` steps, the best iterate is within
``sqrt(2 L^2 log(s) / T)`` of the minimum.

Every evaluation is also a cut.  Convexity gives
``J(f) >= J_t + theta_t . (f - f_t)`` for all ``f``, so minimizing the right
side over the simplex certifies ``min J >= J_t - theta_t . f_t + min_j
theta_tj`` (the single cut).  Averaging the cuts with the step sizes
``beta_t`` as weights gives the ergodic cut ``(sum beta_i (J_i - theta_i .
f_i) + min_j sum beta_i theta_ij) / sum beta_i`` (Nemirovski, Onn and
Rothblum, "Accuracy certificates for computational problems with convex
structure", Math. OR 2010); any nonnegative weights give a valid bound.
The best nonnegative combination of a set of cuts is Kelley's bound (Kelley,
"The cutting-plane method for solving convex programs", 1960): the minimum
over the simplex of the cuts' pointwise maximum.  On simplices of order 16
and more, a solve with a stop level also keeps its last ``BUNDLE_SIZE`` cuts
and ascends towards that combination (the bundle cut).  The solver keeps the
largest cut seen as a running lower bound and stops once it brackets the
best value within ``GAP_RTOL`` (see :func:`emd_minimize`).
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DomainError, _require_budget, _require_count


class SubgradientSample(NamedTuple):
    """One objective evaluation: the value and a subgradient at the point."""

    value: float
    subgradient: np.ndarray


Objective = Callable[[np.ndarray], SubgradientSample]

# Relative primal-dual gap at which a solve certified above ``stop_below``
# ends.  The weights it stops at are used downstream (selection prunes on
# them), so a solve is not ended as soon as the bound clears ``stop_below``.
GAP_RTOL = 0.1

# Default evaluation budget of the mirror-descent solve in a factorization.
EMD_BUDGET = 5000


@dataclass
class EmdRun:
    """Outcome of one mirror-descent solve.

    ``iterations`` counts objective evaluations.  ``exit`` is why the solve
    stopped: ``"feasible"``, ``"gap"``, ``"budget"`` or ``"zero-step"``.
    ``lower_bound`` is the largest cut taken, a lower bound on the minimum
    up to the accuracy of the evaluated values.
    """

    iterations: int
    best_value: float
    best_point: np.ndarray
    exit: str
    lower_bound: float


class _ErgodicCut:
    """Step-weighted average of cuts, kept as running means.

    ``add`` returns ``(sum beta_i (J_i - theta_i . f_i) + min_j sum beta_i
    theta_ij) / sum beta_i`` over the cuts added so far.  The mean form is
    exact when every subgradient is the same vector.
    """

    def __init__(self, s):
        self.weight = 0.0
        self.offset = 0.0
        self.theta = np.zeros(s)

    def add(self, beta, offset, theta):
        self.weight += beta
        share = beta / self.weight
        self.offset += share * (offset - self.offset)
        self.theta += share * (theta - self.theta)
        return self.offset + float(self.theta.min())


# The bundle cut combines this many of the latest cuts.
BUNDLE_SIZE = 16

# Smallest simplex order with a bundle cut.  Below it an evaluation costs
# about 130 us and the bundle's fixed cost outweighs the evaluations it saves.
BUNDLE_MIN_ORDER = 16


class _Bundle:
    """The last ``BUNDLE_SIZE`` cuts and warm-started weights over them.

    Any weights ``lambda`` on the simplex over the kept cuts give the lower
    bound ``L(lambda) = lambda . offset + min_j (lambda^T Theta)_j``, whose
    maximum is Kelley's bound on those cuts.  :meth:`bound` takes
    ``ceil(s / 8)`` entropic ascent steps on ``L`` from the weights the last
    call left, along the supergradient ``offset + Theta[:, j*]`` at the
    minimizing ``j*``, and returns the largest ``L`` it evaluated.  A new
    cut enters with the mean weight of the others.
    """

    def __init__(self, s):
        self.offsets = np.zeros(BUNDLE_SIZE)
        self.thetas = np.zeros((BUNDLE_SIZE, s))
        self.weights = np.zeros(BUNDLE_SIZE)
        self.count = 0
        self.steps = -(-s // 8)

    def add(self, offset, theta):
        i = self.count % BUNDLE_SIZE
        self.count += 1
        self.offsets[i] = offset
        self.thetas[i] = theta
        self.weights[i] = 0.0
        total = self.weights.sum()
        others = min(self.count, BUNDLE_SIZE) - 1
        self.weights[i] = total / others if total > 0.0 else 1.0
        self.weights /= self.weights.sum()

    def bound(self):
        n = min(self.count, BUNDLE_SIZE)
        newest = (self.count - 1) % BUNDLE_SIZE
        # L in mean form around the newest cut, so that cuts sharing one
        # subgradient give exactly their single cut whatever the weights' sum.
        offset, theta = self.offsets[newest], self.thetas[newest]
        d_offsets = self.offsets[:n] - offset
        d_thetas = self.thetas[:n] - theta
        lam = self.weights[:n]
        logn = math.log(n)
        best = -math.inf
        for k in range(1, self.steps + 1):
            mix = theta + lam @ d_thetas
            j = int(np.argmin(mix))
            best = max(best, offset + float(lam @ d_offsets) + float(mix[j]))
            g = d_offsets + d_thetas[:, j]
            spread = float(g.max() - g.min())
            if not spread > 0.0:  # a single cut, or L is flat along the simplex
                break
            lam = lam * np.exp(math.sqrt(2.0 * logn / k) / spread * (g - g.max()))
            lam /= lam.sum()
        self.weights[:n] = lam
        return best


def emd_step(weights, beta, theta):
    """One multiplicative reweighting, computed in log space.

    Shifting ``theta`` by a constant multiple of the all-ones vector leaves
    the result unchanged (the normalization absorbs it).
    """
    logw = np.log(weights) - beta * np.asarray(theta, dtype=float)
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def _gap_closed(lower_bound, best_value, stop_below):
    return (
        stop_below is not None
        and lower_bound > stop_below
        and best_value - lower_bound <= GAP_RTOL * abs(best_value)
    )


def emd_minimize(
    objective: Objective,
    s: int,
    iterations: int,
    step_mode: str = "fixed-horizon",
    stop_below: Optional[float] = None,
) -> EmdRun:
    """Minimize ``objective`` over the ``s``-dimensional probability simplex.

    Starts from the uniform point.  ``step_mode`` selects the step size
    ``beta = sqrt(2 log s / (T ||theta||_inf^2))`` with ``T = iterations``
    (``"fixed-horizon"``, the form behind the efficiency guarantee) or with
    the current step index in place of ``T`` (``"adaptive"``, for use when
    ``iterations`` is a budget cap rather than a known horizon).

    Each evaluation ``J_t`` at ``f_t`` with subgradient ``theta_t`` updates
    the running lower bound ``LB`` to the largest of its previous value, the
    single cut ``J_t - theta_t . f_t + min_j theta_tj`` and, once a step
    ``beta_t`` is taken, two ergodic cuts ``(sum beta_i (J_i - theta_i .
    f_i) + min_j sum beta_i theta_ij) / sum beta_i``: one over every step,
    one over the steps since the last power of two.  The second forgets the
    early cuts, taken far from the minimum, that hold the first back;
    without it a solve whose minimum sits just above ``stop_below`` needs
    thousands of evaluations to close the gap.  Each cut costs O(s) per
    step.

    With ``stop_below`` set and ``s >= BUNDLE_MIN_ORDER`` (16), an
    evaluation that leaves the level unreached and the gap open also raises
    ``LB`` by the bundle cut: ``ceil(s / 8)`` warm-started ascent steps
    towards the best nonnegative combination of the last ``BUNDLE_SIZE``
    cuts (see :class:`_Bundle`), O(2 s^2) work per evaluation.  The
    step-weighted cuts give the cuts taken at high-value points as much
    weight as the good ones.  On the infeasible order-256 Pietsch solves of
    two-cluster inputs the bundle cut certifies the gap after 4-6
    evaluations instead of 6-22, close to the exact LP optimum over the
    same cuts.  Below order 16 an evaluation costs about 130 us and the
    bundle does not pay for itself: run at order 8 (one ascent step), it
    cut the evaluations of the Grothendieck solves of a ``bt_select`` run
    on 16x48 inputs by 7% and made the run 14% slower (2-vCPU x86-64 host,
    one BLAS thread).

    The solve exits for one of four reasons, recorded in ``EmdRun.exit``:

    * ``"feasible"``: the best value reached ``stop_below``;
    * ``"gap"``: ``stop_below`` is set, ``LB > stop_below`` and
      ``best - LB <= GAP_RTOL * |best|``, so the level is certified out of
      reach and the best point is within the gap of optimal;
    * ``"budget"``: ``iterations`` evaluations were used;
    * ``"zero-step"``: a zero subgradient (the point is optimal), a
      subgradient too small for a finite step (``||theta||_inf`` below
      about 1e-308, so the point is optimal to within ``2 ||theta||_inf``)
      or ``s == 1``.

    A bad budget and non-finite objective values raise :class:`DomainError`.
    """
    iterations = _require_budget(iterations)
    if step_mode not in ("fixed-horizon", "adaptive"):
        raise DomainError(f"unknown step mode {step_mode!r}")
    s = _require_count(s, "the simplex dimension", 1)

    weights = np.full(s, 1.0 / s)
    logs = math.log(s) if s > 1 else 0.0

    best_value = math.inf
    best_point = weights
    lower_bound = -math.inf
    every_cut = _ErgodicCut(s)
    recent_cuts = _ErgodicCut(s)
    bundle = _Bundle(s) if stop_below is not None and s >= BUNDLE_MIN_ORDER else None
    done = 0
    exit_reason = "budget"

    for t in range(1, iterations + 1):
        value, theta = objective(weights)
        value = float(value)
        if not math.isfinite(value):
            raise DomainError(f"objective returned non-finite value {value!r}")
        theta = np.asarray(theta, dtype=float)
        done = t
        if value < best_value:
            best_value = value
            best_point = weights
        offset = value - float(theta @ weights)
        lower_bound = max(lower_bound, offset + float(theta.min()))

        if stop_below is not None and best_value <= stop_below:
            exit_reason = "feasible"
            break

        tmax = float(np.abs(theta).max())
        horizon = iterations if step_mode == "fixed-horizon" else t
        beta = math.sqrt(2.0 * logs / horizon) / tmax if tmax > 0.0 else 0.0
        # A subgradient below about 1e-308 overflows the step; the single
        # cut above already shows the point is optimal to within 2 * tmax.
        if not 0.0 < beta < math.inf:
            exit_reason = "zero-step"
            break

        if t & (t - 1) == 0:  # just before this, the window held the last half
            recent_cuts = _ErgodicCut(s)
        lower_bound = max(
            lower_bound,
            every_cut.add(beta, offset, theta),
            recent_cuts.add(beta, offset, theta),
        )
        if _gap_closed(lower_bound, best_value, stop_below):
            exit_reason = "gap"
            break
        if bundle is not None:
            bundle.add(offset, theta)
            lower_bound = max(lower_bound, bundle.bound())
            if _gap_closed(lower_bound, best_value, stop_below):
                exit_reason = "gap"
                break
        weights = emd_step(weights, beta, theta)

    return EmdRun(
        iterations=done,
        best_value=best_value,
        best_point=best_point,
        exit=exit_reason,
        lower_bound=lower_bound,
    )
