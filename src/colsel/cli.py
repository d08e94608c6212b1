"""Command-line interface.

Subcommands: ``kt`` and ``bt`` (column selection), ``pietsch`` and
``grothendieck`` (single factorizations), ``norm`` (certified norm
brackets), ``oracle`` (exact enumeration), ``experiment`` (random-submatrix
Monte Carlo).  Every run prints one JSON object with keys ``command``,
``config``, ``input_shape``, ``result``, ``timings_ms``.

Output is byte-identical across runs for a fixed seed; wall-clock timings
are only reported with ``--timings`` (they are ``null`` otherwise, keeping
the default output deterministic).

Exit codes: 0 success, 2 usage error, 3 domain/input error, 4 solver error.
"""

import argparse
import functools
import sys
import time
from dataclasses import asdict, dataclass

from . import montecarlo
from .emd import EMD_BUDGET
from .errors import DomainError, ParseError, SolverError
from .exact import norm_inf1_exact, norm_inf2_exact
from .factor import REL_TOL
from .grothendieck import groth_factorize, groth_optimal_alpha
from .io import load_matrix, write_report
from .linalg import stable_rank, standardize
from .montecarlo import DEFAULT_ORACLE_CAP
from .pietsch import pietsch_factorize, pietsch_optimal_alpha
from .select import BT_KAPPA_THRESHOLD, KT_NORM_THRESHOLD, bt_select, kt_select

USAGE_ERROR = 2
DOMAIN_ERROR = 3
SOLVER_ERROR = 4


@dataclass
class RunConfig:
    """Resolved run configuration, echoed into every report."""

    seed: int = 0
    emd_iterations: int = EMD_BUDGET
    rel_tol: float = REL_TOL
    standardize_input: bool = False
    kt_norm_threshold: float = KT_NORM_THRESHOLD
    bt_kappa_threshold: float = BT_KAPPA_THRESHOLD
    oracle_cap: int = DEFAULT_ORACLE_CAP

    def validate(self):
        if self.emd_iterations < 1 or self.oracle_cap < 1:
            raise DomainError("iteration and cap counts must be >= 1")
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("rel-tol must lie in (0, 1)")
        if self.kt_norm_threshold <= 0 or self.bt_kappa_threshold <= 0:
            raise DomainError("thresholds must be positive")
        if self.seed < 0 or self.seed >= 2**64:
            raise DomainError("seed must fit in 64 bits")
        return self


@functools.cache  # parse_args leaves the parser unchanged; building it costs ms
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="colsel",
        description="Column subset selection, matrix factorization, and "
        "certified operator-norm approximation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_alpha=False):
        p.add_argument("matrix", help="path to the input matrix")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--iters", type=int, default=EMD_BUDGET, help="mirror-descent budget")
        p.add_argument("--rel-tol", type=float, default=REL_TOL)
        p.add_argument("--format", choices=["csv", "matrix-market"], default=None)
        p.add_argument("--standardize", action="store_true",
                       help="rescale columns to unit norm before running")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (breaks byte-identical output)")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        if needs_alpha:
            p.add_argument("--alpha", type=float, required=True)

    p = sub.add_parser("kt", help="spectral-norm column selection")
    add_common(p)
    p.add_argument("--threshold", type=float, default=KT_NORM_THRESHOLD)

    p = sub.add_parser("bt", help="condition-number column selection")
    add_common(p)
    p.add_argument("--threshold", type=float, default=BT_KAPPA_THRESHOLD)

    p = sub.add_parser("pietsch", help="factor B = T D at a given norm level")
    add_common(p, needs_alpha=True)

    p = sub.add_parser("grothendieck", help="factor symmetric G = D T D at a given level")
    add_common(p, needs_alpha=True)

    p = sub.add_parser("norm", help="certified bracket for an NP-hard norm")
    add_common(p)
    p.add_argument("--kind", choices=["inf2", "inf1"], required=True)

    p = sub.add_parser("oracle", help="exact norm by sign enumeration")
    add_common(p)
    p.add_argument("--kind", choices=["inf2", "inf1"], required=True)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)

    p = sub.add_parser("experiment", help="random-submatrix norm experiments")
    add_common(p)
    p.add_argument("--kind", choices=["inf2", "inf1"], default="inf2")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--regime", action="store_true",
                   help="assert the small-sample regime for the inf1 bound")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    return parser


def _selection_result(report, a, metric_key):
    sr = stable_rank(a)
    return {
        "tau": report.tau,
        metric_key: report.accepted_metric,
        "cardinality": int(report.tau.size),
        "stable_rank": sr,
        "cardinality_ratio": report.tau.size / sr,
        "attempts": report.attempts,
        "per_round_log": [list(entry) for entry in report.per_round_log],
        "seed": report.seed,
    }


def _factorization_result(fact, alpha):
    return {
        "alpha": alpha,
        "alpha_effective": fact.alpha_effective,
        "eta": fact.eta,
        "d": fact.d,
        "t": fact.t,
        "t_norm": fact.t_norm,
        "reconstruction_residual": fact.reconstruction_residual,
    }


def _bracket_result(bracket):
    ratio = (
        bracket.alpha_hi / bracket.alpha_lo if bracket.alpha_lo > 0 else None
    )
    return {
        "lower": bracket.alpha_lo,
        "upper": bracket.alpha_hi,
        "ratio": ratio,
        "converged": bracket.converged,
        "probes": bracket.probes,
        "witness": bracket.lower_witness,
    }


def _experiment_result(args, a, config):
    if args.kind == "inf2":
        r_res, p_res = montecarlo.check_inf2_reduction(
            a, args.delta, args.trials, seed=config.seed, oracle_cap=config.oracle_cap
        )
        poisson_ok, lhs, rhs = montecarlo.poissonization_check(p_res, r_res)
        return {
            "results": [r_res, p_res],
            "poissonization": {"ok": poisson_ok, "lhs": lhs, "rhs": rhs},
        }
    res = montecarlo.check_inf1_reduction(
        a,
        args.delta,
        args.trials,
        seed=config.seed,
        regime=args.regime,
        oracle_cap=config.oracle_cap,
    )
    return {"results": [res]}


def _run(args):
    config = RunConfig(
        seed=args.seed,
        emd_iterations=args.iters,
        rel_tol=args.rel_tol,
        standardize_input=args.standardize,
        oracle_cap=getattr(args, "oracle_cap", DEFAULT_ORACLE_CAP),
    )
    if args.command == "kt":
        config.kt_norm_threshold = args.threshold
    if args.command == "bt":
        config.bt_kappa_threshold = args.threshold
    config.validate()

    a = load_matrix(args.matrix, fmt=args.format)
    if config.standardize_input:
        a = standardize(a)

    timer = time.perf_counter()
    if args.command == "kt":
        report = kt_select(a, config.seed, threshold=config.kt_norm_threshold,
                           emd_iterations=config.emd_iterations)
        result = _selection_result(report, a, "norm_of_tau")
    elif args.command == "bt":
        report = bt_select(a, config.seed, threshold=config.bt_kappa_threshold,
                           emd_iterations=config.emd_iterations)
        result = _selection_result(report, a, "kappa_of_tau")
    elif args.command == "pietsch":
        fact = pietsch_factorize(a, args.alpha, config.emd_iterations)
        result = _factorization_result(fact, args.alpha)
    elif args.command == "grothendieck":
        fact = groth_factorize(a, args.alpha, config.emd_iterations)
        result = _factorization_result(fact, args.alpha)
    elif args.command == "norm":
        if args.kind == "inf2":
            bracket = pietsch_optimal_alpha(a, config.rel_tol, config.emd_iterations)
        else:
            bracket = groth_optimal_alpha(a, config.rel_tol, config.emd_iterations)
        result = _bracket_result(bracket)
        result["kind"] = args.kind
    elif args.command == "oracle":
        if a.shape[1] > config.oracle_cap:
            raise DomainError(
                f"matrix has {a.shape[1]} columns; oracle cap is {config.oracle_cap}"
            )
        value, witness = (
            norm_inf2_exact(a) if args.kind == "inf2" else norm_inf1_exact(a)
        )
        result = {"kind": args.kind, "value": value, "witness": witness}
    elif args.command == "experiment":
        result = _experiment_result(args, a, config)
    else:  # pragma: no cover - argparse enforces the choices
        raise DomainError(f"unknown command {args.command!r}")
    elapsed_ms = (time.perf_counter() - timer) * 1000.0

    report = {
        "command": args.command,
        "config": asdict(config),
        "input_shape": [int(a.shape[0]), int(a.shape[1])],
        "result": result,
        "timings_ms": elapsed_ms if args.timings else None,
    }
    write_report(report, args.output)
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return _run(args)
    except (ParseError, DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
