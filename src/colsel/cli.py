"""Command-line interface.

Subcommands: ``kt`` and ``bt`` (column selection), ``pietsch`` and
``grothendieck`` (single factorizations), ``norm`` (certified norm
brackets), ``oracle`` (exact enumeration), ``experiment`` (random-submatrix
Monte Carlo).  Every run prints one JSON object with keys ``command``,
``config``, ``input_shape``, ``result``, ``timings_ms``.

Every subcommand takes the matrix path and ``--format``, ``--standardize``,
``--timings`` and ``--output``; beyond those it declares only the options it
reads:

* ``kt``, ``bt``: ``--seed``, ``--iters``, ``--threshold``;
* ``pietsch``, ``grothendieck``: ``--iters``, ``--alpha``;
* ``norm``: ``--iters``, ``--rel-tol``, ``--kind``;
* ``oracle``: ``--kind``;
* ``experiment``: ``--seed``, ``--kind``, ``--delta``, ``--trials``,
  ``--regime``.

``config`` echoes the settings among them under fixed keys:
``standardize_input`` always, ``seed``, ``emd_iterations`` (``--iters``),
``rel_tol`` where the subcommand takes them, and ``kt_norm_threshold`` or
``bt_kappa_threshold`` (``--threshold``) for ``kt`` and ``bt``.

The CLI checks nothing: the library owns every check and refuses a bad
value with :class:`DomainError` (seeds, budgets and trials by one rule).

Output is byte-identical across runs for a fixed seed; wall-clock timings
are only reported with ``--timings`` (they are ``null`` otherwise, keeping
the default output deterministic).

Exit codes: 0 success, 2 usage error, 3 domain/input error (a file that
cannot be read, decoded or written included), 4 solver error.
"""

import argparse
import functools
import sys
import time

from . import montecarlo
from .emd import EMD_BUDGET
from .errors import DomainError, ParseError, SolverError
from .exact import norm_inf1_exact, norm_inf2_exact
from .factor import REL_TOL
from .grothendieck import groth_factorize, groth_optimal_alpha
from .io import load_matrix, write_report
from .linalg import _gram_scope, stable_rank, standardize
from .pietsch import pietsch_factorize, pietsch_optimal_alpha
from .select import BT_KAPPA_THRESHOLD, KT_NORM_THRESHOLD, bt_select, kt_select

USAGE_ERROR = 2
DOMAIN_ERROR = 3
SOLVER_ERROR = 4

# The settings a subcommand may take: config key -> (flag, argparse options).
_SETTINGS = {
    "seed": ("--seed", {"type": int, "default": 0}),
    "emd_iterations": ("--iters", {"type": int, "default": EMD_BUDGET,
                                   "help": "mirror-descent budget"}),
    "rel_tol": ("--rel-tol", {"type": float, "default": REL_TOL}),
    "kt_norm_threshold": ("--threshold", {"type": float, "default": KT_NORM_THRESHOLD}),
    "bt_kappa_threshold": ("--threshold", {"type": float, "default": BT_KAPPA_THRESHOLD}),
}


@functools.cache  # parse_args leaves the parser unchanged; building it costs ms
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="colsel",
        description="Column subset selection, matrix factorization, and "
        "certified operator-norm approximation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *settings):
        p = sub.add_parser(name, help=help)
        p.add_argument("matrix", help="path to the input matrix")
        for key in settings:
            flag, options = _SETTINGS[key]
            p.add_argument(flag, dest=key, **options)
        p.add_argument("--format", choices=["csv", "matrix-market"], default=None)
        p.add_argument("--standardize", dest="standardize_input", action="store_true",
                       help="rescale columns to unit norm before running")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (breaks byte-identical output)")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.set_defaults(config_keys=("standardize_input", *settings))
        return p

    kinds = ["inf2", "inf1"]
    command("kt", "spectral-norm column selection",
            "seed", "emd_iterations", "kt_norm_threshold")
    command("bt", "condition-number column selection",
            "seed", "emd_iterations", "bt_kappa_threshold")
    for name, help in (("pietsch", "factor B = T D at a given norm level"),
                       ("grothendieck", "factor symmetric G = D T D at a given level")):
        command(name, help, "emd_iterations").add_argument("--alpha", type=float, required=True)
    p = command("norm", "certified bracket for an NP-hard norm", "emd_iterations", "rel_tol")
    p.add_argument("--kind", choices=kinds, required=True)
    p = command("oracle", "exact norm by sign enumeration")
    p.add_argument("--kind", choices=kinds, required=True)
    p = command("experiment", "random-submatrix norm experiments", "seed")
    p.add_argument("--kind", choices=kinds, default="inf2")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--regime", action="store_true",
                   help="assert the small-sample regime for the inf1 bound")
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
        "per_round_log": report.per_round_log,
        "seed": report.seed,
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


def _experiment_result(args, a):
    if args.kind == "inf2":
        r_res, p_res = montecarlo.check_inf2_reduction(a, args.delta, args.trials, seed=args.seed)
        poisson_ok, lhs, rhs = montecarlo.poissonization_check(p_res, r_res)
        return {
            "results": [r_res, p_res],
            "poissonization": {"ok": poisson_ok, "lhs": lhs, "rhs": rhs},
        }
    res = montecarlo.check_inf1_reduction(
        a, args.delta, args.trials, seed=args.seed, regime=args.regime
    )
    return {"results": [res]}


@_gram_scope()  # the stable rank and a bracket probe reuse a Gram solved before
def _run(args):
    config = {key: getattr(args, key) for key in args.config_keys}
    a = load_matrix(args.matrix, fmt=args.format)
    if args.standardize_input:
        a = standardize(a)

    timer = time.perf_counter()
    if args.command == "kt":
        report = kt_select(a, args.seed, threshold=args.kt_norm_threshold,
                           emd_iterations=args.emd_iterations)
        result = _selection_result(report, a, "norm_of_tau")
    elif args.command == "bt":
        report = bt_select(a, args.seed, threshold=args.bt_kappa_threshold,
                           emd_iterations=args.emd_iterations)
        result = _selection_result(report, a, "kappa_of_tau")
    elif args.command in ("pietsch", "grothendieck"):
        factorize = pietsch_factorize if args.command == "pietsch" else groth_factorize
        fact = factorize(a, args.alpha, args.emd_iterations)
        result = {"alpha": args.alpha, **vars(fact)}
    elif args.command == "norm":
        optimal_alpha = pietsch_optimal_alpha if args.kind == "inf2" else groth_optimal_alpha
        result = _bracket_result(optimal_alpha(a, args.rel_tol, args.emd_iterations))
        result["kind"] = args.kind
    elif args.command == "oracle":
        value, witness = (
            norm_inf2_exact(a) if args.kind == "inf2" else norm_inf1_exact(a)
        )
        result = {"kind": args.kind, "value": value, "witness": witness}
    elif args.command == "experiment":
        result = _experiment_result(args, a)
    else:  # pragma: no cover - argparse enforces the choices
        raise DomainError(f"unknown command {args.command!r}")
    elapsed_ms = (time.perf_counter() - timer) * 1000.0

    report = {
        "command": args.command,
        "config": config,
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
    except (ParseError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
