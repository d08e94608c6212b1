"""Layer spans around the public functions of every ``colsel`` module.

While a :class:`Tracer` is installed, every module binding of each public
function (including the names that ``from .linalg import ...`` copies into
other modules) and every public method of the package's classes is replaced
by a wrapper that records a span, and ``numpy.linalg.eigh`` is wrapped so
that the share of the eigen kernel inside ``max_eig_pair`` can be measured.
Nothing under ``src/`` is modified; :meth:`Tracer.uninstall` restores every
binding.

Spans are folded as they close: per (span name, parent span name) the
tracer keeps the call count, the total duration and the self time (the
duration minus the time covered by child spans).  Observers read arguments
and results at a few boundaries to count work the program does not report
itself, such as the sizes handed to the eigensolver.
"""

import functools
import importlib
import inspect
import math
import os
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

EIGH_SPAN = "numpy.eigh"


def _layer_name(obj):
    return obj.__module__.rsplit(".", 1)[-1]


def colsel_modules(package):
    """The package and each of its submodules except ``__main__``."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


class Tracer:
    """Installs and removes the spans and folds what they record."""

    def __init__(self, package):
        self.package = package
        self.modules = colsel_modules(package)
        self.stack = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.counters = Counter()
        self._saved = []  # (owner, attribute, original)
        self._wrappers = {}  # original function -> wrapper
        self._observers = {
            "linalg.max_eig_pair": self._observe_eig,
            "emd.emd_minimize": self._observe_emd,
            "pietsch.pietsch_factorize": functools.partial(self._observe_factorize, "pietsch"),
            "grothendieck.groth_factorize": functools.partial(self._observe_factorize, "groth"),
            "pietsch.pietsch_optimal_alpha": functools.partial(self._observe_bracket, "pietsch"),
            "grothendieck.groth_optimal_alpha": functools.partial(self._observe_bracket, "groth"),
            "select.norm_reduce": self._observe_reduce,
            "select.cond_reduce": self._observe_reduce,
            "select.kt_select": self._observe_select,
            "select.bt_select": self._observe_select,
            "exact.norm_inf2_exact": self._observe_exact,
            "exact.norm_inf1_exact": self._observe_exact,
            "montecarlo.check_inf2_reduction": self._observe_montecarlo,
            "montecarlo.check_inf1_reduction": self._observe_montecarlo,
            "io.load_matrix": self._observe_load,
            "io.dumps_report": self._observe_dumps,
        }

    # -- spans -----------------------------------------------------------

    def _wrap(self, name, fn):
        observe = self._observers.get(name)
        signature = inspect.signature(fn) if observe else None
        stack, stats = self.stack, self.stats

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = stats[(name, parent)]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result)
            return result

        span.traced_name = name
        return span

    def _replace(self, owner, attr, original, name):
        wrapper = self._wrappers.get(original)
        if wrapper is None:
            wrapper = self._wrappers[original] = self._wrap(name, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def public_bindings(self):
        """Every (owner, attribute, function) the tracer must wrap."""
        found = []
        for module in self.modules:
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                target = getattr(obj, "__wrapped__", obj)
                if inspect.isfunction(target) and target.__module__.startswith(self.package.__name__):
                    found.append((module, attr, obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(getattr(fn, "__wrapped__", fn)) and (
                            not meth.startswith("_") or meth == "__call__"
                        ):
                            found.append((obj, meth, fn))
        return found

    def install(self):
        for owner, attr, fn in self.public_bindings():
            if isinstance(owner, type):
                name = f"{_layer_name(owner)}.{owner.__name__}.{attr}"
            else:
                name = f"{_layer_name(fn)}.{fn.__name__}"
            self._replace(owner, attr, fn, name)
        self._replace(np.linalg, "eigh", np.linalg.eigh, EIGH_SPAN)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def unwrapped_bindings(self):
        """Public bindings that are not spans; empty while installed."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, fn in self.public_bindings()
            if not hasattr(fn, "traced_name")
        ]

    def reset(self):
        self.stats.clear()
        self.counters.clear()

    # -- observers -------------------------------------------------------

    def _observe_eig(self, args, result):
        n = np.shape(args["h"])[0]
        self.counters["eig_n3"] += n**3
        self.counters["eig_bytes_in"] += 8 * n * n

    def _observe_emd(self, args, run):
        self.counters["emd_iterations_reported"] += run.iterations
        stop_below = args["stop_below"]
        if stop_below is not None and run.best_value <= stop_below:
            self.counters["emd_exit_feasible"] += 1
        elif run.iterations >= args["iterations"]:
            self.counters["emd_exit_budget"] += 1
        else:
            self.counters["emd_exit_stall"] += 1

    def _observe_factorize(self, layer, args, fact):
        if fact.eta > 0.0:
            self.counters[f"{layer}_infeasible"] += 1

    def _observe_bracket(self, layer, args, bracket):
        self.counters[f"{layer}_probes_reported"] += bracket.probes

    def _observe_reduce(self, args, candidate):
        if candidate is None:
            self.counters["select_reduce_none"] += 1

    def _observe_select(self, args, report):
        self.counters["select_attempts_reported"] += report.attempts

    def _observe_exact(self, args, result):
        mat = args.get("b", args.get("g"))
        s = np.shape(mat)[1]
        self.counters["exact_s_sum"] += s
        self.counters["exact_sign_vectors"] += 1 << (s - 1) if s else 0

    def _observe_montecarlo(self, args, result):
        n = np.shape(args["a"])[1]
        self.counters["montecarlo_calls"] += 1
        self.counters["montecarlo_trials"] += args["trials"]
        self.counters["montecarlo_s_sum"] += int(math.floor(args["delta"] * n))

    def _observe_load(self, args, result):
        self.counters["io_bytes_in"] += os.path.getsize(args["path"])

    def _observe_dumps(self, args, text):
        self.counters["io_bytes_out"] += len(text.encode("utf-8"))

    # -- aggregation -----------------------------------------------------

    def count(self, name, parents=None):
        return sum((v[0] for (n, p), v in self.stats.items()
                    if n == name and (parents is None or p in parents)), 0)

    def total(self, name, parents=None):
        return sum((v[1] for (n, p), v in self.stats.items()
                    if n == name and (parents is None or p in parents)), 0.0)

    def self_time(self, name):
        return sum((v[2] for (n, _), v in self.stats.items() if n == name), 0.0)

    def layer_self_time(self, layer):
        prefix = layer + "."
        return sum((v[2] for (n, _), v in self.stats.items() if n.startswith(prefix)), 0.0)

    def objective_spans(self):
        """(count, total) of the evaluations mirror descent asked for."""
        count, total = 0, 0.0
        for (n, p), v in self.stats.items():
            if p == "emd.emd_minimize" and not n.startswith("emd."):
                count += v[0]
                total += v[1]
        return count, total
