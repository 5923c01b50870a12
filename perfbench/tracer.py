"""Span tracer that wraps the package's public functions from outside.

Installing the tracer replaces every module attribute of the package that
binds one of the listed functions (``cli.isometry_check`` and
``analysis.isometry_check`` are two bindings of one function) and the
listed ``ProjectionOperator`` methods with a wrapper that records a span:
name, parent span, start and end in nanoseconds.  Spans stay in memory in
flat arrays and are written out once, at the end of the run.  Nothing is
wrapped unless ``install`` is called, so an untraced run executes the
package exactly as shipped.

Span names are ``<module>.<function>``.  Two functions get a variant
suffix: ``momentpoly.eval_F`` is split into ``.exact`` (rational
arguments, the residual recheck) and ``.mpf`` (the Newton iteration), and
``cli.main`` by subcommand.  Aggregates are kept for the base name and for
each variant.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from array import array
from fractions import Fraction
from time import perf_counter_ns

PACKAGE = "lp_isoforge"

# module -> functions wrapped there (and at every other binding of them)
TARGETS = {
    "analysis": (
        "isometry_check",
        "certificate_span",
        "uncomplemented_certificate",
        "projection_norm_lower_bound",
        "build_projection",
    ),
    "moments": ("even_moment_of_sum", "even_moment_from_tables", "convolve"),
    "momentpoly": ("eval_H", "eval_F", "grad_H", "jacobian_F"),
    "numeric": ("to_mpf", "mpf_to_fraction", "solve_linear_mpf", "det_mpf"),
    "solver": ("ball_params", "solve_mu", "construct_pair"),
    "serialize": ("save_certificate", "load_certificate"),
    "p4": ("build_p4_table",),
    "cli": ("main",),
}
METHODS = {("analysis", "ProjectionOperator"): ("apply", "norm")}


def _eval_f_variant(args, kwargs):
    nu = args[3] if len(args) > 3 else kwargs["nu"]
    return "exact" if isinstance(nu, (int, Fraction)) else "mpf"


def _cli_variant(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "none"


VARIANTS = {"momentpoly.eval_F": _eval_f_variant, "cli.main": _cli_variant}

# counters derived from arguments and return values, per cycle
COUNTERS = (
    "solver.newton_iters",
    "solver.scales_attempted",
    "solver.scales_failed",
    "solver.solve_mu.useful_calls",
    "analysis.build_projection.atoms",
    "serialize.certificate_bytes",
)


class Tracer:
    """Records spans for wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []  # span name id -> name (variant included)
        self._ids: dict[str, int] = {}
        self._base_of: list[int] = []  # name id -> id of its base name
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.cycle_starts: list[int] = []
        self.counters: list[dict] = []
        self._solve_js: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            base = name.split("[", 1)[0]
            self._base_of.append(nid if base == name else self._id(base))
        return nid

    def begin_cycle(self) -> None:
        self.cycle_starts.append(len(self.start))
        self.counters.append(dict.fromkeys(COUNTERS, 0))
        self._solve_js = []

    def _count(self, key: str, amount: int) -> None:
        self.counters[-1][key] += amount

    def _wrap(self, name: str, fn, variant=None, before=None, after=None):
        tracer = self
        base = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = base if variant is None else tracer._id(f"{name}[{variant(args, kwargs)}]")
            if before is not None:
                before(args, kwargs)
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- hooks that read arguments and results --------------------------------

    def _before_solve_mu(self, args, kwargs):
        self._solve_js.append(args[0] if args else kwargs["j"])

    def _after_solve_mu(self, args, kwargs, result):
        self._count("solver.newton_iters", result.iterations)

    def _after_construct_pair(self, args, kwargs, cert):
        solved = {e.j for e in cert.entries}
        self._count("solver.scales_attempted", len(cert.entries) + len(cert.failed_js))
        self._count("solver.scales_failed", len(cert.failed_js))
        self._count("solver.solve_mu.useful_calls", sum(1 for j in self._solve_js if j in solved))
        self._solve_js = []

    def _after_save_certificate(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self._count("serialize.certificate_bytes", os.path.getsize(path))

    def _after_build_projection(self, args, kwargs, op):
        self._count("analysis.build_projection.atoms", op.atom_count)

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target inside the imported package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {
            "solver.solve_mu": (self._before_solve_mu, self._after_solve_mu),
            "solver.construct_pair": (None, self._after_construct_pair),
            "serialize.save_certificate": (None, self._after_save_certificate),
            "analysis.build_projection": (None, self._after_build_projection),
        }
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for short, funcs in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{short}"]
            for func in funcs:
                name = f"{short}.{func}"
                original = getattr(home, func, None)
                if original is None:  # a target the program no longer has reads as idle
                    continue
                before, after = hooks.get(name, (None, None))
                wrapper = self._wrap(name, original, VARIANTS.get(name), before, after)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            for method in methods:
                original = cls.__dict__.get(method)
                if original is None:
                    continue
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(f"{short}.{cls_name}.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results --------------------------------------------------------------

    def cycle_aggregates(self, cycle: int) -> dict:
        """calls / total_s / self_s per span name (base and variant) in one cycle."""
        lo = self.cycle_starts[cycle]
        hi = self.cycle_starts[cycle + 1] if cycle + 1 < len(self.cycle_starts) else len(self.start)
        child = {}
        for i in range(lo, hi):
            par = self.parent[i]
            if par >= lo:
                child[par] = child.get(par, 0) + self.end[i] - self.start[i]
        agg = {}
        for i in range(lo, hi):
            nid = self.name_id[i]
            dur = self.end[i] - self.start[i]
            for key in {nid, self._base_of[nid]}:
                row = agg.setdefault(self.names[key], [0, 0, 0])
                row[0] += 1
                row[1] += dur
                row[2] += dur - child.get(i, 0)
        out = {}
        for name, (calls, total, self_ns) in agg.items():
            display = name.replace("[", ".").replace("]", "")
            out[f"{display}.calls"] = calls
            out[f"{display}.total_s"] = total / 1e9
            out[f"{display}.self_s"] = self_ns / 1e9
        counters = self.counters[cycle]
        out.update(counters)
        solves = out.get("solver.solve_mu.calls", 0)
        # share of solve_mu calls spent on scales that end up in the certificate;
        # with no solve attempted nothing was wasted
        out["solver.solve_mu.useful_ratio"] = (
            counters["solver.solve_mu.useful_calls"] / solves if solves else 1.0
        )
        return out

    def median_aggregates(self) -> dict:
        """Per-cycle medians of every aggregate over all traced cycles."""
        per_cycle = [self.cycle_aggregates(c) for c in range(len(self.cycle_starts))]
        out = {}
        for key in set().union(*per_cycle):
            values = [c.get(key, 0) for c in per_cycle]
            # counts stay whole numbers: take a sample, not a mean of two
            exact = all(isinstance(v, int) for v in values)
            out[key] = statistics.median_low(values) if exact else statistics.median(values)
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, cycle, name, parent index, start and end."""
        cycle = 0
        bounds = self.cycle_starts[1:] + [len(self.start)]
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tcycle\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                while i >= bounds[cycle]:
                    cycle += 1
                fh.write(
                    f"{i}\t{cycle}\t{self.names[self.name_id[i]]}\t{self.parent[i]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
