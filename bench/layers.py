"""Traced in-process pass: spans around the public functions of every layer.

Each traced function is replaced at every module attribute of the ``gctrl``
package that binds it (``hjb.solve`` is also ``cli.solve``, ``verify.solve``
and ``merton.solve``), so calls between modules are caught without touching
the package's sources.  Spans nest along the call stack of the one thread
the serial path runs on; a span's self time is its duration minus the
durations of the spans it directly contains.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, function) pairs wrapped by the traced pass; the span is "module.function".
TRACED = (
    ("config", "parse_config"),
    ("cli", "main"),
    ("cli", "cmd_solve_hjb"),
    ("cli", "cmd_merton"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_verify"),
    ("hjb", "solve"),
    ("hjb", "dpp_composition_check"),
    ("hjb", "evaluate_policy_mc"),
    ("hjb", "solution_csv_text"),
    ("merton", "solve_A"),
    ("merton", "verify_hjb_residual"),
    ("merton", "a_curve_csv_text"),
    ("merton", "policy_csv_text"),
    ("sde", "path_normals"),
    ("sde", "integrate_gsde"),
    ("sde", "sample_gbm"),
    ("sde", "bundle_csv_text"),
    ("estimators", "upper_expectation_mc"),
    ("ambiguity", "g_matrix"),
    ("verify", "run_all_checks"),
    ("verify", "check_comparison_principle"),
    ("verify", "check_subadditivity"),
    ("verify", "check_homogeneity"),
    ("verify", "check_direction_order"),
    ("verify", "check_maximizer_membership"),
    ("verify", "check_bruteforce_agreement"),
)

PROPERTY_SUITES = (
    "verify.check_subadditivity",
    "verify.check_homogeneity",
    "verify.check_direction_order",
    "verify.check_maximizer_membership",
    "verify.check_bruteforce_agreement",
)


def _solve_work(a, result):
    return a["grid"].n_x * a["grid"].n_t * len(a["problem"].controls)


def _path_steps(a, result):
    return a["cfg"].n_paths * a["cfg"].n_steps


# Work done by one call, from its bound arguments and its result.
WORK = {
    "hjb.solve": _solve_work,
    "hjb.solution_csv_text": lambda a, r: len(r),
    "merton.solve_A": lambda a, r: a["n_t"],
    "sde.path_normals": lambda a, r: a["n_paths"] * a["n_steps"] * a["dim"],
    "sde.integrate_gsde": _path_steps,
    "sde.sample_gbm": _path_steps,
    "sde.bundle_csv_text": lambda a, r: len(r),
    "estimators.upper_expectation_mc": lambda a, r: r.n_schedules_searched,
}

class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "work")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.work = 0


class Tracer:
    """Collects spans in memory while the wrapped functions run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        # (work, problem, grid) of the largest grid solve, for its dt ratio.
        self.largest_solve = None

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        work = WORK.get(name)

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
            if work is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span.work = work(bound, return_value)
                if name == "hjb.solve" and (self.largest_solve is None
                                            or span.work > self.largest_solve[0]):
                    self.largest_solve = (span.work, bound["problem"], bound["grid"])
            return return_value

        return functools.update_wrapper(traced, fn)


class installed:
    """Context manager that swaps every binding of the traced functions."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple] = []

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gctrl" or n.startswith("gctrl."))]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"gctrl.{module_name}"], fn_name)
            wrapper = self.tracer.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        return False


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round; layers that did not run read 0."""
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    for s in tracer.spans:
        d = s.end - s.start
        total[s.name] = total.get(s.name, 0.0) + d
        self_s[s.name] = self_s.get(s.name, 0.0) + d - s.child_s
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0) + s.work

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0.0 else 0.0

    solve_s = total.get("hjb.solve", 0.0)
    hjb_csv_s = total.get("hjb.solution_csv_text", 0.0)
    solve_a_s = total.get("merton.solve_A", 0.0)
    normals_s = total.get("sde.path_normals", 0.0)
    integrate_s = self_s.get("sde.integrate_gsde", 0.0) + self_s.get("sde.sample_gbm", 0.0)
    path_steps = work.get("sde.integrate_gsde", 0) + work.get("sde.sample_gbm", 0)
    sde_csv_s = total.get("sde.bundle_csv_text", 0.0)
    candidates = work.get("estimators.upper_expectation_mc", 0)

    dt_ratio = 0.0
    if tracer.largest_solve is not None:
        _, problem, grid = tracer.largest_solve
        from gctrl.hjb import max_stable_dt
        dt_ratio = problem.horizon / grid.n_t / max_stable_dt(problem, grid)

    return {
        "config.parse_s": total.get("config.parse_config", 0.0),
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "hjb.solve_s": solve_s,
        "hjb.solves": calls.get("hjb.solve", 0),
        "hjb.node_control_steps": work.get("hjb.solve", 0),
        "hjb.sweep_rate": rate(work.get("hjb.solve", 0), solve_s),
        "hjb.dt_ratio": dt_ratio,
        "hjb.dpp_s": total.get("hjb.dpp_composition_check", 0.0),
        "hjb.policy_mc_s": total.get("hjb.evaluate_policy_mc", 0.0),
        "hjb.csv_s": hjb_csv_s,
        "hjb.csv_mb_per_s": rate(work.get("hjb.solution_csv_text", 0) / 1e6, hjb_csv_s),
        "merton.solve_A_s": solve_a_s,
        "merton.rk4_steps_per_s": rate(work.get("merton.solve_A", 0), solve_a_s),
        "merton.residual_s": total.get("merton.verify_hjb_residual", 0.0),
        "merton.csv_s": total.get("merton.a_curve_csv_text", 0.0)
        + total.get("merton.policy_csv_text", 0.0),
        "sde.normals_s": normals_s,
        "sde.normals": work.get("sde.path_normals", 0),
        "sde.normals_per_s": rate(work.get("sde.path_normals", 0), normals_s),
        "sde.integrate_s": integrate_s,
        "sde.path_steps": path_steps,
        "sde.path_steps_per_s": rate(path_steps, integrate_s),
        "sde.csv_s": sde_csv_s,
        "sde.csv_mb_per_s": rate(work.get("sde.bundle_csv_text", 0) / 1e6, sde_csv_s),
        "estimators.search_s": self_s.get("estimators.upper_expectation_mc", 0.0),
        "estimators.candidates": candidates,
        "estimators.candidates_per_s": rate(candidates,
                                            total.get("estimators.upper_expectation_mc", 0.0)),
        "ambiguity.g_matrix_s": total.get("ambiguity.g_matrix", 0.0),
        "ambiguity.g_matrix_calls": calls.get("ambiguity.g_matrix", 0),
        "verify.checks_s": total.get("verify.run_all_checks", 0.0),
        "verify.comparison_principle_s": total.get("verify.check_comparison_principle", 0.0),
        "verify.property_suites_s": sum(total.get(k, 0.0) for k in PROPERTY_SUITES),
        "trace.wall_s": wall_s,
    }
