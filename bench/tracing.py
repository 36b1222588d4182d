"""Outside-in span tracing of anwsim's public layers.

Each traced function is replaced, for the length of a ``Tracer`` context,
at every module attribute of the ``anwsim`` package that refers to it.
Callers resolve names through their own module globals (``optimize``
calls ``propagator_exact`` through ``anwsim.optimize``), so patching only
the defining module would miss them. Nothing under ``src/`` changes.

A span's self time is its duration minus the time covered by its direct
child spans. Names that no longer exist in the package are reported as
missing instead of failing the run, so renames do not break tracing.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time

# (module, attribute, metric prefix); the drivers are traced too so that
# restart yield can be attributed to the driver call that ran the restarts
TARGETS = (
    ("symplectic", "mat_exp", "symplectic.mat_exp"),
    ("symplectic", "takagi", "symplectic.takagi"),
    ("symplectic", "bloch_messiah", "symplectic.bloch_messiah"),
    ("symplectic", "d_lo", "symplectic.d_lo"),
    ("symplectic", "euler_orthogonal", "symplectic.euler_orthogonal"),
    ("model", "quad_generator", "model.quad_generator"),
    ("model", "propagator_exact", "model.propagator_exact"),
    ("model", "linear_supermodes", "model.linear_supermodes"),
    ("measurement", "combination_variance", "measurement.combination_variance"),
    ("measurement", "min_variance", "measurement.min_variance"),
    ("measurement", "change_basis", "measurement.change_basis"),
    ("entanglement", "nullifiers_for", "entanglement.nullifiers_for"),
    ("entanglement", "vlf_values", "entanglement.vlf_values"),
    ("entanglement", "certify", "entanglement.certify"),
    ("optimize", "evolve", "optimize.evolve"),
    ("optimize", "fitness_FM", "optimize.fitness_FM"),
    ("optimize", "fitness_FC", "optimize.fitness_FC"),
    ("optimize", "_nearest_phase_rotation", "optimize.nearest_phase_rotation"),
    ("optimize", "_scipy_minimize", "optimize.polish"),
    ("optimize", "optimize_vlf", "optimize.optimize_vlf"),
    ("optimize", "synthesize_cluster", "optimize.synthesize_cluster"),
    ("optimize", "synthesize_emulation", "optimize.synthesize_emulation"),
    ("config", "load_config", "config.load_config"),
    ("cli", "run", "cli.run"),
)

DRIVERS = ("optimize.optimize_vlf", "optimize.synthesize_cluster", "optimize.synthesize_emulation")
FITNESS = "optimize.fitness"

# layers whose first call's arguments are kept for the isolated timings
CAPTURE = (
    "model.quad_generator",
    "symplectic.mat_exp",
    "symplectic.takagi",
    "symplectic.bloch_messiah",
    "optimize.nearest_phase_rotation",
    "optimize.fitness_FM",
    "optimize.fitness_FC",
)


def metric_names() -> list[str]:
    """Every per-layer metric name the tracer reports."""
    names = []
    for _, _, prefix in TARGETS:
        names += [f"{prefix}.calls", f"{prefix}.self_s"]
    names += [
        f"{FITNESS}.evals",
        f"{FITNESS}.self_s",
        "optimize.es.overhead_s",
        "optimize.polish.nfev",
        "optimize.restart_yield",
    ]
    return names


class Tracer:
    """Counts calls and accumulates self time per traced name."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.captured: dict[str, tuple] = {}
        self.fitness_in_evolve = 0.0
        self.polish_nfev = 0
        self.restarts = 0
        self.improving_restarts = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, child_time, driver_state]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        if name in CAPTURE and name not in self.captured:
            self.captured[name] = (args, kwargs)
        frame = [name, 0.0, None]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dt
            self.self_s[name] = self.self_s.get(name, 0.0) + dt - frame[1]
            if self._stack:
                self._stack[-1][1] += dt

    def _driver(self) -> list | None:
        """Outermost driver frame on the stack (GHZ recurses into star)."""
        for frame in self._stack:
            if frame[0] in DRIVERS:
                return frame
        return None

    def _wrap(self, name: str, fn):
        if name == "optimize.evolve":
            return self._wrap_evolve(fn)
        if name == "optimize.polish":

            def polish(*args, **kwargs):
                res = self._span(name, fn, args, kwargs)
                self.polish_nfev += int(res.nfev)
                return res

            return polish

        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return traced

    def _wrap_evolve(self, fn):
        def evolve(problem, *args, **kwargs):
            inner = problem.fitness

            def fitness(x):
                t0 = time.perf_counter()
                try:
                    return self._span(FITNESS, inner, (x,), {})
                finally:
                    self.fitness_in_evolve += time.perf_counter() - t0

            driver = self._driver()
            if driver is not None:
                # the driver's own fitness closure, e.g. the reduced F_P
                self.captured.setdefault(f"{FITNESS}@{driver[0]}", (inner, problem.x0))
            res = self._span(
                "optimize.evolve",
                fn,
                (dataclasses.replace(problem, fitness=fitness), *args),
                kwargs,
            )
            if driver is not None:
                self.restarts += 1
                if driver[2] is None or res.fitness < driver[2]:
                    self.improving_restarts += 1
                    driver[2] = res.fitness
            return res

        return evolve

    # -- install / remove ----------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in list(sys.modules.items()) if k == "anwsim" or k.startswith("anwsim.")]
        for module_name, attr, prefix in TARGETS:
            try:
                home = importlib.import_module(f"anwsim.{module_name}")
            except ImportError:
                self.missing.append(prefix)
                continue
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(prefix)
                continue
            wrapper = self._wrap(prefix, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for _, _, prefix in TARGETS:
            out[f"{prefix}.calls"] = self.calls.get(prefix, 0)
            out[f"{prefix}.self_s"] = self.self_s.get(prefix, 0.0)
        out[f"{FITNESS}.evals"] = self.calls.get(FITNESS, 0)
        out[f"{FITNESS}.self_s"] = self.self_s.get(FITNESS, 0.0)
        out["optimize.es.overhead_s"] = self.total.get("optimize.evolve", 0.0) - self.fitness_in_evolve
        out["optimize.polish.nfev"] = self.polish_nfev
        out["optimize.restart_yield"] = (
            self.improving_restarts / self.restarts if self.restarts else 0.0
        )
        return out
