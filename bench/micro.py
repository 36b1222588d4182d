"""Isolated per-layer timings on inputs captured from a traced pass.

Each layer is called in batches of about 20 ms and reported as the median
microseconds per call over five batches, which is steadier than the
in-run span times. A layer the workload never called is timed on a
reference input drawn from the workload seed, and reported as such.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import anwsim
from anwsim import optimize

from workloads import CFG, Z

LAYERS = (
    "quad_generator",
    "mat_exp",
    "takagi",
    "bloch_messiah",
    "nearest_phase_rotation",
    "fitness_FM",
    "fitness_FC",
    "fitness_FP_reduced",
    "es_generation",
)
ES_GENERATIONS = 20
FP_KEY = "optimize.fitness@optimize.synthesize_emulation"
# layer: (traced name whose first input is reused, module, attribute)
CALLS = {
    "quad_generator": ("model.quad_generator", anwsim, "quad_generator"),
    "mat_exp": ("symplectic.mat_exp", anwsim, "mat_exp"),
    "takagi": ("symplectic.takagi", anwsim, "takagi"),
    "bloch_messiah": ("symplectic.bloch_messiah", anwsim, "bloch_messiah"),
    "nearest_phase_rotation": ("optimize.nearest_phase_rotation", optimize, "_nearest_phase_rotation"),
    "fitness_FM": ("optimize.fitness_FM", anwsim, "fitness_FM"),
    "fitness_FC": ("optimize.fitness_FC", anwsim, "fitness_FC"),
}


def metric_names() -> list[str]:
    return [f"micro.{layer}.us_per_call" for layer in LAYERS]


def _per_call_us(fn) -> float:
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    k = max(1, int(0.02 / max(once, 1e-7)))
    batches = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        batches.append((time.perf_counter() - t0) / k)
    return 1e6 * statistics.median(batches)


class _Captured(Exception):
    pass


def _reduced_fp(graph):
    """The reduced F_P closure synthesize_emulation builds, and a start point.

    The driver's call into ``evolve`` is intercepted before any search runs.
    """
    original = optimize.evolve

    def intercept(problem, *args, **kwargs):
        raise _Captured(problem.fitness, problem.x0)

    optimize.evolve = intercept
    try:
        anwsim.synthesize_emulation(CFG, Z, graph, restarts=1, generations=0)
    except _Captured as got:
        return got.args
    finally:
        optimize.evolve = original
    raise RuntimeError("synthesize_emulation did not call evolve")


def _reference_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    pump = anwsim.PumpProfile(rng.uniform(0.0, 2.0 / Z, 5), rng.uniform(-np.pi, np.pi, 5))
    graph = anwsim.graph_preset("pentagon")
    q = anwsim.quad_generator(CFG, pump)
    s = anwsim.mat_exp(q * Z)
    e, f = anwsim.symplectic_to_bogoliubov(s)
    bm = anwsim.bloch_messiah(s)
    u1 = bm.passive_out[:5, :5] + 1j * bm.passive_out[5:, :5]
    w = anwsim.cluster_transform(graph).unitary @ u1.conj().T
    theta = rng.uniform(-np.pi, np.pi, 5)
    return {
        "model.quad_generator": ((CFG, pump), {}),
        "symplectic.mat_exp": ((q * Z,), {}),
        "symplectic.takagi": ((e @ f.T,), {}),
        "symplectic.bloch_messiah": ((s,), {}),
        "optimize.nearest_phase_rotation": ((w,), {}),
        "optimize.fitness_FM": ((anwsim.GaussianState.from_propagator(Z, s), theta, np.zeros(5)), {}),
        "optimize.fitness_FC": ((CFG, Z, graph, pump.amplitudes, pump.phases, theta), {}),
        FP_KEY: _reduced_fp(graph),
    }


def _es_generation(seed: int) -> float:
    """One (10/100) generation on a 15-dimensional F_C-shaped space with a
    trivial fitness, so the figure is the ES bookkeeping alone."""
    problem = anwsim.OptimizationProblem(
        fitness=lambda x: 0.0,
        space=anwsim.ParameterSpace(kinds=("amplitude",) * 5 + ("angle",) * 10),
        x0=np.zeros(15),
    )
    config = anwsim.ESConfig(population=100, parents=10, max_generations=ES_GENERATIONS, seed=seed)
    return _per_call_us(lambda: anwsim.evolve(problem, config)) / ES_GENERATIONS


def run_micro(captured: dict, seed: int) -> tuple[dict[str, float], dict[str, str]]:
    """Per-call microseconds per layer, and where each layer's input came from.

    A layer whose name or signature no longer fits reports 0 and the
    reason, so an API change in the package does not fail the traced run.
    """
    reference: dict = {}

    def inputs(key: str):
        if key in captured:
            return captured[key], "captured"
        if not reference:
            reference.update(_reference_inputs(seed))
        return reference[key], "reference"

    out, source = {}, {}
    for layer in LAYERS:
        out[layer] = 0.0
        try:
            if layer == "es_generation":
                out[layer], source[layer] = _es_generation(seed), "reference"
            elif layer == "fitness_FP_reduced":
                (fitness, x0), source[layer] = inputs(FP_KEY)
                out[layer] = _per_call_us(lambda: fitness(x0))
            else:
                key, module, attr = CALLS[layer]
                (args, kwargs), source[layer] = inputs(key)
                fn = getattr(module, attr)
                out[layer] = _per_call_us(lambda: fn(*args, **kwargs))
        except Exception as exc:  # a renamed or re-signed layer
            source[layer] = f"failed: {type(exc).__name__}: {exc}"
    return {f"micro.{k}.us_per_call": v for k, v in out.items()}, source
