"""The four benchmark workloads: seeded inputs, operations and output checks.

A workload is a list of operations (one driver call or one CLI command
each) built from the workload seed. ``run()`` of an operation is the timed
call into anwsim; ``check()`` validates its output afterwards, outside the
timed and traced region, and returns the problems found, a digest of the
deterministic results and the quality figures behind ``target_ratio``.

Seed 0 reproduces the acceptance-test seeds (F_C 41, F_M 7); seed s shifts
each of them by s. The F_P search always runs its acceptance seed 11.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import anwsim
from anwsim import cli

from env import nproc

WORKLOADS = ("cluster_fc", "emulation_fp", "vlf_fm", "cli_sweep")

Z = 30.0
CFG = anwsim.ArrayConfig(n=5, coupling=0.24, length=Z)

# stored values of the paper's N=5 tables, as pinned by the acceptance
# tests: fixed-basis nullifier variances, the certified linear-cluster
# setting, and the emulation search's cluster-basis variances
CLUSTER_ROWS = {
    "linear": [0.20, 0.39, 0.37, 0.38, 0.20],
    "pentagon": [0.59, 0.73, 0.09, 0.34, 0.11],
    "star": [0.40, 0.41, 0.54, 0.41, 0.40],
    "pyramid": [0.33, 0.12, 0.57, 0.18, 0.19],
    "ghz": [0.40, 0.41, 0.54, 0.41, 0.40],
}
LINEAR_SETTING = {
    "pump": {"amplitudes": [0.092, 0.089, 0.091, 0.091, 0.092], "phases_pi": [-0.5] * 5},
    "measurement": {"lo_phases_pi": [0.0] * 5},
    "graph": {"preset": "linear"},
}
EMULATION_ROWS = {"pentagon": [0.28, 0.25, 0.31, 0.17, 0.32]}
VLF_PLATEAU = np.array([4.51, 4.23, 4.23, 4.51])
ACCEPT_SEED = {"cluster_fc": 41, "emulation_fp": 11, "vlf_fm": 7}

# search budgets per size; "full" keeps a pass short enough for a run to
# hold at least two (see bench/README.md), "tiny" is for the smoke check
BUDGET = {
    "full": {
        "fc": dict(restarts=2, generations=5),
        "fp": dict(restarts=6, generations=150),
        "fm": dict(generations=200),
        "fm_pump": dict(restarts=4, generations=50),
        "z_points": 601,
        "eta_points": 61,
    },
    "tiny": {
        "fc": dict(restarts=1, generations=1),
        "fp": dict(restarts=1, generations=2),
        "fm": dict(generations=3),
        "fm_pump": dict(restarts=2, generations=2),
        "z_points": 11,
        "eta_points": 5,
    },
}

# one full-size pass, measured on a 2-CPU Xeon with one BLAS thread; a run
# makes round(seconds / this) passes, so every run of a workload has the
# same operation count (and tail percentile) however fast the code is
NOMINAL_PASS_S = {"cluster_fc": 2.2, "emulation_fp": 13.0, "vlf_fm": 7.5, "cli_sweep": 1.9}

SYMPLECTIC_LIMIT = 1e-10


@dataclass
class Outcome:
    items: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    achieved: float | None = None  # objective reached, for target_ratio
    stored: float | None = None  # the stored acceptance value it is held to
    extra: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Callable[[], object]
    traced_only: list[Op] = field(default_factory=list)
    # operations well under a second, timed against the calibration kernel
    calibrated: bool = False


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _close(a, b, rel: float = 1e-9) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


def _omega(n: int) -> np.ndarray:
    return np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])


def _symplectic_defect(s: np.ndarray) -> float:
    om = _omega(s.shape[0] // 2)
    return float(np.abs(s @ om @ s.T - om).max())


def _purity_defect(v: np.ndarray) -> float:
    """|V Omega V Omega + I|, zero for V = S S^T with S symplectic, scaled by |V|^2."""
    om = _omega(v.shape[0] // 2)
    return float(np.abs(v @ om @ v @ om + np.eye(v.shape[0])).max() / max(1.0, np.abs(v).max() ** 2))


def _variance(v: np.ndarray, coefficients: np.ndarray, angles: np.ndarray) -> float:
    """Combination variance with the LO rotation applied element-wise."""
    n = angles.size
    c, s = np.cos(angles), np.sin(angles)
    cx, cy = coefficients[:n], coefficients[n:]
    w = np.concatenate([c * cx - s * cy, s * cx + c * cy])
    return float(w @ v @ w)


def _vlf(v: np.ndarray, theta: np.ndarray, gains: np.ndarray) -> np.ndarray:
    n = theta.size
    out = []
    for i in range(n - 1):
        cx = np.zeros(2 * n)
        cx[i], cx[i + 1] = 1.0, -1.0
        cy = np.zeros(2 * n)
        cy[n:] = gains
        cy[n + i], cy[n + i + 1] = 1.0, 1.0
        out.append(_variance(v, cx, theta) + _variance(v, cy, theta))
    return np.array(out)


def _common_search_checks(opt, expected_evals: int | None, problems: list[str]) -> None:
    if expected_evals is not None and opt.evaluations != expected_evals:
        problems.append(f"evaluations {opt.evaluations} != budget {expected_evals}")
    trace = np.asarray(opt.trace)
    if trace.size and np.any(np.diff(trace) > 0):
        problems.append("best-so-far trace increases")
    if trace.size and trace[-1] != opt.fitness:
        problems.append("trace does not end at the reported fitness")


# ---------------------------------------------------------------------------
# cluster_fc


def _cluster_fc(seed: int, size: str, tmp: Path) -> Workload:
    budget = BUDGET[size]["fc"]
    es_seed = ACCEPT_SEED["cluster_fc"] + seed
    parents, population = 10, 100
    # the flat-pump scan before the first restart is not counted as evaluations
    expected = budget["restarts"] * (parents + population * budget["generations"])

    def make(name: str) -> Op:
        graph = anwsim.graph_preset(name)

        def run():
            return anwsim.synthesize_cluster(
                CFG, Z, graph, seed=es_seed, parents=parents, population=population, **budget
            )

        def check(syn) -> Outcome:
            problems: list[str] = []
            _common_search_checks(syn.optimization, expected, problems)
            state = anwsim.propagator_exact(CFG, syn.pump, Z)
            defect = _symplectic_defect(state.propagator)
            if not defect < SYMPLECTIC_LIMIT:
                problems.append(f"symplectic defect {defect:.2e}")
            report = syn.report
            recomputed = [
                _variance(state.covariance, c.coefficients, c.angles)
                for c in anwsim.nullifiers_for(graph, report.lo_phases)
            ]
            if not _close(report.nullifier_variances, recomputed):
                problems.append("certified nullifier variances disagree with the covariance")
            if not _close(syn.total_variance, syn.optimization.fitness):
                problems.append("certified sum differs from the optimized fitness")
            return Outcome(
                items=syn.optimization.evaluations,
                digest=_digest(syn.optimization.parameters, syn.optimization.fitness,
                               report.nullifier_variances, syn.optimization.evaluations),
                problems=problems,
                achieved=syn.total_variance,
                stored=float(np.sum(CLUSTER_ROWS[name])),
                extra={"below_shot": report.below_shot},
            )

        return Op(f"synthesize_cluster[{name}]", run, check)

    ops = [make(name) for name in anwsim.PRESETS]
    warm = anwsim.PumpProfile.flat(5, 0.05, 0.0)
    return Workload("cluster_fc", ops, lambda: anwsim.propagator_exact(CFG, warm, Z), calibrated=True)


# ---------------------------------------------------------------------------
# emulation_fp


def _emulation_fp(seed: int, size: str, tmp: Path) -> Workload:
    # The acceptance case for every workload seed: how long the Nelder-Mead
    # polish runs depends on the ES seed (7.4k to 10k evaluations over seeds
    # 11-16), which would spread run_s by about 25 % across seeds.
    budget = BUDGET[size]["fp"]
    es_seed = ACCEPT_SEED["emulation_fp"]
    name = "pentagon"
    graph = anwsim.graph_preset(name)
    stored = float(np.sum(EMULATION_ROWS[name]))

    def run():
        return anwsim.synthesize_emulation(CFG, Z, graph, seed=es_seed, target=1.1 * stored, **budget)

    def check(syn) -> Outcome:
        problems: list[str] = []
        _common_search_checks(syn.optimization, None, problems)
        v = syn.nullifier_variances
        if size == "full":
            if not np.all(v < 1.0):
                problems.append(f"cluster variance above shot noise: {np.round(v, 3).tolist()}")
            if not v.sum() <= 1.1 * stored + 1e-9:
                problems.append(f"summed variance {v.sum():.4f} above 1.1 x stored {stored:.2f}")
        full = anwsim.fitness_FP(CFG, Z, graph, syn.parameters)
        if not abs(full - syn.fp) <= 1e-6:
            problems.append(f"full F_P {full:.3e} differs from the reported {syn.fp:.3e}")
        state = anwsim.propagator_exact(CFG, syn.pump, Z)
        defect = _symplectic_defect(state.propagator)
        if not defect < SYMPLECTIC_LIMIT:
            problems.append(f"symplectic defect {defect:.2e}")
        return Outcome(
            items=syn.optimization.evaluations,
            digest=_digest(syn.parameters, syn.fp, v, syn.optimization.evaluations),
            problems=problems,
            achieved=float(v.sum()),
            stored=stored,
        )

    warm = anwsim.PumpProfile.flat(5, 0.05, 0.0)
    return Workload(
        "emulation_fp", [Op(f"synthesize_emulation[{name}]", run, check)],
        lambda: anwsim.propagator_exact(CFG, warm, Z),
    )


# ---------------------------------------------------------------------------
# vlf_fm


def _vlf_fm(seed: int, size: str, tmp: Path) -> Workload:
    detection, pump_budget = BUDGET[size]["fm"], BUDGET[size]["fm_pump"]
    es_seed = ACCEPT_SEED["vlf_fm"] + seed
    amplitude = 0.015

    def make(pump_phases: bool) -> Op:
        budget = pump_budget if pump_phases else detection
        if pump_phases:
            expected = budget["restarts"] * (5 + 40 * budget["generations"])
        else:
            expected = 5 + 40 * budget["generations"]

        def run():
            return anwsim.optimize_vlf(
                CFG, Z, amplitude, optimize_pump_phases=pump_phases, seed=es_seed, sigma0=0.1, **budget
            )

        def check(opt) -> Outcome:
            problems: list[str] = []
            _common_search_checks(opt.optimization, expected, problems)
            state = anwsim.propagator_exact(CFG, opt.pump, Z)
            defect = _symplectic_defect(state.propagator)
            if not defect < SYMPLECTIC_LIMIT:
                problems.append(f"symplectic defect {defect:.2e}")
            rho = np.asarray(opt.rho)
            if not _close(rho, _vlf(state.covariance, opt.lo_phases, opt.gains)):
                problems.append("reported rho disagrees with the covariance")
            if not _close(rho.sum(), opt.optimization.fitness):
                problems.append("summed rho differs from the optimized fitness")
            if not pump_phases and size == "full" and not np.all(np.abs(rho - VLF_PLATEAU) <= 0.05):
                problems.append(f"detection-only rho {np.round(rho, 3).tolist()} off the plateau")
            return Outcome(
                items=opt.optimization.evaluations,
                digest=_digest(opt.optimization.parameters, rho, opt.optimization.evaluations),
                problems=problems,
                extra={"rho_max": float(rho.max())},
            )

        return Op("optimize_vlf[pump_phases]" if pump_phases else "optimize_vlf[detection]", run, check)

    warm = anwsim.PumpProfile.flat(5, amplitude, 0.0)
    return Workload("vlf_fm", [make(False), make(True)], lambda: anwsim.propagator_exact(CFG, warm, Z))


# ---------------------------------------------------------------------------
# cli_sweep


def _random_pump(rng: np.random.Generator, flat: bool) -> dict:
    """Pump with eta * z <= 2 over the device, as in the acceptance random_cases."""
    if flat:
        amps = np.full(5, rng.uniform(0.005, 2.0 / Z))
        phases = np.full(5, rng.uniform(-1.0, 1.0))
    else:
        amps = rng.uniform(0.0, 2.0 / Z, 5)
        phases = rng.uniform(-1.0, 1.0, 5)
    return {"amplitudes": amps.tolist(), "phases_pi": phases.tolist()}


def _cli_sweep(seed: int, size: str, tmp: Path) -> Workload:
    rng = np.random.default_rng(seed)
    array = {"n": 5, "coupling": 0.24, "length": Z}
    nonflat, flat = _random_pump(rng, flat=False), _random_pump(rng, flat=True)
    vlf_phase = float(rng.uniform(-1.0, 1.0))
    lo_phases = rng.uniform(-1.0, 1.0, 5).tolist()
    z_points, eta_points = BUDGET[size]["z_points"], BUDGET[size]["eta_points"]
    # four short commands, two VLF sweeps and three long sweeps: with one
    # VLF sweep more or one short command less, the median operation would
    # sit on the edge between two groups and jump between them run to run
    scenarios = {
        "propagate": ("propagate", {"pump": nonflat, "sweep": {"variable": "z", "start": 0.0, "stop": Z, "points": z_points}}),
        "vlf": ("vlf", {
            "pump": {"amplitudes": [0.0] * 5, "phases_pi": [vlf_phase] * 5},
            "measurement": {"lo_phases_pi": [0.0] * 5},
            "sweep": {"variable": "eta", "start": 0.0, "stop": 1.8 / Z, "points": eta_points},
        }),
        "vlf_z": ("vlf", {
            "pump": flat,
            "measurement": {"lo_phases_pi": lo_phases},
            "sweep": {"variable": "z", "start": 0.0, "stop": Z, "points": eta_points},
        }),
        "supermodes": ("supermodes", {}),
        "verify": ("verify", LINEAR_SETTING),
        "verify_off": ("verify", {**LINEAR_SETTING, "pump": {"amplitudes": [0.0] * 5}}),
        "cluster_forward": ("cluster", {**LINEAR_SETTING, "optimizer": {"fitness": "FC", "generations": 0}}),
        "oracle_flat": ("oracle-check", {"pump": flat}),
        "oracle_nonflat": ("oracle-check", {"pump": nonflat}),
    }
    expected_code = {"verify_off": 2}
    config_dir = tmp / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, (_, extra) in scenarios.items():
        outdir = tmp / "out" / key
        scn = {"array": array, **extra, "output": {"directory": str(outdir), "format": "csv"}}
        paths[key] = config_dir / f"{key}.json"
        paths[key].write_text(json.dumps(scn))

    verify_variances: dict[str, list] = {}

    def make(key: str) -> Op:
        command = scenarios[key][0]
        outdir = tmp / "out" / key
        argv = [command, "--config", str(paths[key]), "--out", str(outdir), "--parallel", "1"]

        def check(code) -> Outcome:
            problems: list[str] = []
            want = expected_code.get(key, 0)
            if code != want:
                return Outcome(problems=[f"exit code {code}, documented {want}"])
            res = _results(outdir, command)
            items = 0
            csv_path = outdir / f"{command.replace('-', '_')}.csv"
            if csv_path.exists():
                with csv_path.open() as fh:
                    items = sum(1 for _ in csv.reader(fh)) - 1
            _check_cli(key, res, items, z_points, eta_points, verify_variances, problems)
            return Outcome(items=items, digest=_digest(json.dumps(res, sort_keys=True)), problems=problems)

        return Op(f"cli {command}[{key}]", lambda: _run_cli(argv), check)

    ops = [make(key) for key in scenarios]
    warm = anwsim.PumpProfile(np.asarray(nonflat["amplitudes"]), np.pi * np.asarray(nonflat["phases_pi"]))
    return Workload(
        "cli_sweep", ops, lambda: anwsim.propagator_exact(CFG, warm, Z),
        traced_only=[_parallel_propagate(paths["propagate"], tmp / "out")],
        calibrated=True,
    )


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def _results(outdir: Path, command: str) -> dict:
    """The ``results`` block of the record a command wrote."""
    record = json.loads((outdir / f"{command.replace('-', '_')}_record.json").read_text())
    return record["results"]


def _parallel_propagate(config: Path, out: Path) -> Op:
    """The propagate sweep on the program's process pool, against the serial rows."""
    outdir = out / "propagate_parallel"
    argv = ["propagate", "--config", str(config), "--out", str(outdir), "--parallel", str(min(2, nproc()))]

    def check(code) -> Outcome:
        if code != 0:
            return Outcome(problems=[f"exit code {code}, documented 0"])
        serial, parallel = _results(out / "propagate", "propagate"), _results(outdir, "propagate")
        problems = [] if parallel == serial else ["--parallel rows differ from the serial rows"]
        return Outcome(items=len(parallel["rows"]), digest=_digest(json.dumps(parallel, sort_keys=True)), problems=problems)

    return Op("cli propagate[parallel]", lambda: _run_cli(argv), check)


def _check_cli(key, res, items, z_points, eta_points, verify_variances, problems) -> None:
    if "state" in res and not _purity_defect(np.asarray(res["state"]["covariance"])) < SYMPLECTIC_LIMIT:
        problems.append("reported covariance is not that of a symplectic propagator")
    if key == "propagate":
        rows = np.asarray(res["rows"])
        if items != z_points or rows.shape[0] != z_points:
            problems.append(f"{items} CSV rows, expected {z_points}")
        elif not np.allclose(rows[0, 1::2], 1.0, atol=1e-12, rtol=0):
            problems.append("z = 0 row is not vacuum")
        elif not np.all(rows[:, 1::2] > 0):
            problems.append("nonpositive variance")
    elif key.startswith("vlf"):
        rows = np.asarray(res["rows"])
        if items != eta_points or not np.allclose(rows[0, 1:-1], 4.0, atol=1e-9, rtol=0):
            problems.append("VLF sweep must start at the vacuum value rho = 4")
    elif key == "supermodes":
        k = np.arange(1, 6)
        if not np.allclose(res["eigenvalues"], 2 * 0.24 * np.cos(k * np.pi / 6), atol=1e-12, rtol=0):
            problems.append("supermode eigenvalues differ from 2 C cos(k pi / (N+1))")
    elif key in ("verify", "cluster_forward"):
        report = res["report"]
        if not report["passed"]:
            problems.append("stored linear row no longer certifies")
        verify_variances.setdefault(key, report["nullifier_variances"])
        if len(verify_variances) == 2 and verify_variances["verify"] != verify_variances["cluster_forward"]:
            problems.append("cluster forward and verify disagree on one setting")
    elif key == "verify_off":
        if res["report"]["passed"]:
            problems.append("vacuum certified as a cluster")
    elif key.startswith("oracle"):
        if not res["exact_vs_rk4"] < 1e-8:
            problems.append(f"exact vs RK4 {res['exact_vs_rk4']:.2e}")
        if not res["symplectic_defect"] < SYMPLECTIC_LIMIT:
            problems.append(f"symplectic defect {res['symplectic_defect']:.2e}")
        if key == "oracle_flat" and not (res["flat_pump"] and res["analytic_vs_exact"] < 1e-8):
            problems.append("flat-pump closed form disagrees with the exact propagator")
        if key == "oracle_nonflat" and not 2.7 < res.get("no_ordering_error_slope", 0.0) < 3.3:
            problems.append("space-ordering error is not cubic in the pump scale")


BUILDERS = {
    "cluster_fc": _cluster_fc,
    "emulation_fp": _emulation_fp,
    "vlf_fm": _vlf_fm,
    "cli_sweep": _cli_sweep,
}


def build(name: str, seed: int, size: str, tmp: Path) -> Workload:
    return BUILDERS[name](seed, size, tmp)
