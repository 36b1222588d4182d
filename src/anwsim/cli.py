"""Command-line interface: scenario runners and result persistence.

Subcommands: supermodes | propagate | vlf | cluster | verify | oracle-check.
Every run writes a self-contained JSON record (the echoed configuration
plus all computed metrics, versions and the seed), and optionally a
plot-ready CSV with a z_mm first column. The record puts dict keys one
per line, a list of scalars on one line and a table one row per line;
its table cells are the CSV's strings (shortest round-trip repr), so
both files carry the same digits. Runs are deterministic given
the config and seed; a sweep is evaluated in process as one stack of
propagators over its grid.

Exit codes: 0 on success, 2 when a verify run fails certification,
1 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ConfigError, ScenarioConfig, load_config
from .entanglement import CertificationReport, certify, vlf_values_batch
from .measurement import min_variances, squeezing_db
from .model import (
    ArrayConfig,
    GaussianState,
    PumpProfile,
    flat_pump_analytic,
    linear_supermodes,
    propagator_exact,
    propagator_no_ordering,
    propagators,
    rk4_propagate,
)
from .optimize import optimize_vlf, synthesize_cluster, synthesize_emulation
from .symplectic import _passive_out, require_symplectic, symplectic_error

__all__ = ["main", "run", "ResultRecord"]


def _versions() -> dict:
    return {
        "anwsim": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


@dataclass(frozen=True)
class ResultRecord:
    """Replayable artifact: echoed config, metrics, versions and seed."""

    command: str
    config: dict
    seed: int | None
    results: dict
    versions: dict = field(default_factory=_versions)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "versions": self.versions,
            "results": self.results,
        }


@dataclass
class RunOutput:
    record: ResultRecord
    summary: str
    header: list[str] | None = None
    rows: list[list[float]] | None = None
    exit_code: int = 0


def _round_trip(values) -> list:
    """Plain JSON-safe floats (handles numpy scalars and arrays)."""
    return np.asarray(values, dtype=float).tolist()


def _state_summary(state: GaussianState) -> dict:
    """Covariance plus per-mode and per-supermode squeezing levels.

    Refuses a propagator that has lost symplecticity (roundoff at very
    high gain), so no record reports numbers taken from it.
    """
    require_symplectic(state.propagator)
    mode_vars = min_variances(state.covariance)[0]
    gains = _passive_out(state.propagator)[0]
    nsm_vars = np.exp(-2.0 * gains)
    return {
        "covariance": _round_trip(state.covariance),
        "mode_min_variance": _round_trip(mode_vars),
        "mode_min_variance_db": _round_trip(squeezing_db(mode_vars)),
        "supermode_gains": _round_trip(gains),
        "supermode_min_variance": _round_trip(nsm_vars),
        "supermode_min_variance_db": _round_trip(squeezing_db(nsm_vars)),
        "mean_photon_number": float(state.mean_photon_number),
    }


def _report_dict(report: CertificationReport) -> dict:
    return {
        "graph": report.graph,
        "lo_phases_pi": _round_trip(np.asarray(report.lo_phases) / np.pi),
        "gains": _round_trip(report.gains),
        "nullifier_variances": _round_trip(report.nullifier_variances),
        "vlf": _round_trip(report.vlf),
        "bound_pairs": [list(p) for p in report.bound_pairs],
        "bound_sums": _round_trip(report.bound_sums),
        "bounds": _round_trip(report.bounds),
        "below_shot_noise": bool(report.below_shot),
        "inseparable": bool(report.inseparable),
        "passed": bool(report.passed),
    }


# ---------------------------------------------------------------------------
# supermodes


def cmd_supermodes(scn: ScenarioConfig, seed: int | None) -> RunOutput:
    cfg = scn.array.array_config()
    modes = linear_supermodes(cfg)
    header = ["k", "lambda_k"] + [f"m_{j}" for j in range(1, cfg.n + 1)]
    rows = [
        [float(k + 1), float(modes.eigenvalues[k])] + _round_trip(modes.matrix[k])
        for k in range(cfg.n)
    ]
    record = ResultRecord(
        command="supermodes",
        config=scn.to_dict(),
        seed=seed,
        results={
            "eigenvalues": _round_trip(modes.eigenvalues),
            "matrix": _round_trip(modes.matrix),
        },
    )
    lam = ", ".join(f"{v:+.4f}" for v in modes.eigenvalues)
    return RunOutput(record, f"{cfg.n} supermodes, eigenvalues [{lam}] mm^-1", header, rows)


# ---------------------------------------------------------------------------
# propagate


def _covariances(s: np.ndarray) -> np.ndarray:
    """Covariances S S^T of a stack of propagators."""
    return s @ np.swapaxes(s, -1, -2)


def cmd_propagate(scn: ScenarioConfig, seed: int | None) -> RunOutput:
    scn.require("pump")
    cfg = scn.array.array_config()
    pump = scn.pump.pump_profile()
    if scn.sweep is not None:
        if scn.sweep.variable != "z":
            raise ConfigError("propagate: sweep variable must be 'z'")
        grid = np.asarray(scn.sweep.values)
    else:
        grid = np.linspace(0.0, cfg.length, 61)
    if np.any(grid < 0):
        raise ConfigError("propagate: z values must be nonnegative")
    t = linear_supermodes(cfg).to_supermode_basis()
    require_symplectic(t)
    s = propagators(cfg, pump.amplitudes, pump.phases, grid)
    require_symplectic(s)
    cov = _covariances(s)
    sm_var = min_variances(t @ cov @ t.T)[0]
    nsm_var = np.exp(-2.0 * _passive_out(s)[0])
    var = np.concatenate([min_variances(cov)[0], sm_var, nsm_var], axis=1)
    # columns alternate variance and dB, mode by mode
    table = np.stack([var, squeezing_db(var)], axis=-1).reshape(len(grid), -1)
    rows = np.column_stack([grid, table]).tolist()
    header = ["z_mm"] + [
        f"{tag}{i}_{col}"
        for tag in ("mode", "sm", "nsm")
        for i in range(1, cfg.n + 1)
        for col in ("var", "db")
    ]
    record = ResultRecord(
        command="propagate",
        config=scn.to_dict(),
        seed=seed,
        results={"header": header, "rows": rows},
    )
    best = float(sm_var.min())
    return RunOutput(
        record,
        f"{len(rows)} z points, best supermode variance {best:.4f} "
        f"({squeezing_db(best):.2f} dB)",
        header,
        rows,
    )


# ---------------------------------------------------------------------------
# vlf


def cmd_vlf(scn: ScenarioConfig, seed: int | None) -> RunOutput:
    scn.require("pump")
    cfg = scn.array.array_config()
    pump = scn.pump.pump_profile()
    n = cfg.n
    sweep = scn.sweep
    variable = "z" if sweep is None else sweep.variable
    grid = [cfg.length] if sweep is None else list(sweep.values)

    o = scn.optimizer
    if o is not None:
        if o.fitness != "FM":
            raise ConfigError("vlf: optimizer.fitness must be 'FM'")
        if o.restarts is not None and not o.optimize_pump_phases:
            raise ConfigError(
                "vlf: optimizer.restarts applies only with optimize_pump_phases"
            )
        if not np.allclose(pump.amplitudes, pump.amplitudes[0]):
            raise ConfigError("vlf: optimized runs use a flat pump amplitude")
        seed = o.seed if seed is None else seed
        rows_rho = []
        for v in grid:
            z, eta = (v, float(pump.amplitudes[0])) if variable == "z" else (cfg.length, v)
            res = optimize_vlf(
                cfg,
                z,
                eta,
                optimize_pump_phases=o.optimize_pump_phases,
                seed=seed,
                generations=o.generations,
                sigma0=o.sigma0,
                restarts=o.restarts if o.restarts is not None else 4,
                population=o.population,
                parents=o.parents,
            )
            rows_rho.append(res.rho)
    else:
        scn.require("measurement")
        if variable == "z":
            s = propagators(cfg, pump.amplitudes, pump.phases, grid)
        else:
            amps = np.repeat(np.asarray(grid)[:, None], n, axis=1)
            phases = np.broadcast_to(pump.phases, amps.shape)
            s = propagators(cfg, amps, phases, cfg.length)
        require_symplectic(s)
        theta = scn.measurement.lo_phases()
        gains = scn.measurement.gain_vector(n)
        rows_rho = vlf_values_batch(_covariances(s), theta, gains)

    col0 = "z_mm" if variable == "z" else "eta_per_mm"
    header = [col0] + [f"rho_{i}" for i in range(1, n)] + ["rho_sum"]
    rows = [
        [float(v)] + r.tolist() + [float(np.sum(r))] for v, r in zip(grid, rows_rho)
    ]
    record = ResultRecord(
        command="vlf",
        config=scn.to_dict(),
        seed=seed,
        results={
            "variable": variable,
            "header": header,
            "rows": rows,
            "optimized": o is not None,
        },
    )
    last = rows[-1]
    return RunOutput(
        record,
        f"{len(grid)} {variable} points, last rho = "
        + ", ".join(f"{v:.3f}" for v in last[1:-1]),
        header,
        rows,
    )


# ---------------------------------------------------------------------------
# cluster


def cmd_cluster(scn: ScenarioConfig, seed: int | None) -> RunOutput:
    scn.require("graph", "optimizer")
    cfg = scn.array.array_config()
    graph = scn.graph.graph_spec()
    opt = scn.optimizer
    eff_seed = opt.seed if seed is None else seed

    if opt.fitness == "FM":
        raise ConfigError("cluster: optimizer.fitness must be 'FC' or 'FP'")

    search, tail = None, {}
    if opt.generations == 0:
        # forward evaluation at the configured pump and detection setting
        scn.require("pump", "measurement")
        pump = scn.pump.pump_profile()
        theta = scn.measurement.lo_phases()
        state = propagator_exact(cfg, pump, cfg.length)
        report = certify(state, graph, theta)
        fields = {"lo_phases_pi": _round_trip(theta / np.pi), "report": _report_dict(report)}
        s = float(report.nullifier_variances.sum())
        summary = (
            f"{graph.name}: forward evaluation, sum of nullifier variances "
            f"{s:.4f}, certified={report.passed}"
        )
    else:
        if opt.fitness == "FC":
            syn = synthesize_cluster(
                cfg,
                cfg.length,
                graph,
                seed=eff_seed,
                restarts=opt.restarts if opt.restarts is not None else 5,
                generations=opt.generations,
                parents=opt.parents,
                population=opt.population,
                eta_max=opt.eta_max,
                target=opt.target,
            )
            fields = {
                "lo_phases_pi": _round_trip(syn.lo_phases / np.pi),
                "report": _report_dict(syn.report),
            }
            tail = {"restarts_used": int(syn.restarts_used)}
            summary = (
                f"{graph.name}: F_C synthesis, sum of nullifier variances "
                f"{syn.total_variance:.4f}, certified={syn.report.passed}"
            )
        else:
            syn = synthesize_emulation(
                cfg,
                cfg.length,
                graph,
                seed=eff_seed,
                restarts=opt.restarts if opt.restarts is not None else 6,
                generations=opt.generations,
                eta_max=opt.eta_max,
                target=opt.target,
                population=opt.population,
                parents=opt.parents,
            )
            fields = {
                "mixing_euler_pi": _round_trip(syn.mixing_euler / np.pi),
                "lo_phases_pi": _round_trip(syn.lo_phases / np.pi),
                "post_euler_pi": _round_trip(syn.post_euler / np.pi),
                "emulation_error": float(syn.fp),
                "nullifier_variances": _round_trip(syn.nullifier_variances),
            }
            tail = {
                "polish_evaluations": int(syn.polish_evaluations),
                "polish_stop": syn.polish_stop,
            }
            s = float(syn.nullifier_variances.sum())
            summary = (
                f"{graph.name}: F_P synthesis, emulation error {syn.fp:.3e}, "
                f"sum of cluster-basis variances {s:.4f}"
            )
        pump, search = syn.pump, syn.optimization
        state = propagator_exact(cfg, pump, cfg.length)

    results = {
        "mode": "forward" if search is None else "synthesis",
        "fitness": opt.fitness,
        "pump_amplitudes": _round_trip(pump.amplitudes),
        "pump_phases_pi": _round_trip(np.asarray(pump.phases) / np.pi),
        **fields,
        "state": _state_summary(state),
    }
    if search is None:
        results["trace"] = []
    else:
        results.update(
            best_fitness=float(search.fitness),
            trace=_round_trip(search.trace),
            evaluations=int(search.evaluations),
            generations=int(search.generations),
        )
    results.update(tail)
    record = ResultRecord("cluster", scn.to_dict(), eff_seed, results)
    return RunOutput(record, summary)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(scn: ScenarioConfig, seed: int | None) -> RunOutput:
    scn.require("pump", "measurement", "graph")
    cfg = scn.array.array_config()
    pump = scn.pump.pump_profile()
    graph = scn.graph.graph_spec()
    theta = scn.measurement.lo_phases()
    gains = scn.measurement.gain_vector(cfg.n)
    state = propagator_exact(cfg, pump, cfg.length)
    report = certify(state, graph, theta, gains=gains)
    results = {"report": _report_dict(report), "state": _state_summary(state)}
    record = ResultRecord("verify", scn.to_dict(), seed, results)
    code = 0 if report.passed else 2
    return RunOutput(
        record,
        f"{graph.name}: certified={report.passed} (below shot noise: "
        f"{report.below_shot}, inseparable: {report.inseparable})",
        exit_code=code,
    )


# ---------------------------------------------------------------------------
# oracle-check


def _covariance_diff_supermode(
    t: np.ndarray, cfg: ArrayConfig, pump: PumpProfile, z: float
) -> float:
    """Max abs covariance difference, no-ordering vs exact, in the supermode
    basis that t maps to."""
    exact = propagator_exact(cfg, pump, z)
    approx = propagator_no_ordering(cfg, pump, z)
    v_exact = t @ exact.covariance @ t.T
    return float(np.abs(approx.covariance - v_exact).max())


def cmd_oracle_check(scn: ScenarioConfig, seed: int | None) -> RunOutput:
    scn.require("pump")
    cfg = scn.array.array_config()
    pump = scn.pump.pump_profile()
    z = cfg.length
    # RK4 first: its step-count check refuses a distance expm cannot reach
    rk4 = rk4_propagate(cfg, pump, z)
    exact = propagator_exact(cfg, pump, z)
    results: dict = {
        "exact_vs_rk4": float(np.abs(exact.propagator - rk4.propagator).max()),
        "symplectic_defect": symplectic_error(exact.propagator),
    }
    amps = np.asarray(pump.amplitudes)
    flat = bool(
        amps.size > 0
        and np.allclose(amps, amps[0])
        and np.allclose(pump.phases, pump.phases[0])
        and (cfg.profile is None or np.allclose(cfg.profile, 1.0))
    )
    results["flat_pump"] = flat
    t = linear_supermodes(cfg).to_supermode_basis()
    if flat:
        eta = amps[0] * np.exp(1j * pump.phases[0])
        sol = flat_pump_analytic(cfg, eta, z)
        sm = propagator_no_ordering(cfg, pump, z)
        results["analytic_vs_exact"] = float(
            np.abs(sol.state.propagator - t @ exact.propagator @ t.T).max()
        )
        results["analytic_vs_no_ordering"] = float(
            np.abs(sol.state.propagator - sm.propagator).max()
        )
    elif np.any(amps > 0):
        # third-order onset of space-ordering corrections: fit the
        # covariance error against the pump scale on a log-log grid
        shape = amps / amps.max()
        scales = np.logspace(-3.0, -2.0, 8)
        errs = [
            _covariance_diff_supermode(
                t, cfg, PumpProfile(s * shape, np.asarray(pump.phases)), z
            )
            for s in scales
        ]
        slope = float(np.polyfit(np.log(scales), np.log(errs), 1)[0])
        results["no_ordering_error_slope"] = slope
        results["no_ordering_errors"] = _round_trip(errs)
        results["no_ordering_scales"] = _round_trip(scales)
    record = ResultRecord("oracle-check", scn.to_dict(), seed, results)
    parts = [f"exact vs RK4 {results['exact_vs_rk4']:.2e}"]
    if flat:
        parts.append(f"analytic vs no-ordering {results['analytic_vs_no_ordering']:.2e}")
    elif "no_ordering_error_slope" in results:
        parts.append(f"no-ordering error slope {results['no_ordering_error_slope']:.2f}")
    return RunOutput(record, "; ".join(parts))


# ---------------------------------------------------------------------------
# driver


_COMMANDS = {
    "supermodes": (cmd_supermodes, "Eigenvalues and profiles of the linear supermodes"),
    "propagate": (cmd_propagate, "Squeezing vs z in each basis (CSV-friendly)"),
    "vlf": (cmd_vlf, "van Loock-Furusawa combinations over a sweep"),
    "cluster": (cmd_cluster, "Synthesize or evaluate a cluster-state setting"),
    "verify": (cmd_verify, "Certify a configured setting against its graph"),
    "oracle-check": (cmd_oracle_check, "Cross-validate the propagator backends"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="anwsim",
        description="Gaussian-state simulation of arrays of nonlinear waveguides",
    )
    parser.add_argument("--version", action="version", version=f"anwsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="scenario file (JSON)")
        sp.add_argument("--seed", type=int, default=None, help="override the optimizer seed")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--format", choices=("csv", "json"), default=None, help="table format")
        sp.add_argument(
            "--parallel", type=int, default=1, metavar="N", help="accepted; has no effect"
        )
    return parser


def _csv_lines(rows: list[list[float]]) -> list[str]:
    """Each table row as its CSV line, every cell in shortest round-trip repr."""
    return [",".join(map(float.__repr__, row)) for row in rows]


def _json_table(lines: list[str], pad: str) -> str:
    """A table's record text, one row per line, from its CSV lines.

    Finite reprs hold no letters n, a, i or f, so replacing the Python
    spellings of non-finite cells gives JSON's NaN/Infinity tokens.
    """
    if not lines:
        return "[]"
    inner = pad + "  "
    body = "\n".join(lines).replace(",", ", ").replace("\n", f"],\n{inner}[")
    text = f"[\n{inner}[{body}]\n{pad}]"
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _json_text(value, pad: str, table: list | None, lines: list[str] | None) -> str:
    """Record text of ``value`` whose closing bracket sits at indent ``pad``.

    Dict keys go one per line, a list of scalars on one line (C encoder),
    a list holding lists or dicts one item per line, and ``table`` (by
    identity) through its preformatted ``lines``. Re-indenting the text
    with ``json.dumps(json.loads(text), indent=2)`` gives that call's bytes.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f"{inner}{json.dumps(k)}: {_json_text(v, inner, table, lines)}"
            for k, v in value.items()
        )
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, list):
        if value is table:
            return _json_table(lines, pad)
        if any(isinstance(v, (list, dict)) for v in value):
            items = (inner + _json_text(v, inner, table, lines) for v in value)
            return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return json.dumps(value)


def _write_outputs(out: RunOutput, outdir: Path, fmt: str) -> list[Path]:
    outdir.mkdir(parents=True, exist_ok=True)
    stem = out.record.command.replace("-", "_")
    lines = None if out.rows is None else _csv_lines(out.rows)
    record_path = outdir / f"{stem}_record.json"
    record_path.write_text(_json_text(out.record.to_dict(), "", out.rows, lines) + "\n")
    written = [record_path]
    if fmt == "csv" and out.header is not None and lines is not None:
        csv_path = outdir / f"{stem}.csv"
        # float reprs and the identifier-like header names hold no comma,
        # quote or line break, so no cell needs CSV quoting
        csv_path.write_text("\r\n".join([",".join(out.header), *lines]) + "\r\n", newline="")
        written.append(csv_path)
    return written


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scn = load_config(args.config)
        out = _COMMANDS[args.command][0](scn, args.seed)
        outdir = Path(args.out) if args.out is not None else Path(scn.output.directory)
        fmt = args.format if args.format is not None else scn.output.format
        written = _write_outputs(out, outdir, fmt)
    except (ValueError, OSError) as exc:
        print(f"anwsim: error: {exc}", file=sys.stderr)
        return 1
    print(out.summary)
    for path in written:
        print(f"wrote {path}")
    return out.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
