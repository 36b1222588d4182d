"""Tests for the command-line runners and their result records."""
import csv
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import anwsim.optimize
from anwsim import cli, parse_config
from anwsim import (
    GaussianState,
    GraphSpec,
    PumpProfile,
    bloch_messiah,
    linear_supermodes,
    min_variance,
    optimize_vlf,
    propagator_exact,
    propagator_no_ordering,
    squeezing_db,
    symplectic_error,
    vlf_values,
)
from anwsim.cli import run
from test_entanglement import check_against_oracle

ARRAY = {"n": 5, "coupling": 0.24, "length": 30.0}
LINEAR_PUMP = {
    "amplitudes": [0.092, 0.089, 0.091, 0.091, 0.092],
    "phases_pi": [-0.5, -0.5, -0.5, -0.5, -0.5],
}


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_record(outdir, command):
    path = outdir / f"{command.replace('-', '_')}_record.json"
    return json.loads(path.read_text())


def read_csv(outdir, command):
    with (outdir / f"{command}.csv").open() as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


class TestSupermodes:
    """Linear supermode listing."""

    def test_record_matches_library(self, tmp_path, cfg5):
        """The record carries the same eigenvalues as the library call."""
        cfg_path = write_config(tmp_path, {"array": ARRAY})
        out = tmp_path / "out"
        assert run(["supermodes", "--config", cfg_path, "--out", str(out)]) == 0
        record = read_record(out, "supermodes")
        modes = linear_supermodes(cfg5)
        assert np.allclose(record["results"]["eigenvalues"], modes.eigenvalues, atol=1e-12)
        assert np.allclose(record["results"]["matrix"], modes.matrix, atol=1e-12)

    def test_csv_table(self, tmp_path):
        """CSV output tabulates one supermode per row."""
        cfg_path = write_config(tmp_path, {"array": ARRAY})
        out = tmp_path / "out"
        code = run(
            ["supermodes", "--config", cfg_path, "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        header, data = read_csv(out, "supermodes")
        assert header[:2] == ["k", "lambda_k"]
        assert data.shape == (5, 7)
        assert np.array_equal(data[:, 0], [1, 2, 3, 4, 5])

    def test_record_echoes_config(self, tmp_path):
        """The embedded config replays to the same scenario."""
        cfg_path = write_config(tmp_path, {"array": ARRAY})
        out = tmp_path / "out"
        run(["supermodes", "--config", cfg_path, "--out", str(out)])
        record = read_record(out, "supermodes")
        assert record["command"] == "supermodes"
        assert record["config"]["array"]["n"] == 5
        assert "anwsim" in record["versions"]


class TestPropagate:
    """Squeezing-vs-distance tables."""

    def test_zero_pump_stays_at_shot_noise(self, tmp_path):
        """Without pump every variance column reads exactly 1."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.0] * 5},
            "sweep": {"variable": "z", "values": [0.0, 10.0, 30.0]},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(
            ["propagate", "--config", cfg_path, "--out", str(out), "--format", "csv"]
        ) == 0
        header, table = read_csv(out, "propagate")
        assert header[0] == "z_mm"
        var_cols = [i for i, h in enumerate(header) if h.endswith("_var")]
        assert np.allclose(table[:, var_cols], 1.0, atol=1e-10, rtol=0)
        db_cols = [i for i, h in enumerate(header) if h.endswith("_db")]
        assert np.allclose(table[:, db_cols], 0.0, atol=1e-8, rtol=0)

    def test_flat_pump_supermode_degeneracy(self, tmp_path):
        """Flat pumping squeezes supermodes k and N+1-k identically."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.015] * 5, "phases_pi": [-0.5] * 5},
            "sweep": {"variable": "z", "values": [5.0, 15.0, 30.0]},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        run(["propagate", "--config", cfg_path, "--out", str(out), "--format", "csv"])
        header, table = read_csv(out, "propagate")
        sm = {h: i for i, h in enumerate(header)}
        assert np.allclose(
            table[:, sm["sm1_var"]], table[:, sm["sm5_var"]], atol=1e-10, rtol=0
        )
        assert np.allclose(
            table[:, sm["sm2_var"]], table[:, sm["sm4_var"]], atol=1e-10, rtol=0
        )

    def test_rows_match_library(self, tmp_path, cfg5):
        """Tabulated mode variances recompute from the library."""
        data = {
            "array": ARRAY,
            "pump": LINEAR_PUMP,
            "sweep": {"variable": "z", "values": [12.5]},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        run(["propagate", "--config", cfg_path, "--out", str(out), "--format", "csv"])
        header, table = read_csv(out, "propagate")
        from anwsim import PumpProfile

        pump = PumpProfile(
            np.array(LINEAR_PUMP["amplitudes"]),
            np.pi * np.array(LINEAR_PUMP["phases_pi"]),
        )
        state = propagator_exact(cfg5, pump, 12.5)
        for i in range(1, 6):
            col = header.index(f"mode{i}_var")
            assert np.isclose(
                table[0, col], min_variance(state, i)[0], atol=1e-10, rtol=0
            )

    def test_rejects_negative_z(self, tmp_path, capsys):
        """Negative sweep distances exit with an error."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.0] * 5},
            "sweep": {"variable": "z", "values": [-1.0]},
        }
        cfg_path = write_config(tmp_path, data)
        assert run(["propagate", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert "z values must be nonnegative" in capsys.readouterr().err

    def test_rejects_eta_sweep(self, tmp_path, capsys):
        """Propagation only sweeps the distance."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.0] * 5},
            "sweep": {"variable": "eta", "values": [0.01]},
        }
        cfg_path = write_config(tmp_path, data)
        assert run(["propagate", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert "sweep variable must be 'z'" in capsys.readouterr().err

    def test_parallel_matches_serial(self, tmp_path):
        """--parallel still parses and leaves the table unchanged, bit for bit."""
        data = {
            "array": ARRAY,
            "pump": LINEAR_PUMP,
            "sweep": {"variable": "z", "values": [0.0, 7.5, 15.0, 22.5, 30.0]},
        }
        cfg_path = write_config(tmp_path, data)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["propagate", "--config", cfg_path, "--out", str(out_a), "--format", "csv"])
        run(
            [
                "propagate", "--config", cfg_path, "--out", str(out_b),
                "--format", "csv", "--parallel", "4",
            ]
        )
        assert (out_a / "propagate.csv").read_text() == (out_b / "propagate.csv").read_text()

    def test_stacked_rows_equal_per_row_reference(self, tmp_path, cfg5):
        """propagate and vlf sweep rows equal a per-row library loop, bit for bit."""
        pump = {
            "amplitudes": [0.05, 0.08, 0.02, 0.07, 0.04],
            "phases_pi": [0.1, -0.3, 0.8, 0.4, -0.9],
        }
        lo_pi = [0.3, -0.2, 0.0, 0.7, -0.5]
        gains = [0.0, 0.4, -0.6, 0.2, 0.0]
        profile = PumpProfile(np.array(pump["amplitudes"]), np.pi * np.array(pump["phases_pi"]))
        theta = np.pi * np.array(lo_pi)
        t = linear_supermodes(cfg5).to_supermode_basis()
        zs = [0.0, 3.0, 11.5, 22.0, 30.0]
        etas = [0.0, 0.01, 0.03, 0.06]

        def propagate_row(z):
            state = propagator_exact(cfg5, profile, z)
            sm = GaussianState(z, t @ state.propagator, t @ state.covariance @ t.T)
            row = [z]
            for s in (state, sm):
                for i in range(1, 6):
                    v = min_variance(s, i)[0]
                    row += [v, squeezing_db(v)]
            for r in bloch_messiah(state.propagator).gains:
                v = float(np.exp(-2.0 * r))
                row += [v, squeezing_db(v)]
            return row

        def vlf_row(x, state):
            rho = vlf_values(state, theta, np.array(gains))
            return [x] + rho.tolist() + [float(np.sum(rho))]

        measurement = {"lo_phases_pi": lo_pi, "gains": gains}
        cases = {
            "propagate": (
                "propagate",
                {"pump": pump, "sweep": {"variable": "z", "values": zs}},
                [propagate_row(z) for z in zs],
            ),
            "vlf_z": (
                "vlf",
                {"pump": pump, "measurement": measurement,
                 "sweep": {"variable": "z", "values": zs}},
                [vlf_row(z, propagator_exact(cfg5, profile, z)) for z in zs],
            ),
            "vlf_eta": (
                "vlf",
                {"pump": pump, "measurement": measurement,
                 "sweep": {"variable": "eta", "values": etas}},
                [
                    vlf_row(eta, propagator_exact(
                        cfg5, PumpProfile(np.full(5, eta), profile.phases), 30.0
                    ))
                    for eta in etas
                ],
            ),
        }
        for name, (command, extra, reference) in cases.items():
            cfg_path = write_config(tmp_path, {"array": ARRAY, **extra}, name=f"{name}.json")
            out = tmp_path / name
            assert run([command, "--config", cfg_path, "--out", str(out)]) == 0
            assert read_record(out, command)["results"]["rows"] == reference, name


class TestVlf:
    """van Loock-Furusawa sweeps."""

    def test_vacuum_reads_four(self, tmp_path):
        """Unpumped guides give rho_i = 4 at every distance."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.0] * 5},
            "measurement": {"lo_phases_pi": [0.0] * 5},
            "sweep": {"variable": "z", "values": [0.0, 15.0, 30.0]},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(
            ["vlf", "--config", cfg_path, "--out", str(out), "--format", "csv"]
        ) == 0
        header, table = read_csv(out, "vlf")
        assert header == ["z_mm", "rho_1", "rho_2", "rho_3", "rho_4", "rho_sum"]
        assert np.allclose(table[:, 1:5], 4.0, atol=1e-10, rtol=0)
        assert np.allclose(table[:, 5], 16.0, atol=1e-10, rtol=0)

    def test_eta_sweep_column(self, tmp_path):
        """Amplitude sweeps label the first column eta_per_mm."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.015] * 5, "phases_pi": [-0.5] * 5},
            "measurement": {"lo_phases_pi": [0.0] * 5},
            "sweep": {"variable": "eta", "values": [0.005, 0.015]},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        run(["vlf", "--config", cfg_path, "--out", str(out), "--format", "csv"])
        header, table = read_csv(out, "vlf")
        assert header[0] == "eta_per_mm"
        assert table.shape == (2, 6)

    def test_optimized_seed_override(self, tmp_path):
        """--seed wins over the configured optimizer seed and is recorded."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.015] * 5},
            "optimizer": {"fitness": "FM", "generations": 10, "seed": 7},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(
            ["vlf", "--config", cfg_path, "--out", str(out), "--seed", "99"]
        ) == 0
        record = read_record(out, "vlf")
        assert record["seed"] == 99
        assert record["results"]["optimized"]

    def test_optimizer_sizes_reach_driver(self, tmp_path, cfg5):
        """restarts, population and parents are passed to optimize_vlf."""
        sizes = {"restarts": 1, "population": 12, "parents": 3}
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.015] * 5},
            "optimizer": {
                "fitness": "FM",
                "generations": 3,
                "seed": 7,
                "optimize_pump_phases": True,
                **sizes,
            },
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["vlf", "--config", cfg_path, "--out", str(out)]) == 0
        rows = read_record(out, "vlf")["results"]["rows"]
        opt = optimize_vlf(
            cfg5, 30.0, 0.015, optimize_pump_phases=True, seed=7, generations=3,
            sigma0=0.3, **sizes,
        )
        assert rows[0][1:-1] == opt.rho.tolist()

    def test_optimized_lost_symplecticity_exits_one(self, tmp_path, capsys):
        """An optimized sweep at a pump that breaks symplecticity exits 1."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.4] * 5},
            "optimizer": {"fitness": "FM", "generations": 5, "seed": 7},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["vlf", "--config", cfg_path, "--out", str(out)]) == 1
        assert "anwsim: error: matrix is not symplectic: deviation" in capsys.readouterr().err
        assert not out.exists()

    def test_detection_only_rejects_restarts(self, tmp_path, capsys):
        """The single-run detection search refuses a restart count."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.015] * 5},
            "optimizer": {"fitness": "FM", "generations": 3, "restarts": 2},
        }
        cfg_path = write_config(tmp_path, data)
        assert run(["vlf", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert "vlf (search) does not read optimizer.restarts" in capsys.readouterr().err

    def test_rejects_target(self, tmp_path, capsys):
        """The VLF searches have no target, so a configured one is refused
        rather than echoed into the record as if it were used."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.015] * 5},
            "optimizer": {
                "fitness": "FM",
                "generations": 3,
                "target": 1.0,
                "optimize_pump_phases": True,
            },
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["vlf", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "vlf (search with pump phases) does not read optimizer.target" in err
        assert not out.exists()

    def test_rejects_eta_max(self, tmp_path, capsys):
        """The VLF searches keep the configured pump amplitude, so an explicit
        pump ceiling is refused rather than echoed into the record."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.015] * 5},
            "optimizer": {"fitness": "FM", "generations": 3, "eta_max": 0.05},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["vlf", "--config", cfg_path, "--out", str(out)]) == 1
        assert "vlf (search) does not read optimizer.eta_max" in capsys.readouterr().err
        assert not out.exists()

    def test_optimizer_needs_fm(self, tmp_path, capsys):
        """The vlf command refuses cluster objectives."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.015] * 5},
            "optimizer": {"fitness": "FC"},
        }
        cfg_path = write_config(tmp_path, data)
        assert run(["vlf", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert "optimizer.fitness must be 'FM'" in capsys.readouterr().err

    def test_optimizer_needs_flat_pump(self, tmp_path, capsys):
        """Optimized sweeps require a common pump amplitude."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.01, 0.02, 0.01, 0.02, 0.01]},
            "optimizer": {"fitness": "FM", "generations": 5},
        }
        cfg_path = write_config(tmp_path, data)
        assert run(["vlf", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert "flat pump amplitude" in capsys.readouterr().err


class TestCluster:
    """Cluster synthesis and forward evaluation."""

    def test_forward_certifies_linear(self, tmp_path, capsys):
        """Zero generations evaluates the configured setting directly."""
        data = {
            "array": ARRAY,
            "pump": LINEAR_PUMP,
            "measurement": {"lo_phases_pi": [0.0] * 5},
            "graph": {"preset": "linear"},
            "optimizer": {"fitness": "FC", "generations": 0},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["cluster", "--config", cfg_path, "--out", str(out)]) == 0
        record = read_record(out, "cluster")
        assert record["results"]["mode"] == "forward"
        assert record["results"]["report"]["passed"]
        variances = record["results"]["report"]["nullifier_variances"]
        assert np.allclose(variances, [0.20, 0.39, 0.37, 0.38, 0.20], atol=0.05)
        assert "certified=True" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key, value",
        [("population", 12), ("parents", 3), ("restarts", 2), ("eta_max", 0.05),
         ("target", 1.0), ("seed", 0)],
    )
    def test_forward_refuses_search_keys(self, tmp_path, capsys, key, value):
        """A forward run reads only the fitness and generations of its
        optimizer: a search setting, even the default seed 0, exits 1 naming
        the key instead of being echoed into the record as if it were used."""
        data = {**LINEAR_VERIFY, "optimizer": {"fitness": "FC", "generations": 0, key: value}}
        out = tmp_path / "out"
        assert run(["cluster", "--config", write_config(tmp_path, data), "--out", str(out)]) == 1
        assert f"cluster (forward) does not read optimizer.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cluster", "verify"])
    def test_forward_record_has_no_seed(self, tmp_path, command):
        """A forward run draws no random numbers, so its record's seed is
        null, as verify's is, even with --seed, and its optimizer echo holds
        what it read."""
        data = {**LINEAR_VERIFY, "optimizer": {"fitness": "FC", "generations": 0}}
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, data), "--out", str(out)]
        assert run([*argv, "--seed", "9"]) == 0
        record = read_record(out, command)
        assert record["seed"] is None
        if command == "cluster":
            assert record["config"]["optimizer"] == {"fitness": "FC", "generations": 0}

    def test_fc_synthesis_record(self, tmp_path):
        """A small F_C run produces a consistent synthesis record."""
        data = {
            "array": ARRAY,
            "graph": {"preset": "linear"},
            "optimizer": {
                "fitness": "FC",
                "generations": 2,
                "restarts": 1,
                "population": 12,
                "parents": 3,
                "seed": 41,
            },
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["cluster", "--config", cfg_path, "--out", str(out)]) == 0
        record = read_record(out, "cluster")
        results = record["results"]
        assert results["mode"] == "synthesis"
        assert results["fitness"] == "FC"
        trace = np.array(results["trace"])
        assert np.all(np.diff(trace) <= 0)
        assert np.isclose(
            results["best_fitness"],
            np.sum(results["report"]["nullifier_variances"]),
            atol=1e-10,
        )

    def test_fp_synthesis_record(self, tmp_path):
        """A small F_P run reports the emulation error, variances and the
        polish's stop, and replays to identical results."""
        data = {
            "array": ARRAY,
            "graph": {"preset": "linear"},
            "optimizer": {
                "fitness": "FP",
                "generations": 2,
                "restarts": 1,
                "seed": 11,
            },
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["cluster", "--config", cfg_path, "--out", str(out)]) == 0
        record = read_record(out, "cluster")
        results = record["results"]
        assert results["fitness"] == "FP"
        assert results["emulation_error"] > 0
        assert len(results["nullifier_variances"]) == 5
        assert len(results["mixing_euler_pi"]) == 10
        assert len(results["post_euler_pi"]) == 10
        assert results["polish_stop"] in ("converged", "budget")
        assert 0 < results["polish_evaluations"] <= anwsim.optimize._POLISH_EVALS
        es_evals = 5 + 40 * 2
        assert results["evaluations"] == es_evals + results["polish_evaluations"]
        again = tmp_path / "again"
        assert run(["cluster", "--config", cfg_path, "--out", str(again)]) == 0
        assert json.dumps(read_record(again, "cluster")["results"]) == json.dumps(results)

    def test_fp_es_sizes_reach_driver(self, tmp_path, monkeypatch):
        """population and parents set the F_P search's evaluation budget."""

        def no_polish(fitness, x0):
            return x0, np.inf, 0, "budget"

        monkeypatch.setattr(anwsim.optimize, "_polish", no_polish)
        data = {
            "array": ARRAY,
            "graph": {"preset": "linear"},
            "optimizer": {
                "fitness": "FP",
                "generations": 2,
                "restarts": 1,
                "population": 12,
                "parents": 3,
                "seed": 11,
            },
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["cluster", "--config", cfg_path, "--out", str(out)]) == 0
        assert read_record(out, "cluster")["results"]["evaluations"] == 3 + 12 * 2

    def test_zero_restarts_exits_one(self, tmp_path, capsys):
        """A search needs at least one restart."""
        data = {
            "array": ARRAY,
            "graph": {"preset": "linear"},
            "optimizer": {"fitness": "FC", "generations": 2, "restarts": 0},
        }
        cfg_path = write_config(tmp_path, data)
        assert run(["cluster", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert "anwsim: error: optimizer: restarts must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, driver, fitness",
        [
            ("cluster", "synthesize_cluster", "FC"),
            ("cluster", "synthesize_emulation", "FP"),
            ("vlf", "optimize_vlf", "FM"),
        ],
    )
    def test_unset_restarts_left_to_driver(
        self, tmp_path, capsys, monkeypatch, command, driver, fitness
    ):
        """Without optimizer.restarts the driver's own default applies: the
        command passes no restart count."""
        seen = {}

        def spy(*args, **kwargs):
            seen.update(kwargs)
            raise ValueError("driver reached")

        monkeypatch.setattr(cli, driver, spy)
        data = {
            **LINEAR_VERIFY,
            "pump": {"amplitudes": [0.01] * 5},
            "optimizer": {"fitness": fitness, "generations": 1},
        }
        cfg_path = write_config(tmp_path, data)
        assert run([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
        assert "driver reached" in capsys.readouterr().err
        assert "generations" in seen and "restarts" not in seen

    def test_rejects_fm(self, tmp_path, capsys):
        """The cluster command refuses the VLF objective."""
        data = {
            "array": ARRAY,
            "graph": {"preset": "linear"},
            "optimizer": {"fitness": "FM"},
        }
        cfg_path = write_config(tmp_path, data)
        assert run(["cluster", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert "must be 'FC' or 'FP'" in capsys.readouterr().err

    @pytest.mark.parametrize("generations", [0, 3])
    def test_rejects_pump_phase_flag(self, tmp_path, capsys, generations):
        """The pump-phase flag belongs to the VLF search: the cluster command
        refuses it, in synthesis and forward mode alike."""
        data = {
            "array": ARRAY,
            "pump": LINEAR_PUMP,
            "measurement": {"lo_phases_pi": [0.0] * 5},
            "graph": {"preset": "linear"},
            "optimizer": {
                "fitness": "FC",
                "generations": generations,
                "optimize_pump_phases": True,
            },
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["cluster", "--config", cfg_path, "--out", str(out)]) == 1
        mode = "forward" if generations == 0 else "F_C"
        err = capsys.readouterr().err
        assert f"cluster ({mode}) does not read optimizer.optimize_pump_phases" in err
        assert not out.exists()

    @pytest.mark.parametrize("generations", [0, 3])
    def test_rejects_sigma0(self, tmp_path, capsys, generations):
        """The cluster searches use fixed step sizes, so an explicit sigma0 is
        refused, in synthesis and forward mode alike."""
        data = {
            "array": ARRAY,
            "pump": LINEAR_PUMP,
            "measurement": {"lo_phases_pi": [0.0] * 5},
            "graph": {"preset": "linear"},
            "optimizer": {"fitness": "FC", "generations": generations, "sigma0": 0.3},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["cluster", "--config", cfg_path, "--out", str(out)]) == 1
        mode = "forward" if generations == 0 else "F_C"
        err = capsys.readouterr().err
        assert f"cluster ({mode}) does not read optimizer.sigma0" in err
        assert not out.exists()


class TestVerify:
    """Certification gate with meaningful exit codes."""

    def test_pass_exits_zero(self, tmp_path):
        """A certified setting exits 0."""
        data = {
            "array": ARRAY,
            "pump": LINEAR_PUMP,
            "measurement": {"lo_phases_pi": [0.0] * 5},
            "graph": {"preset": "linear"},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg_path, "--out", str(out)]) == 0
        record = read_record(out, "verify")
        assert record["results"]["report"]["passed"]

    def test_fail_exits_two(self, tmp_path, capsys):
        """Vacuum cannot certify and exits 2."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.0] * 5},
            "measurement": {"lo_phases_pi": [0.0] * 5},
            "graph": {"preset": "linear"},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg_path, "--out", str(out)]) == 2
        assert "certified=False" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify", "cluster"])
    def test_custom_graph_certified(self, tmp_path, command):
        """A 4-node path adjacency is certified from its own nullifier rows
        on the 3 cuts of its edges, as the enumeration over all 7 cuts
        finds; verify exits 0 or 2 by the verdict, and a forward cluster
        run reports the same."""
        data = {
            "array": {**ARRAY, "n": 4},
            "pump": {"amplitudes": [0.09] * 4, "phases_pi": [-0.5] * 4},
            "measurement": {"lo_phases_pi": [0.0] * 4},
            "graph": {"adjacency": [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]},
        }
        if command == "cluster":
            data["optimizer"] = {"fitness": "FC", "generations": 0}
        out = tmp_path / "out"
        code = run([command, "--config", write_config(tmp_path, data), "--out", str(out)])
        report = read_record(out, command)["results"]["report"]
        assert len(report["bipartitions"]) == len(report["bounds"]) == 3
        arrays = ("nullifier_variances", "bound_sums", "bounds")
        check_against_oracle(
            SimpleNamespace(
                **{key: np.array(report[key]) for key in arrays},
                bipartitions=tuple(map(tuple, report["bipartitions"])),
                bound_pairs=tuple(map(tuple, report["bound_pairs"])),
                inseparable=report["inseparable"],
            ),
            GraphSpec(np.array(data["graph"]["adjacency"])),
        )
        if command == "verify":
            assert code == (0 if report["passed"] else 2)
        else:
            assert code == 0

    @pytest.mark.parametrize("command", ["verify", "propagate", "vlf"])
    def test_lost_symplecticity_exits_one(self, tmp_path, capsys, command):
        """A propagator whose roundoff broke symplecticity is refused, not reported.

        The sweeps check their whole propagator stack; the default grids of
        propagate and vlf reach the device length, where the defect is largest.
        """
        data = {
            **LINEAR_VERIFY,
            "pump": {"amplitudes": [0.4] * 5, "phases_pi": [-0.5] * 5},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run([command, "--config", cfg_path, "--out", str(out)]) == 1
        assert "anwsim: error: matrix is not symplectic: deviation" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["ghz", "pyramid"])
    def test_preset_name_on_small_graph_exits_one(self, tmp_path, capsys, name):
        """A 3-node adjacency named after a 5-node preset is refused with a
        message, not a traceback."""
        data = {
            "array": {**ARRAY, "n": 3},
            "pump": {"amplitudes": [0.05] * 3},
            "measurement": {"lo_phases_pi": [0.0] * 3},
            "graph": {"adjacency": [[0, 1, 0], [1, 0, 1], [0, 1, 0]], "name": name},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["verify", "--config", cfg_path, "--out", str(out)]) == 1
        assert f"anwsim: error: graph name '{name}' belongs to the preset" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "length, amplitude, command",
        [
            (1e20, 0.0, "verify"),
            (1e20, 0.0, "propagate"),
            (3000.0, 0.1, "verify"),
            (3000.0, 0.1, "propagate"),
            (3000.0, 0.1, "oracle-check"),
        ],
        ids=[
            "zero_pump-verify",
            "zero_pump-propagate",
            "flat_pump-verify",
            "flat_pump-propagate",
            "flat_pump-oracle-check",
        ],
    )
    def test_overflow_refused_without_warning(
        self, tmp_path, capsys, command, length, amplitude
    ):
        """An overflowed propagator is refused as not finite; numpy's
        overflow warnings (errors under this suite's filter) never fire.
        oracle-check refuses the exact propagator before RK4 takes a
        covariance; at 1e20 mm its RK4 step-count check comes first (see
        TestOracleCheck)."""
        data = {
            **LINEAR_VERIFY,
            "array": {**ARRAY, "length": length},
            "pump": {"amplitudes": [amplitude] * 5},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run([command, "--config", cfg_path, "--out", str(out)]) == 1
        assert "anwsim: error: matrix is not symplectic: it is not finite" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_forward_cluster_report_equals_verify(self, tmp_path):
        """verify and a forward cluster run on one scenario with measurement
        gains give equal report blocks: both certify with those gains."""
        gains = [0.5, 0.5, 0.5, 0.5, 0.5]
        data = {**LINEAR_VERIFY, "measurement": {"lo_phases_pi": [0.0] * 5, "gains": gains}}
        reports = {}
        for command in ("verify", "cluster"):
            if command == "cluster":
                data["optimizer"] = {"fitness": "FC", "generations": 0}
            out = tmp_path / command
            assert run([command, "--config", write_config(tmp_path, data), "--out", str(out)]) == 0
            reports[command] = read_record(out, command)["results"]["report"]
        assert reports["verify"]["gains"] == gains
        assert reports["cluster"] == reports["verify"]

    @pytest.mark.parametrize("command", ["verify", "cluster"])
    @pytest.mark.parametrize(
        "pump",
        [
            LINEAR_PUMP,
            {"amplitudes": [0.05, 0.08, 0.02, 0.07, 0.04], "phases_pi": [0.1, -0.3, 0.8, 0.4, -0.9]},
        ],
        ids=["linear", "uneven"],
    )
    def test_record_gains_equal_library(self, tmp_path, command, pump):
        """The state.supermode_gains of a verify record and of a cluster
        forward record are bloch_messiah's gains of the same propagator,
        bit for bit."""
        data = {
            "array": ARRAY,
            "pump": pump,
            "measurement": {"lo_phases_pi": [0.0] * 5},
            "graph": {"preset": "linear"},
        }
        if command == "cluster":
            data["optimizer"] = {"fitness": "FC", "generations": 0}
        out = tmp_path / "out"
        assert run([command, "--config", write_config(tmp_path, data), "--out", str(out)]) in (0, 2)
        scn = parse_config(data)
        cfg = scn.array.array_config()
        s = propagator_exact(cfg, scn.pump.pump_profile(), cfg.length).propagator
        recorded = read_record(out, command)["results"]["state"]["supermode_gains"]
        expected = bloch_messiah(s).gains
        assert expected[0] > 0.5
        assert np.array_equal(recorded, expected)


class TestOracleCheck:
    """Backend cross-validation."""

    def test_flat_pump_low_gain(self, tmp_path):
        """At weak flat pumping all three backends coincide."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [3e-6] * 5, "phases_pi": [-0.5] * 5},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["oracle-check", "--config", cfg_path, "--out", str(out)]) == 0
        results = read_record(out, "oracle-check")["results"]
        assert results["flat_pump"]
        assert results["exact_vs_rk4"] < 1e-8
        assert results["symplectic_defect"] < 1e-10
        assert results["analytic_vs_exact"] < 1e-10
        assert results["analytic_vs_no_ordering"] < 1e-8

    def test_rk4_keeps_step_loop_accuracy(self, tmp_path):
        """Powered RK4 matches expm to roundoff: R^n formed as a plain matrix
        power instead of I + E loses about two digits and fails here."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [3e-6] * 5, "phases_pi": [-0.5] * 5},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["oracle-check", "--config", cfg_path, "--out", str(out)]) == 0
        assert read_record(out, "oracle-check")["results"]["exact_vs_rk4"] < 5e-14

    def test_symplectic_defect_matches_library(self, tmp_path, cfg5):
        """The reported defect is symplectic_error of the exact propagator."""
        data = {"array": ARRAY, "pump": LINEAR_PUMP}
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["oracle-check", "--config", cfg_path, "--out", str(out)]) == 0
        results = read_record(out, "oracle-check")["results"]
        pump = PumpProfile(
            np.array(LINEAR_PUMP["amplitudes"]), np.pi * np.array(LINEAR_PUMP["phases_pi"])
        )
        exact = propagator_exact(cfg5, pump, 30.0)
        assert results["symplectic_defect"] == symplectic_error(exact.propagator)

    def test_flat_pump_high_gain_analytic(self, tmp_path):
        """The analytic flat-pump solution stays exact at high gain."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.015] * 5, "phases_pi": [-0.5] * 5},
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        run(["oracle-check", "--config", cfg_path, "--out", str(out)])
        results = read_record(out, "oracle-check")["results"]
        assert results["analytic_vs_exact"] < 1e-10
        # space ordering matters at this gain
        assert results["analytic_vs_no_ordering"] > 1e-4

    def test_generic_pump_error_slope(self, tmp_path):
        """Space-ordering corrections onset at third order in the pump."""
        data = {
            "array": ARRAY,
            "pump": {
                "amplitudes": [0.05, 0.08, 0.02, 0.07, 0.04],
                "phases_pi": [0.1, -0.3, 0.8, 0.4, -0.9],
            },
        }
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["oracle-check", "--config", cfg_path, "--out", str(out)]) == 0
        results = read_record(out, "oracle-check")["results"]
        assert not results["flat_pump"]
        assert 2.5 < results["no_ordering_error_slope"] < 3.5

    def test_stacked_scales_equal_per_scale_loop(self, tmp_path, cfg5):
        """The eight pump scales fitted as one stack give the errors of a
        loop over propagator_exact and propagator_no_ordering, bit for bit."""
        pump = {
            "amplitudes": [0.05, 0.08, 0.02, 0.07, 0.04],
            "phases_pi": [0.1, -0.3, 0.8, 0.4, -0.9],
        }
        cfg_path = write_config(tmp_path, {"array": ARRAY, "pump": pump})
        out = tmp_path / "out"
        assert run(["oracle-check", "--config", cfg_path, "--out", str(out)]) == 0
        results = read_record(out, "oracle-check")["results"]
        amps = np.array(pump["amplitudes"])
        phases = np.pi * np.array(pump["phases_pi"])
        t = linear_supermodes(cfg5).to_supermode_basis()
        errs = []
        for scale in results["no_ordering_scales"]:
            p = PumpProfile(scale * (amps / amps.max()), phases)
            exact = propagator_exact(cfg5, p, 30.0).covariance
            approx = propagator_no_ordering(cfg5, p, 30.0).covariance
            errs.append(float(np.abs(approx - t @ exact @ t.T).max()))
        assert results["no_ordering_scales"] == np.logspace(-3.0, -2.0, 8).tolist()
        assert results["no_ordering_errors"] == errs

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rk4_distance_checked_before_expm(self, tmp_path, capsys):
        """A 1e20 mm array exits 1 on RK4's step-count check, before expm can
        overflow on it (which would raise here as a RuntimeWarning)."""
        data = {"array": {**ARRAY, "length": 1e20}, "pump": {"amplitudes": [0.0] * 5}}
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["oracle-check", "--config", cfg_path, "--out", str(out)]) == 1
        assert "z must be finite, nonnegative and at most 2**53 steps" in capsys.readouterr().err
        assert not out.exists()

    def test_record_replays(self, tmp_path):
        """Re-running the echoed config reproduces the results block byte for byte."""
        data = {
            "array": ARRAY,
            "pump": {"amplitudes": [0.01] * 5, "phases_pi": [-0.5] * 5},
        }
        cfg_path = write_config(tmp_path, data)
        out_a = tmp_path / "a"
        run(["oracle-check", "--config", cfg_path, "--out", str(out_a)])
        record_a = read_record(out_a, "oracle-check")
        replay_path = write_config(tmp_path, record_a["config"], name="replay.json")
        out_b = tmp_path / "b"
        run(["oracle-check", "--config", replay_path, "--out", str(out_b)])
        record_b = read_record(out_b, "oracle-check")
        assert json.dumps(record_a["results"]) == json.dumps(record_b["results"])


LINEAR_VERIFY = {
    "array": ARRAY,
    "pump": LINEAR_PUMP,
    "measurement": {"lo_phases_pi": [0.0] * 5},
    "graph": {"preset": "linear"},
}


WRITER_SCENARIOS = {
    "supermodes": {"array": ARRAY},
    "propagate": {
        "array": ARRAY,
        "pump": LINEAR_PUMP,
        "sweep": {"variable": "z", "start": 0.0, "stop": 30.0, "points": 7},
    },
    "vlf": {**LINEAR_VERIFY, "sweep": {"variable": "z", "values": [0.0, 15.0, 30.0]}},
    "cluster": {**LINEAR_VERIFY, "optimizer": {"fitness": "FC", "generations": 0}},
    "verify": LINEAR_VERIFY,
    "oracle-check": {"array": ARRAY, "pump": {"amplitudes": [0.01] * 5}},
}


@pytest.fixture
def written(monkeypatch):
    """Every RunOutput handed to the writer, in call order."""
    seen = []
    write = cli._write_outputs

    def spy(out, outdir, fmt):
        seen.append(out)
        return write(out, outdir, fmt)

    monkeypatch.setattr(cli, "_write_outputs", spy)
    return seen


def indent2_writer(out, outdir):
    """The former writer: the pure-Python indent=2 encoder and csv.writer."""
    stem = out.record.command.replace("-", "_")
    (outdir / f"{stem}_record.json").write_text(
        json.dumps(out.record.to_dict(), indent=2) + "\n"
    )
    with (outdir / f"{stem}.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(out.header)
        writer.writerows(out.rows)


class TestWriter:
    """One formatting pass for the record and the CSV."""

    @pytest.mark.parametrize("command", list(WRITER_SCENARIOS))
    def test_reindent_gives_indent2_bytes(self, tmp_path, written, command):
        """Re-indenting a record reproduces json.dumps(indent=2) of what was
        written, and the layout keeps every scalar of a list on its line."""
        cfg_path = write_config(tmp_path, WRITER_SCENARIOS[command])
        out = tmp_path / "out"
        assert run([command, "--config", cfg_path, "--out", str(out), "--format", "csv"]) == 0
        text = (out / f"{command.replace('-', '_')}_record.json").read_text()
        expected = json.dumps(written[0].record.to_dict(), indent=2) + "\n"
        assert json.dumps(json.loads(text), indent=2) + "\n" == expected
        lines = text.splitlines()
        assert all(line.strip()[0] in '"[]{}' for line in lines)
        if written[0].rows is not None and command != "supermodes":
            rows = [line for line in lines if line.startswith("      [")]
            assert len(rows) == len(written[0].rows)

    def test_csv_equals_csv_writer_bytes(self, tmp_path):
        """Special floats: the CSV is csv.writer's bytes and the record keeps
        each cell's value and sign through JSON's NaN/Infinity tokens."""
        header = ["a", "b", "c"]
        rows = [
            [float("nan"), float("inf"), float("-inf")],
            [-0.0, 5e-324, 1e22],
            [0.1 + 0.2, 1.0, -2.5e-300],
        ]
        record = cli.ResultRecord("propagate", {}, None, {"header": header, "rows": rows})
        cli._write_outputs(cli.RunOutput(record, "", header, rows), tmp_path, "csv")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        assert (tmp_path / "propagate.csv").read_bytes() == buf.getvalue().encode()
        text = (tmp_path / "propagate_record.json").read_text()
        loaded = json.loads(text)
        assert repr(loaded["results"]["rows"]) == repr(rows)
        assert json.dumps(loaded, indent=2) == json.dumps(record.to_dict(), indent=2)
        assert "[NaN, Infinity, -Infinity]" in text

    def test_long_sweep_matches_former_writer(self, tmp_path, written):
        """A 601-point propagate sweep gives the former writer's CSV bytes and
        the same parsed record."""
        data = {
            "array": ARRAY,
            "pump": LINEAR_PUMP,
            "sweep": {"variable": "z", "start": 0.0, "stop": 30.0, "points": 601},
        }
        cfg_path = write_config(tmp_path, data)
        new, old = tmp_path / "new", tmp_path / "old"
        assert run(["propagate", "--config", cfg_path, "--out", str(new), "--format", "csv"]) == 0
        old.mkdir()
        indent2_writer(written[0], old)
        assert (new / "propagate.csv").read_bytes() == (old / "propagate.csv").read_bytes()
        assert read_record(new, "propagate") == read_record(old, "propagate")
        assert len(read_record(new, "propagate")["results"]["rows"]) == 601

    @pytest.mark.parametrize("command", list(WRITER_SCENARIOS))
    def test_rewrite_over_longer_files(self, tmp_path, command):
        """Writing over longer files at the record and CSV paths gives the
        bytes of a write into an empty directory, with no stale tail."""
        cfg_path = write_config(tmp_path, WRITER_SCENARIOS[command])
        stem = command.replace("-", "_")
        fresh, over = tmp_path / "fresh", tmp_path / "over"
        argv = [command, "--config", cfg_path, "--format", "csv", "--out"]
        assert run([*argv, str(fresh)]) == 0
        files = sorted(p.name for p in fresh.iterdir())
        assert f"{stem}_record.json" in files
        over.mkdir()
        for name in (f"{stem}_record.json", f"{stem}.csv"):
            size = (fresh / name).stat().st_size if name in files else 0
            (over / name).write_bytes(b"junk\n" * (size // 5 + 200))
        assert run([*argv, str(over)]) == 0
        for name in files:
            assert (over / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_directory_at_record_path_exits_one(self, tmp_path, capsys):
        """A directory where the record goes cannot be written over: exit 1."""
        cfg_path = write_config(tmp_path, {"array": ARRAY})
        out = tmp_path / "out"
        (out / "supermodes_record.json").mkdir(parents=True)
        assert run(["supermodes", "--config", cfg_path, "--out", str(out)]) == 1
        assert "anwsim: error:" in capsys.readouterr().err
        assert not (out / "supermodes.csv").exists()


class TestStrictConfig:
    """Values of the wrong kind stop at the config boundary, naming the field."""

    @pytest.mark.parametrize(
        "command, data, message",
        [
            (
                "supermodes",
                {"array": {**ARRAY, "length": float("inf")}},
                "array.length: expected a finite number",
            ),
            ("supermodes", {"array": {**ARRAY, "n": 5.7}}, "array.n: expected an integer"),
            (
                "verify",
                {**LINEAR_VERIFY, "measurement": {"lo_phases_pi": [float("nan")] + [0.0] * 4}},
                "measurement.lo_phases_pi: expected finite numbers",
            ),
            (
                "vlf",
                {
                    "array": ARRAY,
                    "pump": {"amplitudes": [0.015] * 5},
                    "optimizer": {"fitness": "FM", "optimize_pump_phases": "false"},
                },
                "optimizer.optimize_pump_phases: expected true or false",
            ),
            (
                "supermodes",
                {"array": {**ARRAY, "coupling": float("nan")}},
                "array.coupling: expected a finite number",
            ),
            (
                "cluster",
                {**LINEAR_VERIFY, "optimizer": {"fitness": "FC", "generations": 0, "population": 0}},
                "optimizer.population: must be >= parents (5), got 0",
            ),
            (
                "cluster",
                {**LINEAR_VERIFY, "optimizer": {"fitness": "FC", "generations": 0, "parents": 0}},
                "optimizer.parents: must be >= 1, got 0",
            ),
            (
                "cluster",
                {**LINEAR_VERIFY, "optimizer": {"fitness": "FC", "generations": -1}},
                "optimizer.generations: must be >= 0, got -1",
            ),
            (
                "vlf",
                {
                    "array": ARRAY,
                    "pump": {"amplitudes": [0.015] * 5},
                    "optimizer": {"fitness": "FM", "generations": 3, "sigma0": 0.0},
                },
                "optimizer.sigma0: must be positive, got 0.0",
            ),
            (
                "cluster",
                {**LINEAR_VERIFY, "optimizer": {"fitness": "FC", "generations": 2, "eta_max": -0.1}},
                "optimizer.eta_max: must be positive, got -0.1",
            ),
            (
                "verify",
                {
                    "array": {**ARRAY, "n": 4},
                    "pump": {"amplitudes": [0.09] * 4, "phases_pi": [-0.5] * 4},
                    "measurement": {"lo_phases_pi": [0.0] * 4},
                    "graph": {"preset": "linear"},
                },
                "graph.preset 'linear' has 5 nodes but array.n is 4",
            ),
            (
                "verify",
                {
                    "array": {**ARRAY, "n": 6},
                    "pump": {"amplitudes": [0.09] * 6, "phases_pi": [-0.5] * 6},
                    "measurement": {"lo_phases_pi": [0.0] * 6},
                    "graph": {"preset": "linear"},
                },
                "graph.preset 'linear' has 5 nodes but array.n is 6",
            ),
            (
                "vlf",
                {
                    "array": ARRAY,
                    "pump": {"amplitudes": [0.015] * 5},
                    "measurement": {"lo_phases_pi": [0.0] * 5, "gains": [0.5] * 3},
                },
                "measurement: gains count does not match array.n",
            ),
            (
                "verify",
                {**LINEAR_VERIFY, "graph": {"preset": "linear", "labeling": 5}},
                "graph.labeling: expected a list of integers, got 5",
            ),
        ],
        ids=[
            "inf-length",
            "fractional-n",
            "nan-lo-phase",
            "string-flag",
            "nan-coupling",
            "zero-population",
            "zero-parents",
            "negative-generations",
            "zero-sigma0",
            "negative-eta-max",
            "preset-on-n4",
            "preset-on-n6",
            "short-gains",
            "scalar-labeling",
        ],
    )
    def test_rejected_with_field_name(self, tmp_path, capsys, command, data, message):
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run([command, "--config", cfg_path, "--out", str(out)]) == 1
        assert f"anwsim: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_ragged_adjacency_refused(self, tmp_path, capsys):
        """A ragged adjacency names its row, not numpy's shape error."""
        data = {
            "array": {**ARRAY, "n": 2},
            "graph": {"adjacency": [[0, 1], [1]]},
            "optimizer": {"fitness": "FP", "generations": 1, "restarts": 1},
        }
        out = tmp_path / "out"
        assert run(["cluster", "--config", write_config(tmp_path, data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "anwsim: error: graph.adjacency[1]: expected 2 entries (a square matrix), got 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("directory", [5, None])
    def test_directory_must_be_text(self, tmp_path, capsys, monkeypatch, directory):
        """A number or null output directory is refused, not written into as a folder."""
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path, {"array": ARRAY, "output": {"directory": directory}})
        assert run(["supermodes", "--config", cfg_path]) == 1
        message = f"output.directory: expected a string, got {directory!r}"
        assert f"anwsim: error: {message}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


class TestDriver:
    """Top-level argument handling."""

    def test_missing_config_file(self, tmp_path, capsys):
        """Nonexistent scenario files exit 1 with a message."""
        assert run(["supermodes", "--config", str(tmp_path / "nope.json")]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        """An output directory that cannot be made exits 1 with a message."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg_path = write_config(tmp_path, {"array": ARRAY})
        out = blocker / "out"
        assert run(["supermodes", "--config", cfg_path, "--out", str(out)]) == 1
        assert "anwsim: error:" in capsys.readouterr().err

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        """Schema violations exit 1."""
        cfg_path = write_config(tmp_path, {"array": {"n": 5}})
        assert run(["supermodes", "--config", cfg_path]) == 1
        assert "missing required key" in capsys.readouterr().err

    def test_unknown_command(self):
        """argparse rejects unknown subcommands."""
        with pytest.raises(SystemExit):
            run(["teleport", "--config", "x.json"])

    def test_parser_built_once(self, tmp_path):
        """Successive runs in one process share one parser and write what
        fresh parsers write, whatever the command and arguments before."""
        cfg_path = write_config(tmp_path, WRITER_SCENARIOS["propagate"])
        argvs = [
            ["supermodes", "--seed", "3", "--format", "csv"],
            ["propagate", "--parallel", "2"],
            ["supermodes"],
            ["propagate", "--format", "csv", "--seed", "5"],
        ]

        def run_all(tag, fresh):
            texts = []
            for i, argv in enumerate(argvs):
                if fresh:
                    cli._build_parser.cache_clear()
                out = tmp_path / tag / str(i)
                assert run([*argv, "--config", cfg_path, "--out", str(out)]) == 0
                texts.append(
                    sorted((p.name, p.read_bytes()) for p in out.iterdir())
                )
            return texts

        shared = run_all("shared", fresh=False)
        assert cli._build_parser() is cli._build_parser()
        assert shared == run_all("fresh", fresh=True)
        assert [name for name, _ in shared[0]] == ["supermodes.csv", "supermodes_record.json"]
        with pytest.raises(SystemExit):
            run(["teleport", "--config", cfg_path])
        assert run(["supermodes", "--config", cfg_path, "--out", str(tmp_path / "after")]) == 0

    def test_version_flag(self, capsys):
        """--version prints the package version and exits."""
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert "anwsim" in capsys.readouterr().out

    def test_import_leaves_out_scipy(self, tmp_path):
        """A fresh interpreter imports the CLI without the scipy package,
        and a record it then writes still reports scipy's version."""
        src = str(Path(cli.__file__).resolve().parents[1])
        cfg_path = write_config(tmp_path, {"array": ARRAY})
        code = "\n".join([
            "import json, sys",
            "import anwsim.cli",
            "print('scipy' in sys.modules)",
            f"code = anwsim.cli.run(['supermodes', '--config', {cfg_path!r}, '--out', {str(tmp_path)!r}])",
            "import scipy",
            f"record = json.load(open({str(tmp_path / 'supermodes_record.json')!r}))",
            "print(code, record['versions']['scipy'] == scipy.__version__)",
        ])
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
        )
        lines = out.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("False", "0 True")


# one scenario per command and mode, giving every key the mode reads at
# budgets small enough to run each mode here, but the graph's preset (only
# an adjacency takes a name) and the plain VLF search's pump-phase flag,
# which is false and so stays out of the echo
PATH5 = [[0, 1, 0, 0, 0], [1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 0]]
GRAPH = {"adjacency": PATH5, "name": "path", "labeling": [5, 4, 3, 2, 1]}
MEASUREMENT = {"lo_phases_pi": [0.0] * 5, "gains": [0.0, 0.1, -0.1, 0.2, 0.0]}
VLF_SEARCH = {
    "fitness": "FM", "population": 8, "parents": 2, "generations": 2, "seed": 3, "sigma0": 0.2,
}
SYNTHESIS = {
    "population": 8, "parents": 2, "generations": 2, "restarts": 1, "eta_max": 0.08, "target": 0.5,
}
MODE_SCENARIOS = {
    ("supermodes", None): {"array": ARRAY},
    ("propagate", None): {
        "array": ARRAY, "pump": LINEAR_PUMP,
        "sweep": {"variable": "z", "values": [0.0, 15.0, 30.0]},
    },
    ("vlf", "fixed detection"): {
        "array": ARRAY, "pump": LINEAR_PUMP, "measurement": MEASUREMENT,
        "sweep": {"variable": "eta", "values": [0.0, 0.05]},
    },
    ("vlf", "search"): {
        "array": ARRAY, "pump": {"amplitudes": [0.015] * 5}, "optimizer": VLF_SEARCH,
        "sweep": {"variable": "z", "values": [15.0, 30.0]},
    },
    ("vlf", "search with pump phases"): {
        "array": ARRAY, "pump": {"amplitudes": [0.015] * 5},
        "optimizer": {**VLF_SEARCH, "restarts": 2, "optimize_pump_phases": True},
        "sweep": {"variable": "eta", "values": [0.015]},
    },
    ("cluster", "forward"): {
        "array": ARRAY, "pump": LINEAR_PUMP, "measurement": MEASUREMENT, "graph": GRAPH,
        "optimizer": {"fitness": "FC", "generations": 0},
    },
    ("cluster", "F_C"): {
        "array": ARRAY, "graph": GRAPH, "optimizer": {"fitness": "FC", "seed": 41, **SYNTHESIS},
    },
    ("cluster", "F_P"): {
        "array": ARRAY, "graph": GRAPH, "optimizer": {"fitness": "FP", "seed": 11, **SYNTHESIS},
    },
    ("verify", None): {
        "array": ARRAY, "pump": LINEAR_PUMP, "measurement": MEASUREMENT, "graph": GRAPH,
    },
    ("oracle-check", None): {"array": ARRAY, "pump": LINEAR_PUMP},
}
# a valid section of each kind, for the modes that do not read it
SPARE_SECTIONS = {
    "pump": LINEAR_PUMP,
    "measurement": MEASUREMENT,
    "graph": {"preset": "linear"},
    "optimizer": {"fitness": "FC"},
    "sweep": {"variable": "z", "values": [1.0]},
}
# a valid value for each key that some mode does not read
UNREAD_VALUES = {
    "phases_pi": [0.0] * 5,
    "population": 12,
    "parents": 3,
    "seed": 5,
    "sigma0": 0.2,
    "eta_max": 0.05,
    "restarts": 2,
    "target": 1.0,
    "optimize_pump_phases": True,
}


def mode_id(key) -> str:
    command, mode = key
    return command if mode is None else f"{command}-{mode.replace(' ', '_')}"


def mode_label(key) -> str:
    """How an error message names a command and its mode."""
    command, mode = key
    return command if mode is None else f"{command} ({mode})"


def with_unread_sections(key) -> dict:
    """The mode's scenario plus a spare section of each kind it does not
    read; vlf gets no spare optimizer, which would pick a search mode."""
    required, optional = cli._READS[key]
    spare = {
        name: section
        for name, section in SPARE_SECTIONS.items()
        if name not in required and name not in optional
        and not (key[0] == "vlf" and name == "optimizer")
    }
    return {**MODE_SCENARIOS[key], **spare}


class TestReads:
    """One table in the CLI decides, for each command and mode, the
    sections it requires, the keys it reads and what its record echoes.

    The cases here come from that table; TestVlf and TestCluster pin some
    of its entries by hand (the refused target, eta_max, restarts, sigma0
    and pump-phase flag), which a table-driven test cannot do.
    """

    def test_table_covers_every_mode(self):
        assert set(cli._READS) == set(MODE_SCENARIOS)

    @pytest.mark.parametrize("key", list(MODE_SCENARIOS), ids=mode_id)
    def test_mode_reads_table(self, tmp_path, capsys, key):
        """Sections the mode does not read are accepted and left out of the
        echo, which holds each key the mode reads and no other; each key it
        does not read, given in a section it reads, exits 1 naming the
        command, mode and key; and each required section left out exits 1."""
        command = key[0]
        required, optional = cli._READS[key]
        reads = {**required, **optional}
        data = MODE_SCENARIOS[key]
        out = tmp_path / "out"
        code = run([command, "--config", write_config(tmp_path, with_unread_sections(key)),
                    "--out", str(out)])
        assert code in ((0, 2) if command == "verify" else (0,))
        config = read_record(out, command)["config"]
        assert list(config) == list(parse_config(data).to_dict())
        for name, keys in reads.items():
            unechoed = {"preset"} | ({"optimize_pump_phases"} if key[1] == "search" else set())
            assert set(config[name]) == set(keys) - unechoed, name

        scn = parse_config(data)
        refused = 0
        for name, keys in reads.items():
            for field in dataclasses.fields(getattr(scn, name)):
                if field.name in keys:
                    continue
                section = {**data[name], field.name: UNREAD_VALUES[field.name]}
                path = write_config(tmp_path, {**data, name: section}, name="unread.json")
                out = tmp_path / f"unread_{name}_{field.name}"
                assert run([command, "--config", path, "--out", str(out)]) == 1, field.name
                err = capsys.readouterr().err
                assert f"anwsim: error: {mode_label(key)} does not read {name}.{field.name}" in err
                assert not out.exists()
                refused += 1
        assert refused == sum(
            len(dataclasses.fields(getattr(scn, name))) - len(keys) for name, keys in reads.items()
        )

        for name in required:
            short = {k: v for k, v in data.items() if k != name}
            out = tmp_path / f"without_{name}"
            path = write_config(tmp_path, short, name="short.json")
            assert run([command, "--config", path, "--out", str(out)]) == 1, name
            err = capsys.readouterr().err
            # without its optimizer, vlf runs fixed detection, which needs a measurement
            named = "measurement" if (command == "vlf" and name == "optimizer") else name
            assert f"needs the '{named}' section" in err and f"error: {command}" in err
            assert not out.exists()

    @pytest.mark.parametrize("key", list(MODE_SCENARIOS), ids=mode_id)
    def test_record_replays(self, tmp_path, key):
        """Rerunning a command on its own record's config, which leaves out
        the sections it did not read, gives the same config and the same
        results block, byte for byte."""
        command = key[0]
        first, again = tmp_path / "first", tmp_path / "again"
        run([command, "--config", write_config(tmp_path, with_unread_sections(key)),
             "--out", str(first)])
        record = read_record(first, command)
        replay = write_config(tmp_path, record["config"], name="replay.json")
        run([command, "--config", replay, "--out", str(again)])
        echo = read_record(again, command)
        assert echo["config"] == record["config"]
        assert json.dumps(echo["results"]) == json.dumps(record["results"])
