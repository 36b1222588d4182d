"""Tests for the command-line runners and their result records."""
import csv
import io
import json

import numpy as np
import pytest

import anwsim.optimize
from anwsim import cli
from anwsim import (
    GaussianState,
    PumpProfile,
    bloch_messiah,
    linear_supermodes,
    min_variance,
    optimize_vlf,
    propagator_exact,
    squeezing_db,
    symplectic_error,
    vlf_values,
)
from anwsim.cli import run

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
            "pump": {"amplitudes": [0.015] * 5, "phases_pi": [-0.5] * 5},
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
        assert "restarts applies only with optimize_pump_phases" in capsys.readouterr().err

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

    def test_forward_needs_measurement(self, tmp_path, capsys):
        """Without an optimizer the measurement block is required."""
        data = {"array": ARRAY, "pump": {"amplitudes": [0.015] * 5}}
        cfg_path = write_config(tmp_path, data)
        assert run(["vlf", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert "needs a 'measurement' section" in capsys.readouterr().err


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

    def test_forward_needs_pump(self, tmp_path, capsys):
        """Forward evaluation demands a configured pump."""
        data = {
            "array": ARRAY,
            "graph": {"preset": "linear"},
            "optimizer": {"fitness": "FC", "generations": 0},
        }
        cfg_path = write_config(tmp_path, data)
        assert run(["cluster", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert "needs a 'pump' section" in capsys.readouterr().err

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

    def test_missing_section_exits_one(self, tmp_path, capsys):
        """Verify needs pump, measurement and graph blocks."""
        data = {"array": ARRAY, "pump": LINEAR_PUMP}
        cfg_path = write_config(tmp_path, data)
        assert run(["verify", "--config", cfg_path, "--out", str(tmp_path)]) == 1
        assert "needs a" in capsys.readouterr().err


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
        ],
    )
    def test_rejected_with_field_name(self, tmp_path, capsys, command, data, message):
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run([command, "--config", cfg_path, "--out", str(out)]) == 1
        assert f"anwsim: error: {message}" in capsys.readouterr().err
        assert not out.exists()


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
