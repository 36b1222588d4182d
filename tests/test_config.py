"""Tests for scenario-file parsing and validation."""
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from anwsim import ETA_MAX, ArrayConfig, synthesize_cluster, synthesize_emulation
from anwsim.config import (
    ArraySection,
    ConfigError,
    GraphSection,
    MeasurementSection,
    OptimizerSection,
    OutputSection,
    PumpSection,
    ScenarioConfig,
    SweepSection,
    load_config,
    parse_config,
)

MINIMAL = {"array": {"n": 5, "coupling": 0.24, "length": 30.0}}
README = Path(__file__).resolve().parents[1] / "README.md"


def scenario(**extra):
    d = dict(MINIMAL)
    d.update(extra)
    return d


class TestArraySection:
    """Waveguide-array block."""

    def test_minimal(self):
        """n, coupling and length are the required fields."""
        section = ArraySection.from_dict({"n": 3, "coupling": 0.1, "length": 20.0})
        assert section.n == 3
        assert section.profile is None

    @pytest.mark.parametrize("key", ["n", "coupling", "length"])
    def test_missing_key(self, key):
        """Each required field is reported by name."""
        d = {"n": 3, "coupling": 0.1, "length": 20.0}
        del d[key]
        with pytest.raises(ConfigError, match=f"array: missing required key '{key}'"):
            ArraySection.from_dict(d)

    def test_unknown_key(self):
        """Typos are rejected rather than ignored."""
        with pytest.raises(ConfigError, match="array: unknown keys"):
            ArraySection.from_dict(
                {"n": 3, "coupling": 0.1, "length": 20.0, "lenght": 1.0}
            )

    def test_profile(self):
        """An optional coupling profile scales the n-1 junctions."""
        section = ArraySection.from_dict(
            {"n": 3, "coupling": 0.1, "length": 20.0, "profile": [1.0, 0.5]}
        )
        assert section.profile == (1.0, 0.5)
        assert isinstance(section.array_config(), ArrayConfig)

    def test_profile_must_be_numeric(self):
        """Non-numeric profiles are rejected."""
        with pytest.raises(ConfigError, match="array.profile: expected a list of numbers"):
            ArraySection.from_dict(
                {"n": 3, "coupling": 0.1, "length": 20.0, "profile": ["a", "b"]}
            )


class TestPumpSection:
    """Pump block with phases in units of pi."""

    def test_defaults_to_zero_phase(self):
        """Omitted phases mean a real positive pump."""
        section = PumpSection.from_dict({"amplitudes": [0.01, 0.02]})
        pump = section.pump_profile()
        assert np.allclose(pump.phases, 0.0)

    def test_phase_units(self):
        """phases_pi entries are multiples of pi."""
        section = PumpSection.from_dict(
            {"amplitudes": [0.01, 0.02], "phases_pi": [-0.5, 1.0]}
        )
        pump = section.pump_profile()
        assert np.allclose(pump.phases, [-np.pi / 2, np.pi], atol=1e-15, rtol=0)

    def test_length_mismatch(self):
        """Amplitude and phase vectors must pair up."""
        with pytest.raises(ConfigError, match="amplitudes and phases_pi lengths differ"):
            PumpSection.from_dict({"amplitudes": [0.01], "phases_pi": [0.0, 0.5]})

    def test_amplitudes_required(self):
        """A pump block without amplitudes is invalid."""
        with pytest.raises(ConfigError, match="pump: missing required key 'amplitudes'"):
            PumpSection.from_dict({"phases_pi": [0.0]})


class TestMeasurementSection:
    """Homodyne block."""

    def test_phase_units(self):
        """LO phases are specified in units of pi."""
        section = MeasurementSection.from_dict({"lo_phases_pi": [0.5, -0.5]})
        assert np.allclose(section.lo_phases(), [np.pi / 2, -np.pi / 2])

    def test_gain_default(self):
        """Gains default to zero for every mode."""
        section = MeasurementSection.from_dict({"lo_phases_pi": [0.0, 0.0]})
        assert np.array_equal(section.gain_vector(2), np.zeros(2))

    def test_explicit_gains(self):
        """Explicit gains pass through unchanged."""
        section = MeasurementSection.from_dict(
            {"lo_phases_pi": [0.0, 0.0], "gains": [1.5, -0.5]}
        )
        assert np.allclose(section.gain_vector(2), [1.5, -0.5])


class TestGraphSection:
    """Graph block: preset or explicit adjacency."""

    def test_preset(self):
        """Preset names resolve to the built-in graphs."""
        section = GraphSection.from_dict({"preset": "pentagon"})
        assert section.graph_spec().name == "pentagon"

    def test_preset_and_adjacency_conflict(self):
        """Exactly one of preset and adjacency must be given."""
        with pytest.raises(ConfigError, match="exactly one of 'preset' or 'adjacency'"):
            GraphSection.from_dict(
                {"preset": "star", "adjacency": [[0, 1], [1, 0]]}
            )
        with pytest.raises(ConfigError, match="exactly one of 'preset' or 'adjacency'"):
            GraphSection.from_dict({})

    def test_unknown_preset(self):
        """Unknown preset names list the available choices."""
        with pytest.raises(ConfigError, match="graph: unknown preset 'ring'"):
            GraphSection.from_dict({"preset": "ring"})

    def test_adjacency(self):
        """Explicit adjacency builds a custom graph."""
        section = GraphSection.from_dict(
            {"adjacency": [[0, 1], [1, 0]], "name": "pair"}
        )
        g = section.graph_spec()
        assert g.name == "pair"
        assert g.n == 2

    def test_preset_with_labeling(self):
        """A labeling reassigns preset nodes to other modes."""
        section = GraphSection.from_dict(
            {"preset": "linear", "labeling": [2, 1, 3, 4, 5]}
        )
        g = section.graph_spec()
        assert g.name == "linear"
        assert np.array_equal(g.labeling, [2, 1, 3, 4, 5])

    @pytest.mark.parametrize(
        "d, message",
        [
            ({"preset": "linear", "labeling": 5}, "graph.labeling: expected a list of integers"),
            ({"adjacency": 5}, "graph.adjacency: expected a list of rows"),
            ({"adjacency": [1, 2]}, r"graph.adjacency\[0\]: expected a list of integers"),
            ({"adjacency": [[0, 1], [1, 0.5]]}, r"graph.adjacency\[1\]: expected an integer"),
        ],
        ids=["labeling", "adjacency", "adjacency-row", "adjacency-entry"],
    )
    def test_malformed_lists(self, d, message):
        """A labeling or adjacency that is not a list of integers names the field."""
        with pytest.raises(ConfigError, match=message):
            GraphSection.from_dict(d)

    def test_name_only_with_adjacency(self):
        """A preset carries its own name, so a 'name' beside it is refused."""
        with pytest.raises(ConfigError, match="graph.name: only an 'adjacency' graph takes a name"):
            GraphSection.from_dict({"preset": "star", "name": "mine"})

    def test_unnamed_adjacency_is_custom(self):
        """An adjacency without a name is called "custom", built or parsed."""
        assert GraphSection.from_dict({"adjacency": [[0]]}).name == "custom"
        assert GraphSection(adjacency=((0,),)).graph_spec().name == "custom"


class TestOptimizerSection:
    """Evolution-strategy block."""

    def test_defaults(self):
        """Only the fitness choice is required."""
        section = OptimizerSection.from_dict({"fitness": "FC"})
        assert section.population == 40
        assert section.parents == 5
        assert section.restarts is None
        assert not section.optimize_pump_phases

    def test_eta_max_defaults_to_search_ceiling(self):
        """The pump ceiling has one home, optimize.ETA_MAX: an unset eta_max
        stays None, parsed or not, and the synthesis drivers fill it in."""
        assert OptimizerSection.from_dict({"fitness": "FC"}).eta_max is None
        assert OptimizerSection(fitness="FC").eta_max is None
        for driver in (synthesize_cluster, synthesize_emulation):
            assert inspect.signature(driver).parameters["eta_max"].default == ETA_MAX

    def test_fitness_required(self):
        """The block must say which objective to run."""
        with pytest.raises(ConfigError, match="optimizer: missing required key 'fitness'"):
            OptimizerSection.from_dict({})

    def test_unknown_fitness(self):
        """Objective names outside FM/FC/FP are rejected."""
        with pytest.raises(ConfigError, match="optimizer: unknown fitness 'FX'"):
            OptimizerSection.from_dict({"fitness": "FX"})

    def test_optional_fields(self):
        """Restarts, target and pump-phase flags are all optional."""
        section = OptimizerSection.from_dict(
            {"fitness": "FM", "restarts": 3, "target": 1.5, "optimize_pump_phases": True}
        )
        assert section.restarts == 3
        assert section.target == 1.5
        assert section.optimize_pump_phases

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_at_least_one(self, restarts):
        """A search runs at least once."""
        with pytest.raises(ConfigError, match="optimizer: restarts must be >= 1"):
            OptimizerSection.from_dict({"fitness": "FC", "restarts": restarts})

    def test_null_leaves_optional_key_unset(self):
        """A JSON null for a key that defaults to unset means the default."""
        section = OptimizerSection.from_dict({"fitness": "FC", "restarts": None, "target": None})
        assert section == OptimizerSection(fitness="FC")


class TestSweepSection:
    """Sweep grids for distance or pump amplitude."""

    def test_explicit_values(self):
        """A values list is taken verbatim."""
        section = SweepSection.from_dict({"variable": "z", "values": [0.0, 15.0, 30.0]})
        assert section.values == (0.0, 15.0, 30.0)

    def test_linspace(self):
        """start/stop/points builds an even grid."""
        section = SweepSection.from_dict(
            {"variable": "eta", "start": 0.0, "stop": 0.02, "points": 5}
        )
        assert np.allclose(section.values, np.linspace(0.0, 0.02, 5))

    def test_bad_variable(self):
        """Only z and eta sweeps exist."""
        with pytest.raises(ConfigError, match="variable must be 'z' or 'eta'"):
            SweepSection.from_dict({"variable": "power", "values": [1.0]})

    def test_empty_grid(self):
        """Empty sweeps are rejected."""
        with pytest.raises(ConfigError, match="sweep: empty grid"):
            SweepSection.from_dict({"values": []})

    def test_missing_stop(self):
        """Without values the start/stop/points triple is required."""
        with pytest.raises(ConfigError, match="sweep: missing required key 'stop'"):
            SweepSection.from_dict({"start": 0.0, "points": 3})

    def test_nonpositive_points(self):
        """The grid needs at least one point."""
        with pytest.raises(ConfigError, match="sweep: points must be positive"):
            SweepSection.from_dict({"start": 0.0, "stop": 1.0, "points": 0})

    @pytest.mark.parametrize("grid", [{"start": 0.0}, {"start": 0.0, "stop": 1.0, "points": 3}])
    def test_values_and_grid_conflict(self, grid):
        """A grid given both ways is refused rather than half ignored."""
        with pytest.raises(ConfigError, match="sweep: give 'values' or 'start'/'stop'/'points'"):
            SweepSection.from_dict({"values": [1.0, 2.0], **grid})


class TestOutputSection:
    """Result destination block."""

    def test_defaults(self):
        """JSON in the working directory by default."""
        section = OutputSection.from_dict({})
        assert section.directory == "."
        assert section.format == "json"

    def test_bad_format(self):
        """Only json and csv are supported."""
        with pytest.raises(ConfigError, match="format must be 'json' or 'csv'"):
            OutputSection.from_dict({"format": "yaml"})


@pytest.mark.parametrize(
    "section, key",
    [
        (OutputSection, "directory"),
        (OutputSection, "format"),
        (SweepSection, "variable"),
        (OptimizerSection, "fitness"),
        (GraphSection, "preset"),
        (GraphSection, "name"),
    ],
)
def test_string_keys_refuse_other_types(section, key):
    """Every string key refuses a value that is not a JSON string."""
    with pytest.raises(ConfigError, match=f"{section._where}.{key}: expected a string, got 5"):
        section.from_dict({key: 5})


class TestScenarioConfig:
    """Whole-file validation and round-tripping."""

    def test_minimal(self):
        """An array block alone is a valid scenario."""
        cfg = parse_config(MINIMAL)
        assert cfg.array.n == 5
        assert cfg.pump is None

    def test_array_required(self):
        """Scenarios without an array block are invalid."""
        with pytest.raises(ConfigError, match="scenario: missing required key 'array'"):
            parse_config({"pump": {"amplitudes": [0.01]}})

    def test_unknown_section(self):
        """Unknown top-level sections are rejected."""
        with pytest.raises(ConfigError, match="scenario: unknown keys"):
            parse_config(scenario(laser={"power": 1.0}))

    def test_pump_length_cross_check(self):
        """The pump must cover every guide."""
        with pytest.raises(ConfigError, match="amplitude count does not match array.n"):
            parse_config(scenario(pump={"amplitudes": [0.01, 0.02]}))

    def test_measurement_length_cross_check(self):
        """The LO phases must cover every mode."""
        with pytest.raises(ConfigError, match="lo_phases_pi count does not match array.n"):
            parse_config(scenario(measurement={"lo_phases_pi": [0.0]}))

    def test_adjacency_size_cross_check(self):
        """Custom adjacency matrices must match the array size."""
        with pytest.raises(ConfigError, match="adjacency size does not match array.n"):
            parse_config(scenario(graph={"adjacency": [[0, 1], [1, 0]]}))

    def test_ragged_adjacency_row(self):
        """A row of another length than the matrix's row count is named by
        its index, in a parsed scenario and in a section built in Python."""
        message = r"graph.adjacency\[1\]: expected 2 entries \(a square matrix\), got 1"
        d = dict(MINIMAL, array={"n": 2, "coupling": 0.24, "length": 30.0})
        with pytest.raises(ConfigError, match=message):
            parse_config(dict(d, graph={"adjacency": [[0, 1], [1]]}))
        with pytest.raises(ConfigError, match=message):
            GraphSection(adjacency=((0, 1), (1,)))

    def test_round_trip(self):
        """to_dict echoes a dictionary that parses back to the same config."""
        d = scenario(
            pump={"amplitudes": [0.01] * 5, "phases_pi": [-0.5] * 5},
            measurement={"lo_phases_pi": [0.0] * 5, "gains": [0.1] * 5},
            graph={"preset": "star"},
            optimizer={"fitness": "FC", "restarts": 2, "target": 2.0},
            sweep={"variable": "z", "values": [0.0, 30.0]},
            output={"directory": "out", "format": "csv"},
        )
        cfg = parse_config(d)
        assert parse_config(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PumpSection(amplitudes=(0.01,), phases_pi=(0.0, 0.5)), "lengths differ"),
            (lambda: GraphSection(), "exactly one of 'preset' or 'adjacency'"),
            (lambda: OptimizerSection(fitness="FX"), "unknown fitness 'FX'"),
            (lambda: OptimizerSection(fitness="FC", population=3), "must be >= parents"),
            (lambda: SweepSection(), "sweep: empty grid"),
            (lambda: OutputSection(format="yaml"), "format must be 'json' or 'csv'"),
            (
                lambda: ScenarioConfig(
                    array=ArraySection(n=5, coupling=0.24, length=30.0),
                    pump=PumpSection(amplitudes=(0.01,)),
                ),
                "amplitude count does not match array.n",
            ),
        ],
        ids=["pump", "graph", "fitness", "population", "sweep", "output", "scenario"],
    )
    def test_built_sections_checked(self, build, message):
        """Sections built in Python obey the same cross-field rules as parsed ones."""
        with pytest.raises(ConfigError, match=message):
            build()


class TestLoadConfig:
    """File-level loading."""

    def test_reads_json(self, tmp_path):
        """A JSON scenario file parses into a ScenarioConfig."""
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(MINIMAL))
        cfg = load_config(path)
        assert isinstance(cfg, ScenarioConfig)
        assert cfg.array.length == 30.0

    def test_missing_file(self, tmp_path):
        """Unreadable paths report the filename."""
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        """Syntax errors surface as ConfigError."""
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="is not valid JSON"):
            load_config(path)

    def test_top_level_must_be_object(self, tmp_path):
        """A JSON array at top level is rejected."""
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level must be an object"):
            load_config(path)


class TestEcho:
    """The echoed dictionary is what a result record embeds, byte for byte."""

    @pytest.mark.parametrize(
        "data, echo",
        [
            (
                {
                    "array": {"n": 5, "coupling": 0.24, "length": 30.0},
                    "pump": {
                        "amplitudes": [0.092, 0.089, 0.091, 0.091, 0.092],
                        "phases_pi": [-0.5, -0.5, -0.5, -0.5, -0.5],
                    },
                    "measurement": {"lo_phases_pi": [0, 0, 0, 0, 0]},
                    "graph": {"preset": "linear"},
                    "optimizer": {"fitness": "FC", "generations": 100, "restarts": 5, "seed": 41},
                    "sweep": {"variable": "z", "start": 0.0, "stop": 2.0, "points": 5},
                    "output": {"directory": "out", "format": "csv"},
                },
                '{"array": {"n": 5, "coupling": 0.24, "length": 30.0}, '
                '"pump": {"amplitudes": [0.092, 0.089, 0.091, 0.091, 0.092], '
                '"phases_pi": [-0.5, -0.5, -0.5, -0.5, -0.5]}, '
                '"measurement": {"lo_phases_pi": [0.0, 0.0, 0.0, 0.0, 0.0]}, '
                '"graph": {"preset": "linear"}, '
                '"optimizer": {"fitness": "FC", "population": 40, "parents": 5, '
                '"generations": 100, "seed": 41, "restarts": 5}, '
                '"sweep": {"variable": "z", "values": [0.0, 0.5, 1.0, 1.5, 2.0]}, '
                '"output": {"directory": "out", "format": "csv"}}',
            ),
            (
                {
                    "array": {"n": 2, "coupling": 0.1, "length": 20.0},
                    "graph": {"labeling": [2, 1], "adjacency": [[0, 1], [1, 0]]},
                },
                '{"array": {"n": 2, "coupling": 0.1, "length": 20.0}, '
                '"graph": {"adjacency": [[0, 1], [1, 0]], "name": "custom", "labeling": [2, 1]}, '
                '"output": {"directory": ".", "format": "json"}}',
            ),
            (
                {
                    "array": {"n": 5, "coupling": 0.24, "length": 30.0},
                    "optimizer": {
                        "optimize_pump_phases": True,
                        "target": 1.5,
                        "restarts": 3,
                        "fitness": "FM",
                        "sigma0": 0.2,
                    },
                },
                '{"array": {"n": 5, "coupling": 0.24, "length": 30.0}, '
                '"optimizer": {"fitness": "FM", "population": 40, "parents": 5, '
                '"generations": 100, "seed": 0, "sigma0": 0.2, '
                '"restarts": 3, "target": 1.5, "optimize_pump_phases": true}, '
                '"output": {"directory": ".", "format": "json"}}',
            ),
        ],
        ids=["readme-scenario", "unnamed-adjacency", "optimizer-extras"],
    )
    def test_echo_bytes(self, data, echo):
        """Keys come out in a fixed order; unset and false optional keys stay out."""
        assert json.dumps(parse_config(data).to_dict()) == echo

    def test_readme_scenario_parses(self):
        """The scenario shown in README.md is valid under the schema."""
        text = README.read_text()
        block = re.search(r"A scenario file holds.*?```json\n(.*?)```", text, re.S).group(1)
        cfg = parse_config(json.loads(block))
        assert parse_config(cfg.to_dict()) == cfg
