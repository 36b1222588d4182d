"""Scenario configuration: a JSON schema for array, pump, detection,
graph, optimizer and output settings.

Phases are serialized in units of pi (matching how pump and LO settings
are normally tabulated) and converted to radians on access. A parsed
``ScenarioConfig`` echoes back to the same dictionary, so result records
stay replayable from their embedded configuration alone.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .entanglement import PRESETS, GraphSpec, graph_preset
from .model import ArrayConfig, PumpProfile
from .optimize import ETA_MAX

__all__ = [
    "ConfigError",
    "ArraySection",
    "PumpSection",
    "MeasurementSection",
    "GraphSection",
    "OptimizerSection",
    "SweepSection",
    "OutputSection",
    "ScenarioConfig",
    "load_config",
    "parse_config",
]

_FITNESSES = ("FM", "FC", "FP")


class ConfigError(ValueError):
    """Raised when a scenario file fails schema validation."""


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return mapping[key]


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(value, where: str) -> float:
    """A finite number; booleans and strings are not numbers."""
    if not _is_number(value):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise ConfigError(f"{where}: expected a finite number, got {out}")
    return out


def _positive(value, where: str) -> float:
    """A finite number above zero."""
    out = _number(value, where)
    if not out > 0:
        raise ConfigError(f"{where}: must be positive, got {out}")
    return out


def _integer(value, where: str) -> int:
    """An integer proper: not a boolean and not a float such as 5.7."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _flag(value, where: str) -> bool:
    """A JSON boolean; strings such as "false" are rejected."""
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _floats(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not all(_is_number(v) for v in value):
        raise ConfigError(f"{where}: expected a list of numbers")
    out = tuple(float(v) for v in value)
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{where}: expected finite numbers, got {list(out)}")
    return out


def _check_keys(mapping: dict, allowed: set[str], where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


@dataclass(frozen=True)
class ArraySection:
    """Waveguide count, coupling strength and profile, and device length."""

    n: int
    coupling: float
    length: float
    profile: tuple[float, ...] | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "ArraySection":
        _check_keys(d, {"n", "coupling", "length", "profile"}, "array")
        n = _integer(_require(d, "n", "array"), "array.n")
        profile = d.get("profile")
        if profile is not None:
            profile = _floats(profile, "array.profile")
        return cls(
            n=n,
            coupling=_number(_require(d, "coupling", "array"), "array.coupling"),
            length=_number(_require(d, "length", "array"), "array.length"),
            profile=profile,
        )

    def to_dict(self) -> dict:
        out = {"n": self.n, "coupling": self.coupling, "length": self.length}
        if self.profile is not None:
            out["profile"] = list(self.profile)
        return out

    def array_config(self) -> ArrayConfig:
        return ArrayConfig(
            n=self.n, coupling=self.coupling, length=self.length, profile=self.profile
        )


@dataclass(frozen=True)
class PumpSection:
    """Per-guide pump amplitudes (mm^-1) and phases in units of pi."""

    amplitudes: tuple[float, ...]
    phases_pi: tuple[float, ...] | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "PumpSection":
        _check_keys(d, {"amplitudes", "phases_pi"}, "pump")
        amp = _floats(_require(d, "amplitudes", "pump"), "pump.amplitudes")
        phases = d.get("phases_pi")
        if phases is not None:
            phases = _floats(phases, "pump.phases_pi")
            if len(phases) != len(amp):
                raise ConfigError("pump: amplitudes and phases_pi lengths differ")
        return cls(amplitudes=amp, phases_pi=phases)

    def to_dict(self) -> dict:
        out = {"amplitudes": list(self.amplitudes)}
        if self.phases_pi is not None:
            out["phases_pi"] = list(self.phases_pi)
        return out

    def pump_profile(self) -> PumpProfile:
        phases = (
            np.zeros(len(self.amplitudes))
            if self.phases_pi is None
            else np.pi * np.asarray(self.phases_pi)
        )
        return PumpProfile(np.asarray(self.amplitudes), phases)


@dataclass(frozen=True)
class MeasurementSection:
    """Homodyne LO phases (units of pi) and postprocessing gains."""

    lo_phases_pi: tuple[float, ...]
    gains: tuple[float, ...] | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "MeasurementSection":
        _check_keys(d, {"lo_phases_pi", "gains"}, "measurement")
        theta = _floats(_require(d, "lo_phases_pi", "measurement"), "measurement.lo_phases_pi")
        gains = d.get("gains")
        if gains is not None:
            gains = _floats(gains, "measurement.gains")
        return cls(lo_phases_pi=theta, gains=gains)

    def to_dict(self) -> dict:
        out = {"lo_phases_pi": list(self.lo_phases_pi)}
        if self.gains is not None:
            out["gains"] = list(self.gains)
        return out

    def lo_phases(self) -> np.ndarray:
        return np.pi * np.asarray(self.lo_phases_pi)

    def gain_vector(self, n: int) -> np.ndarray:
        if self.gains is None:
            return np.zeros(n)
        return np.asarray(self.gains, dtype=float)


@dataclass(frozen=True)
class GraphSection:
    """Target graph: a named preset, or an explicit adjacency matrix."""

    preset: str | None = None
    adjacency: tuple[tuple[int, ...], ...] | None = None
    labeling: tuple[int, ...] | None = None
    name: str = "custom"

    @classmethod
    def from_dict(cls, d: dict) -> "GraphSection":
        _check_keys(d, {"preset", "adjacency", "labeling", "name"}, "graph")
        preset = d.get("preset")
        adjacency = d.get("adjacency")
        if (preset is None) == (adjacency is None):
            raise ConfigError("graph: give exactly one of 'preset' or 'adjacency'")
        if preset is not None and preset not in PRESETS:
            raise ConfigError(f"graph: unknown preset '{preset}', choose from {PRESETS}")
        labeling = d.get("labeling")
        if labeling is not None:
            labeling = tuple(_integer(v, "graph.labeling") for v in labeling)
        if adjacency is not None:
            adjacency = tuple(
                tuple(_integer(v, "graph.adjacency") for v in row) for row in adjacency
            )
        return cls(
            preset=preset,
            adjacency=adjacency,
            labeling=labeling,
            name=str(d.get("name", "custom")),
        )

    def to_dict(self) -> dict:
        out: dict = {}
        if self.preset is not None:
            out["preset"] = self.preset
        if self.adjacency is not None:
            out["adjacency"] = [list(row) for row in self.adjacency]
            out["name"] = self.name
        if self.labeling is not None:
            out["labeling"] = list(self.labeling)
        return out

    def graph_spec(self) -> GraphSpec:
        if self.preset is not None:
            g = graph_preset(self.preset)
            if self.labeling is not None:
                g = GraphSpec(g.adjacency, name=g.name, labeling=self.labeling)
            return g
        return GraphSpec(np.asarray(self.adjacency), name=self.name, labeling=self.labeling)


@dataclass(frozen=True)
class OptimizerSection:
    """Evolution-strategy settings for the synthesis commands."""

    fitness: str
    population: int = 40
    parents: int = 5
    generations: int = 100
    restarts: int | None = None
    seed: int = 0
    sigma0: float = 0.3
    eta_max: float = ETA_MAX
    target: float | None = None
    optimize_pump_phases: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerSection":
        _check_keys(
            d,
            {
                "fitness",
                "population",
                "parents",
                "generations",
                "restarts",
                "seed",
                "sigma0",
                "eta_max",
                "target",
                "optimize_pump_phases",
            },
            "optimizer",
        )
        fitness = str(_require(d, "fitness", "optimizer"))
        if fitness not in _FITNESSES:
            raise ConfigError(f"optimizer: unknown fitness '{fitness}', choose from {_FITNESSES}")
        restarts = d.get("restarts")
        if restarts is not None:
            restarts = _integer(restarts, "optimizer.restarts")
            if restarts < 1:
                raise ConfigError(f"optimizer: restarts must be >= 1, got {restarts}")
        target = d.get("target")
        parents = _integer(d.get("parents", 5), "optimizer.parents")
        if parents < 1:
            raise ConfigError(f"optimizer.parents: must be >= 1, got {parents}")
        population = _integer(d.get("population", 40), "optimizer.population")
        if population < parents:
            raise ConfigError(
                f"optimizer.population: must be >= parents ({parents}), got {population}"
            )
        generations = _integer(d.get("generations", 100), "optimizer.generations")
        if generations < 0:
            raise ConfigError(f"optimizer.generations: must be >= 0, got {generations}")
        sigma0 = _positive(d.get("sigma0", 0.3), "optimizer.sigma0")
        eta_max = _positive(d.get("eta_max", ETA_MAX), "optimizer.eta_max")
        return cls(
            fitness=fitness,
            population=population,
            parents=parents,
            generations=generations,
            restarts=restarts,
            seed=_integer(d.get("seed", 0), "optimizer.seed"),
            sigma0=sigma0,
            eta_max=eta_max,
            target=None if target is None else _number(target, "optimizer.target"),
            optimize_pump_phases=_flag(
                d.get("optimize_pump_phases", False), "optimizer.optimize_pump_phases"
            ),
        )

    def to_dict(self) -> dict:
        out: dict = {
            "fitness": self.fitness,
            "population": self.population,
            "parents": self.parents,
            "generations": self.generations,
            "seed": self.seed,
            "sigma0": self.sigma0,
            "eta_max": self.eta_max,
        }
        if self.restarts is not None:
            out["restarts"] = self.restarts
        if self.target is not None:
            out["target"] = self.target
        if self.optimize_pump_phases:
            out["optimize_pump_phases"] = True
        return out


@dataclass(frozen=True)
class SweepSection:
    """Grid over propagation distance or flat-pump amplitude."""

    variable: str = "z"
    values: tuple[float, ...] = ()

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSection":
        _check_keys(d, {"variable", "values", "start", "stop", "points"}, "sweep")
        variable = str(d.get("variable", "z"))
        if variable not in ("z", "eta"):
            raise ConfigError("sweep: variable must be 'z' or 'eta'")
        if "values" in d:
            values = _floats(d["values"], "sweep.values")
        else:
            start = _number(_require(d, "start", "sweep"), "sweep.start")
            stop = _number(_require(d, "stop", "sweep"), "sweep.stop")
            points = _integer(_require(d, "points", "sweep"), "sweep.points")
            if points < 1:
                raise ConfigError("sweep: points must be positive")
            values = tuple(np.linspace(start, stop, points).tolist())
        if not values:
            raise ConfigError("sweep: empty grid")
        return cls(variable=variable, values=values)

    def to_dict(self) -> dict:
        return {"variable": self.variable, "values": list(self.values)}


@dataclass(frozen=True)
class OutputSection:
    """Where results are written and in which format."""

    directory: str = "."
    format: str = "json"

    @classmethod
    def from_dict(cls, d: dict) -> "OutputSection":
        _check_keys(d, {"directory", "format"}, "output")
        fmt = str(d.get("format", "json"))
        if fmt not in ("json", "csv"):
            raise ConfigError("output: format must be 'json' or 'csv'")
        return cls(directory=str(d.get("directory", ".")), format=fmt)

    def to_dict(self) -> dict:
        return {"directory": self.directory, "format": self.format}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: array required, remaining sections optional."""

    array: ArraySection
    pump: PumpSection | None = None
    measurement: MeasurementSection | None = None
    graph: GraphSection | None = None
    optimizer: OptimizerSection | None = None
    sweep: SweepSection | None = None
    output: OutputSection = field(default_factory=OutputSection)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        _check_keys(
            d,
            {"array", "pump", "measurement", "graph", "optimizer", "sweep", "output"},
            "scenario",
        )
        sections: dict = {"array": ArraySection.from_dict(_require(d, "array", "scenario"))}
        if "pump" in d:
            sections["pump"] = PumpSection.from_dict(d["pump"])
        if "measurement" in d:
            sections["measurement"] = MeasurementSection.from_dict(d["measurement"])
        if "graph" in d:
            sections["graph"] = GraphSection.from_dict(d["graph"])
        if "optimizer" in d:
            sections["optimizer"] = OptimizerSection.from_dict(d["optimizer"])
        if "sweep" in d:
            sections["sweep"] = SweepSection.from_dict(d["sweep"])
        if "output" in d:
            sections["output"] = OutputSection.from_dict(d["output"])
        cfg = cls(**sections)
        if cfg.pump is not None and len(cfg.pump.amplitudes) != cfg.array.n:
            raise ConfigError("pump: amplitude count does not match array.n")
        if cfg.measurement is not None and len(cfg.measurement.lo_phases_pi) != cfg.array.n:
            raise ConfigError("measurement: lo_phases_pi count does not match array.n")
        gains = cfg.measurement.gains if cfg.measurement is not None else None
        if gains is not None and len(gains) != cfg.array.n:
            raise ConfigError("measurement: gains count does not match array.n")
        if cfg.graph is not None and cfg.graph.adjacency is not None:
            if len(cfg.graph.adjacency) != cfg.array.n:
                raise ConfigError("graph: adjacency size does not match array.n")
        if cfg.graph is not None and cfg.graph.preset is not None:
            nodes = graph_preset(cfg.graph.preset).n
            if nodes != cfg.array.n:
                raise ConfigError(
                    f"graph.preset '{cfg.graph.preset}' has {nodes} nodes but "
                    f"array.n is {cfg.array.n}"
                )
        return cfg

    def to_dict(self) -> dict:
        out: dict = {"array": self.array.to_dict()}
        for key in ("pump", "measurement", "graph", "optimizer", "sweep"):
            section = getattr(self, key)
            if section is not None:
                out[key] = section.to_dict()
        out["output"] = self.output.to_dict()
        return out

    def require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise ConfigError(f"scenario: this command needs a '{name}' section")


def parse_config(d: dict) -> ScenarioConfig:
    """Validate a plain dictionary against the scenario schema."""
    return ScenarioConfig.from_dict(d)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_config(data)
