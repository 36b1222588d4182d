"""Scenario configuration: a JSON schema for array, pump, detection,
graph, optimizer and output settings.

Phases are serialized in units of pi (matching how pump and LO settings
are normally tabulated) and converted to radians on access. A parsed
``ScenarioConfig`` echoes back to the same dictionary, so result records
stay replayable from their embedded configuration alone. Each key is one
dataclass field that holds its parser; rules that tie fields together sit
in ``__post_init__``, so a section built in Python is checked too.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .entanglement import PRESETS, GraphSpec, graph_preset
from .model import ArrayConfig, PumpProfile

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


def _text(value, where: str) -> str:
    """A JSON string; a number or null is not a name."""
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _floats(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not all(_is_number(v) for v in value):
        raise ConfigError(f"{where}: expected a list of numbers")
    out = tuple(float(v) for v in value)
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{where}: expected finite numbers, got {list(out)}")
    return out


def _integers(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list of integers, got {value!r}")
    return tuple(_integer(v, where) for v in value)


def _rows(value, where: str) -> tuple[tuple[int, ...], ...]:
    """A matrix of integers given as a list of rows."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list of rows, got {value!r}")
    return tuple(_integers(row, f"{where}[{i}]") for i, row in enumerate(value))


_LISTS = {_floats: list, _integers: list, _rows: lambda rows: [list(r) for r in rows]}


def _key(parse, default=MISSING):
    """A key parsed by ``parse(value, "<section>.<key>")``; a tuple it builds
    echoes through ``_LISTS``. With a default of None, a null leaves it unset."""
    echo = _LISTS.get(parse)
    if default is None:
        parse = functools.partial(_unless_null, parse)
    return field(default=default, metadata={"parse": parse, "echo": echo})


def _unless_null(parse, value, where: str):
    return None if value is None else parse(value, where)


def _subsection(cls, default=None):
    """A nested section, parsed and named by its own class."""
    return field(
        default=default, metadata={"parse": lambda d, _: cls.from_dict(d), "echo": _Section.to_dict}
    )


@functools.cache
def _spec(cls):
    """A section's key names, and (key, parser, echo, required, "<section>.<key>")
    of each key in field order, which is the echo order."""
    keys = tuple(
        (f.name, f.metadata["parse"], f.metadata["echo"],
         f.default is MISSING and f.default_factory is MISSING, f"{cls._where}.{f.name}")
        for f in fields(cls)
    )
    return frozenset(key[0] for key in keys), keys


class _Section:
    """Reads and echoes a section from its fields; a subclass sets ``_where``."""

    #: names of the keys a parsed section was given, defaults left out; a
    #: section built in Python was given none
    given: frozenset[str] = frozenset()

    @classmethod
    def _parse(cls, d, extra: tuple[str, ...] = ()) -> dict:
        """The parsed keys of ``d``; ``extra`` keys are allowed and left out."""
        names, keys = _spec(cls)
        if not isinstance(d, dict):
            raise ConfigError(f"{cls._where}: expected an object")
        unknown = d.keys() - names - set(extra)
        if unknown:
            raise ConfigError(f"{cls._where}: unknown keys {sorted(unknown)}")
        out = {}
        for name, parse, _, required, where in keys:
            if name in d:
                out[name] = parse(d[name], where)
            elif required:
                raise ConfigError(f"{cls._where}: missing required key '{name}'")
        return out

    @classmethod
    def from_dict(cls, d: dict):
        return cls._build(cls._parse(d))

    @classmethod
    def _build(cls, parsed: dict):
        """The section holding the parsed keys, which it keeps as ``given``."""
        section = cls(**parsed)
        object.__setattr__(section, "given", frozenset(parsed))
        return section

    def to_dict(self) -> dict:
        """Every key that is not None or False, tuples as lists."""
        out = {}
        for name, _, echo, _, _ in _spec(type(self))[1]:
            value = getattr(self, name)
            if value is not None and value is not False:
                out[name] = value if echo is None else echo(value)
        return out


@dataclass(frozen=True)
class ArraySection(_Section):
    """Waveguide count, coupling strength and profile, and device length."""

    _where = "array"
    n: int = _key(_integer)
    coupling: float = _key(_number)
    length: float = _key(_number)
    profile: tuple[float, ...] | None = _key(_floats, None)

    def array_config(self) -> ArrayConfig:
        return ArrayConfig(
            n=self.n, coupling=self.coupling, length=self.length, profile=self.profile
        )


@dataclass(frozen=True)
class PumpSection(_Section):
    """Per-guide pump amplitudes (mm^-1) and phases in units of pi."""

    _where = "pump"
    amplitudes: tuple[float, ...] = _key(_floats)
    phases_pi: tuple[float, ...] | None = _key(_floats, None)

    def __post_init__(self):
        if self.phases_pi is not None and len(self.phases_pi) != len(self.amplitudes):
            raise ConfigError("pump: amplitudes and phases_pi lengths differ")

    def pump_profile(self) -> PumpProfile:
        phases = (
            np.zeros(len(self.amplitudes))
            if self.phases_pi is None
            else np.pi * np.asarray(self.phases_pi)
        )
        return PumpProfile(np.asarray(self.amplitudes), phases)


@dataclass(frozen=True)
class MeasurementSection(_Section):
    """Homodyne LO phases (units of pi) and postprocessing gains."""

    _where = "measurement"
    lo_phases_pi: tuple[float, ...] = _key(_floats)
    gains: tuple[float, ...] | None = _key(_floats, None)

    def lo_phases(self) -> np.ndarray:
        return np.pi * np.asarray(self.lo_phases_pi)

    def gain_vector(self, n: int) -> np.ndarray:
        if self.gains is None:
            return np.zeros(n)
        return np.asarray(self.gains, dtype=float)


@dataclass(frozen=True)
class GraphSection(_Section):
    """Target graph: a named preset, or an adjacency matrix (named "custom" by default)."""

    _where = "graph"
    preset: str | None = _key(_text, None)
    adjacency: tuple[tuple[int, ...], ...] | None = _key(_rows, None)
    name: str | None = _key(_text, None)
    labeling: tuple[int, ...] | None = _key(_integers, None)

    def __post_init__(self):
        if (self.preset is None) == (self.adjacency is None):
            raise ConfigError("graph: give exactly one of 'preset' or 'adjacency'")
        if self.preset is None:
            size = len(self.adjacency)
            for i, row in enumerate(self.adjacency):
                if len(row) != size:
                    raise ConfigError(
                        f"graph.adjacency[{i}]: expected {size} entries (a square matrix), "
                        f"got {len(row)}"
                    )
            if self.name is None:
                object.__setattr__(self, "name", "custom")
        elif self.preset not in PRESETS:
            raise ConfigError(f"graph: unknown preset '{self.preset}', choose from {PRESETS}")
        elif self.name is not None:
            raise ConfigError("graph.name: only an 'adjacency' graph takes a name")

    def graph_spec(self) -> GraphSpec:
        if self.preset is not None:
            g = graph_preset(self.preset)
            if self.labeling is not None:
                g = GraphSpec(g.adjacency, name=g.name, labeling=self.labeling)
            return g
        return GraphSpec(np.asarray(self.adjacency), name=self.name, labeling=self.labeling)


@dataclass(frozen=True)
class OptimizerSection(_Section):
    """Evolution-strategy settings for the synthesis commands."""

    _where = "optimizer"
    fitness: str = _key(_text)
    population: int = _key(_integer, 40)
    parents: int = _key(_integer, 5)
    generations: int = _key(_integer, 100)
    seed: int = _key(_integer, 0)
    sigma0: float | None = _key(_positive, None)
    eta_max: float | None = _key(_positive, None)
    restarts: int | None = _key(_integer, None)
    target: float | None = _key(_number, None)
    optimize_pump_phases: bool = _key(_flag, False)

    def __post_init__(self):
        if self.fitness not in _FITNESSES:
            raise ConfigError(
                f"optimizer: unknown fitness '{self.fitness}', choose from {_FITNESSES}"
            )
        if self.restarts is not None and self.restarts < 1:
            raise ConfigError(f"optimizer: restarts must be >= 1, got {self.restarts}")
        if self.parents < 1:
            raise ConfigError(f"optimizer.parents: must be >= 1, got {self.parents}")
        if self.population < self.parents:
            raise ConfigError(
                f"optimizer.population: must be >= parents ({self.parents}), got {self.population}"
            )
        if self.generations < 0:
            raise ConfigError(f"optimizer.generations: must be >= 0, got {self.generations}")


@dataclass(frozen=True)
class SweepSection(_Section):
    """Grid over distance or flat-pump amplitude: ``values`` or ``start``/``stop``/``points``."""

    _where = "sweep"
    variable: str = _key(_text, "z")
    values: tuple[float, ...] = _key(_floats, ())

    def __post_init__(self):
        if self.variable not in ("z", "eta"):
            raise ConfigError("sweep: variable must be 'z' or 'eta'")
        if not self.values:
            raise ConfigError("sweep: empty grid")

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSection":
        grid = ("start", "stop", "points")
        out = cls._parse(d, extra=grid)
        if "values" in out:
            if any(key in d for key in grid):
                raise ConfigError("sweep: give 'values' or 'start'/'stop'/'points', not both")
        else:
            start = _number(_require(d, "start", "sweep"), "sweep.start")
            stop = _number(_require(d, "stop", "sweep"), "sweep.stop")
            points = _integer(_require(d, "points", "sweep"), "sweep.points")
            if points < 1:
                raise ConfigError("sweep: points must be positive")
            out["values"] = tuple(np.linspace(start, stop, points).tolist())
        return cls._build(out)


@dataclass(frozen=True)
class OutputSection(_Section):
    """Where results are written and in which format."""

    _where = "output"
    directory: str = _key(_text, ".")
    format: str = _key(_text, "json")

    def __post_init__(self):
        if self.format not in ("json", "csv"):
            raise ConfigError("output: format must be 'json' or 'csv'")


@dataclass(frozen=True)
class ScenarioConfig(_Section):
    """Validated scenario: array required, remaining sections optional."""

    _where = "scenario"
    array: ArraySection = _subsection(ArraySection, MISSING)
    pump: PumpSection | None = _subsection(PumpSection)
    measurement: MeasurementSection | None = _subsection(MeasurementSection)
    graph: GraphSection | None = _subsection(GraphSection)
    optimizer: OptimizerSection | None = _subsection(OptimizerSection)
    sweep: SweepSection | None = _subsection(SweepSection)
    output: OutputSection = _subsection(OutputSection, OutputSection())

    def __post_init__(self):
        n, measurement, graph = self.array.n, self.measurement, self.graph
        if self.pump is not None and len(self.pump.amplitudes) != n:
            raise ConfigError("pump: amplitude count does not match array.n")
        if measurement is not None and len(measurement.lo_phases_pi) != n:
            raise ConfigError("measurement: lo_phases_pi count does not match array.n")
        gains = measurement.gains if measurement is not None else None
        if gains is not None and len(gains) != n:
            raise ConfigError("measurement: gains count does not match array.n")
        if graph is not None and graph.adjacency is not None and len(graph.adjacency) != n:
            raise ConfigError("graph: adjacency size does not match array.n")
        if graph is not None and graph.preset is not None:
            nodes = graph_preset(graph.preset).n
            if nodes != n:
                raise ConfigError(
                    f"graph.preset '{graph.preset}' has {nodes} nodes but array.n is {n}"
                )


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
