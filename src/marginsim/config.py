"""Scenario configs: one INI-style file describes a whole experiment.

A scenario names its trace source (synthetic recipe or CSV files), cost
model overrides, strategy bindings, agent hyperparameters, the output
directory, and the single global seed every random stream derives from.
Unknown sections or keys are hard errors so typos cannot silently fall back
to defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, Field, dataclass, fields
from pathlib import Path

from marginsim.agent import DdpgConfig
from marginsim.costs import CostModel
from marginsim.engine import REWARD_ATTRIBUTIONS, reward_scale_for
from marginsim.errors import ConfigError, DomainError
from marginsim.seeds import subseed
from marginsim.strategies import StrategySpec
from marginsim.traces import (
    DEFAULT_STEP_MINUTES,
    MINUTES_PER_DAY,
    Datacenter,
    MetricKind,
    SyntheticConfig,
    generate_synthetic,
    load_capacities,
    load_traces,
)


@dataclass
class ScenarioConfig:
    """Validated contents of one scenario file.

    The run settings at the end are `[ddpg]` keys that configure the run
    rather than the agent, so a checkpoint does not store them.
    """

    path: Path
    name: str
    seed: int
    output_dir: Path
    step_minutes: int
    trace_file: Path | None
    capacity_file: Path | None
    synthetic: SyntheticConfig | None
    cost: CostModel
    bindings: dict[MetricKind, StrategySpec]
    compare: list[StrategySpec]
    baseline: str | None
    ddpg: DdpgConfig
    train_fraction: float = 0.8
    per_host_agents: bool = False
    reward_attribution: str = REWARD_ATTRIBUTIONS[0]

    @property
    def checkpoint_dir(self) -> Path:
        return self.output_dir / "checkpoints"

    def learned_metrics(self) -> list[MetricKind]:
        return [m for m, spec in self.bindings.items() if spec.kind == "releaser"]

    def build_datacenter(self) -> Datacenter:
        """Materialize the trace this scenario describes, if its earnings fit a float."""
        if self.synthetic is not None:
            dc = generate_synthetic(self.synthetic)
            dc.name = self.name
        else:
            capacities = load_capacities(self.capacity_file)
            dc = load_traces(self.trace_file, capacities, self.step_minutes, name=self.name)
        # No ledger or total exceeds the roomiest host's earnings on every
        # host-step; twice that leaves room for rounding.
        if not math.isfinite(2 * reward_scale_for(dc, self.cost) * dc.num_steps() * len(dc.hosts)):
            raise ConfigError(f"{self.path}: cost.price_per_hour = {self.cost.price_per_hour!r} "
                              f"lets the trace's earnings overflow a float")
        return dc


# Sections read field by field from a dataclass: each field is one key,
# typed by its annotation, required when it has no default.
_DATACLASS_SECTIONS = {"synthetic": SyntheticConfig, "cost": CostModel, "ddpg": DdpgConfig}
_RUN_SETTINGS = ("train_fraction", "per_host_agents", "reward_attribution")  # on ScenarioConfig
_KEYS = {"host_cpu_cores": "cpu_cores", "host_ram_gb": "ram_gb"}  # field -> key
_DERIVED = {"seed", "step_minutes", "steps_per_day"}  # set from other keys
_PARSERS = {"int": "integer", "float": "number", "str": "text", "bool": "boolean"}


def _section_fields(section: str) -> list[tuple[str, Field]]:
    """(key, dataclass field) for each key of a dataclass-backed section."""
    found = [f for f in fields(_DATACLASS_SECTIONS[section]) if f.name not in _DERIVED]
    if section == "ddpg":
        found += [f for f in fields(ScenarioConfig) if f.name in _RUN_SETTINGS]
    return [(_KEYS.get(f.name, f.name), f) for f in found]


_SCHEMA = {
    "scenario": {"name", "seed", "output_dir"},
    "trace": {"source", "step_minutes", "trace_file", "capacity_file"},
    "strategies": {"cpu", "ram", "compare", "baseline"},
    **{section: {key for key, _ in _section_fields(section)}
       for section in _DATACLASS_SECTIONS},
}


def load_scenario(path: str | Path, output_override: str | Path | None = None,
                  ) -> ScenarioConfig:
    """Parse and validate a scenario file; every error names its field."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with path.open() as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")

    view = _View(parser, path)
    name = view.text("scenario", "name", default=path.stem)
    seed = view.integer("scenario", "seed", required=True)
    output_dir = Path(output_override) if output_override is not None else Path(
        view.text("scenario", "output_dir", default=f"out/{name}"))

    source = view.text("trace", "source", default="synthetic")
    if source not in ("synthetic", "csv"):
        raise ConfigError(f"{path}: trace.source must be 'synthetic' or 'csv', got {source!r}")
    step_minutes = view.integer("trace", "step_minutes", default=DEFAULT_STEP_MINUTES)
    if step_minutes <= 0 or MINUTES_PER_DAY % step_minutes != 0:
        raise ConfigError(f"{path}: trace.step_minutes must divide {MINUTES_PER_DAY}, "
                          f"got {step_minutes}")

    trace_file = capacity_file = None
    synthetic = None
    if source == "csv":
        if parser.has_section("synthetic"):
            raise ConfigError(f"{path}: [synthetic] section conflicts with trace.source = csv")
        trace_file = _resolve(path, view.text("trace", "trace_file", required=True))
        capacity_file = _resolve(path, view.text("trace", "capacity_file", required=True))
        for p, key in ((trace_file, "trace_file"), (capacity_file, "capacity_file")):
            if not p.is_file():
                raise ConfigError(f"{path}: trace.{key} does not exist: {p}")
    else:
        for key in ("trace_file", "capacity_file"):
            if parser.has_option("trace", key):
                raise ConfigError(
                    f"{path}: trace.{key} only applies when trace.source = csv")
        synthetic = _validated(path, "synthetic", SyntheticConfig(
            seed=subseed(seed, "trace"), step_minutes=step_minutes,
            **view.section("synthetic")))

    cost = _validated(path, "cost", CostModel(**view.section("cost")))

    bindings = {}
    for metric in (MetricKind.CPU, MetricKind.RAM):
        token = view.text("strategies", metric.value, default="releaser")
        bindings[metric] = _parse_spec(token, path, f"strategies.{metric.value}")
    compare_text = view.text("strategies", "compare", default=None)
    if compare_text is None:
        compare = []
        for spec in bindings.values():
            if spec.label not in [s.label for s in compare]:
                compare.append(spec)
    else:
        compare = [_parse_spec(tok, path, "strategies.compare")
                   for tok in compare_text.split(",") if tok.strip()]
        if not compare:
            raise ConfigError(f"{path}: strategies.compare is empty")
        labels = [s.label for s in compare]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"{path}: duplicate entries in strategies.compare: {labels}")
    unbound = [m for m, spec in bindings.items() if spec.kind != "releaser"]
    if unbound and any(spec.kind == "releaser" for spec in compare):
        metric = unbound[0].value
        raise ConfigError(
            f"{path}: strategies.compare includes releaser, but strategies.{metric} = "
            f"{bindings[unbound[0]].label}, so 'marginsim train' writes no {metric} "
            f"agent for it to evaluate")
    baseline = view.text("strategies", "baseline", default=None)
    if baseline is not None and baseline not in [s.label for s in compare]:
        raise ConfigError(
            f"{path}: strategies.baseline {baseline!r} is not in the compare list")

    ddpg_values = view.section("ddpg")
    run = {key: ddpg_values.pop(key) for key in _RUN_SETTINGS if key in ddpg_values}
    ddpg = _validated(path, "ddpg", DdpgConfig(steps_per_day=MINUTES_PER_DAY // step_minutes,
                                               **ddpg_values))
    scenario = ScenarioConfig(path, name, seed, output_dir, step_minutes,
                              trace_file, capacity_file, synthetic, cost, bindings,
                              compare, baseline, ddpg, **run)
    if not 0.0 < scenario.train_fraction < 1.0:
        raise ConfigError(f"{path}: ddpg.train_fraction must be in (0, 1), "
                          f"got {scenario.train_fraction}")
    if scenario.reward_attribution not in REWARD_ATTRIBUTIONS:
        raise ConfigError(
            f"{path}: ddpg.reward_attribution must be one of {REWARD_ATTRIBUTIONS}")
    return scenario


def _validated(path: Path, section: str, value):
    try:
        value.validate()
    except DomainError as exc:
        raise ConfigError(f"{path}: [{section}]: {exc}") from exc
    return value


class _View:
    """Typed, error-naming access to a parsed config."""

    def __init__(self, parser: configparser.ConfigParser, path: Path):
        self.parser = parser
        self.path = path

    def section(self, section: str) -> dict:
        """The keys present in a dataclass-backed section, as field values;
        absent keys are left to the dataclass defaults."""
        values = {}
        for key, f in _section_fields(section):
            required = f.default is MISSING and f.default_factory is MISSING
            if f.name == "discount_tiers":
                text = self.text(section, key)
                value = None if text is None else _parse_tiers(text, self.path)
            else:
                value = getattr(self, _PARSERS[f.type])(section, key, required)
            if value is not None:
                values[f.name] = value
        return values

    def _convert(self, section, key, required, default, convert, kind):
        if not self.parser.has_option(section, key):
            if required:
                raise ConfigError(f"{self.path}: missing required key {section}.{key}")
            return default
        raw = self.parser.get(section, key).strip()
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"{self.path}: {section}.{key} must be {kind}, "
                              f"got {raw!r}") from None

    def text(self, section, key, required=False, default=None):
        return self._convert(section, key, required, default, str, "text")

    def integer(self, section, key, required=False, default=None):
        return self._convert(section, key, required, default, int, "an integer")

    def number(self, section, key, required=False, default=None):
        return self._convert(section, key, required, default, _finite, "a finite number")

    def boolean(self, section, key, required=False, default=None):
        return self._convert(section, key, required, default, _boolean, "a boolean")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # nan, inf, -inf, or a literal past float's range
        raise ValueError(text)
    return value


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(text)


def _parse_spec(token: str, path: Path, where: str) -> StrategySpec:
    try:
        return StrategySpec.parse(token)
    except DomainError as exc:
        raise ConfigError(f"{path}: {where}: {exc}") from exc


def _parse_tiers(text: str, path: Path):
    """Parse 'upper:discount' pairs, e.g. '15:0,120:0.10,720:0.15,inf:0.30'.

    Lower bounds are implied by contiguity; the final upper bound must be
    'inf'.
    """
    tiers = []
    prev_upper = 0.0
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{path}: cost.discount_tiers is empty")
    for part in parts:
        upper_text, _, disc_text = part.partition(":")
        if not disc_text:
            raise ConfigError(
                f"{path}: cost.discount_tiers entry {part!r} must be upper:discount")
        try:
            upper = math.inf if upper_text.strip() == "inf" else float(upper_text)
            disc = float(disc_text)
        except ValueError:
            raise ConfigError(
                f"{path}: cost.discount_tiers entry {part!r} has a bad number") from None
        tiers.append((prev_upper, upper, disc))
        prev_upper = upper
    return tuple(tiers)


def _resolve(config_path: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else (config_path.parent / p)
