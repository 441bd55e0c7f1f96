"""Run configuration: every tunable, a flat ``key = value`` file format with
one section per module, and strict validation (unknown keys rejected).

``_SECTIONS`` is the only list of keys.  Each key takes its type, default and
range check from the module dataclass that uses it (:class:`ModelConfig`,
:class:`TrainConfig`, :class:`GenConfig`, :class:`AffinityModel`); the few
keys that no dataclass owns take theirs from ``_UNOWNED``.
"""

from __future__ import annotations

import math
from dataclasses import field, fields, make_dataclass
from pathlib import Path

from .chem import Vocabulary
from .evaluator import DEFAULT_CONTACT_CUTOFF, AffinityModel
from .generator import GenConfig
from .model import ModelConfig
from .pdb import DEFAULT_POCKET_CUTOFF
from .trainer import TrainConfig


class ConfigError(ValueError):
    """Malformed configuration file or out-of-range value."""


_SECTIONS: dict[str, tuple[str, ...]] = {
    "chem": ("bond_tolerance", "clash_factor", "valence_table"),
    "geometry": ("rbf_centers", "rbf_rmax"),
    "pdb": ("pocket_cutoff",),
    "encoder": (
        "embed_width",
        "hidden_width",
        "encoder_layers",
        "graph_cutoff",
        "bfactor_gating",
    ),
    "flows": ("type_flow_layers", "coord_flow_layers", "scale_floor"),
    "generator": ("max_atoms", "valence_constrained", "clash_retries"),
    "trainer": ("epochs", "learning_rate", "batch_size", "dequant_alpha", "seed"),
    "evaluator": (
        "contact_cutoff",
        "weight_polar_polar",
        "weight_polar_apolar",
        "weight_apolar_apolar",
        "affinity_intercept",
        "temperature",
    ),
}

_FIELD_SECTION = {name: sec for sec, names in _SECTIONS.items() for name in names}

_UNOWNED = {
    "valence_table": "",  # path to a custom element table; empty = built-in
    "pocket_cutoff": DEFAULT_POCKET_CUTOFF,
    "contact_cutoff": DEFAULT_CONTACT_CUTOFF,
    "affinity_intercept": AffinityModel.intercept,
}


# every key's default, from the dataclass that owns it
_DEFAULTS = {
    f.name: f.default
    for cls in (ModelConfig, TrainConfig, GenConfig, AffinityModel)
    for f in fields(cls)
} | _UNOWNED


class _RunConfigMethods:
    """Validation and derived module configs of :data:`RunConfig`."""

    def __post_init__(self) -> None:
        for name in ("pocket_cutoff", "contact_cutoff"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        try:
            self.model_config(Vocabulary.default())
            self.train_config()
            self.gen_config()
            self.affinity_model()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    # -- derived module configs ------------------------------------------

    def vocabulary(self) -> Vocabulary:
        if self.valence_table:
            return Vocabulary.from_file(self.valence_table)
        return Vocabulary.default()

    def _derive(self, cls, **extra):
        """An instance of ``cls`` taking every field it shares with this config."""
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name in _FIELD_SECTION}
        return cls(**shared, **extra)

    def model_config(self, vocab: Vocabulary | None = None) -> ModelConfig:
        return self._derive(ModelConfig, vocab=vocab or self.vocabulary())

    def train_config(self) -> TrainConfig:
        return self._derive(TrainConfig)

    def gen_config(self) -> GenConfig:
        return self._derive(GenConfig)

    def affinity_model(self) -> AffinityModel:
        return self._derive(AffinityModel, intercept=self.affinity_intercept)


RunConfig = make_dataclass(
    "RunConfig",
    [(name, type(_DEFAULTS[name]), field(default=_DEFAULTS[name])) for name in _FIELD_SECTION],
    bases=(_RunConfigMethods,),
    namespace={
        "__module__": __name__,
        "__doc__": "Every tunable: one field per key of ``_SECTIONS``, in file order.",
    },
)


def dumps_config(cfg: RunConfig) -> str:
    """Serialize with round-trip-exact values, grouped by module section."""
    lines = []
    for section, names in _SECTIONS.items():
        lines.append(f"[{section}]")
        for name in names:
            value = getattr(cfg, name)
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{name} = {text}")
        lines.append("")
    return "\n".join(lines)


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    values: dict[str, object] = {}
    types = {f.name: f.type for f in fields(RunConfig)}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value_txt = (part.strip() for part in line.partition("="))
        if key not in _FIELD_SECTION:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if section is not None and _FIELD_SECTION[key] != section:
            raise ConfigError(
                f"{source}:{lineno}: key {key!r} belongs to [{_FIELD_SECTION[key]}]"
            )
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        kind = types[key]
        try:
            if kind is bool:
                if value_txt not in ("true", "false"):
                    raise ValueError("expected true or false")
                values[key] = value_txt == "true"
            elif kind is int:
                values[key] = int(value_txt)
            elif kind is float:
                values[key] = float(value_txt)
                if not math.isfinite(values[key]):
                    raise ValueError(f"{value_txt} is not finite")
            else:
                values[key] = value_txt
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def read_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text(), source=str(path))
