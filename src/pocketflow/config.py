"""Run configuration: every tunable, a flat ``key = value`` file format with
one section per module, and strict validation (unknown keys rejected)."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .chem import Vocabulary
from .evaluator import AffinityModel
from .generator import FOCAL_RULES, GenConfig
from .model import ModelConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    """Malformed configuration file or out-of-range value."""


@dataclass
class RunConfig:
    # chem
    bond_tolerance: float = 0.45
    clash_factor: float = 0.4
    valence_table: str = ""  # path to a custom element table; empty = built-in
    # geometry
    rbf_centers: int = 16
    rbf_rmax: float = 8.0
    # pdb
    pocket_cutoff: float = 10.0
    # encoder
    embed_width: int = 32
    hidden_width: int = 64
    encoder_layers: int = 2
    graph_cutoff: float = 6.0
    bfactor_gating: bool = False
    # flows
    type_flow_layers: int = 6
    coord_flow_layers: int = 6
    scale_floor: float = 1e-4
    # generator
    max_atoms: int = 24
    valence_constrained: bool = True
    clash_retries: int = 10
    focal_rule: str = "nearest_centroid"
    # trainer
    epochs: int = 200
    learning_rate: float = 0.001
    batch_size: int = 0
    dequant_alpha: float = 0.25
    seed: int = 0
    # evaluator
    contact_cutoff: float = 5.5
    weight_polar_polar: float = -0.09
    weight_polar_apolar: float = -0.04
    weight_apolar_apolar: float = -0.02
    affinity_intercept: float = -2.0
    temperature: float = 298.15

    def __post_init__(self) -> None:
        checks = [
            (self.bond_tolerance >= 0, "bond_tolerance must be >= 0"),
            (0 < self.clash_factor < 1, "clash_factor must lie in (0, 1)"),
            (self.rbf_centers >= 2, "rbf_centers must be >= 2"),
            (self.rbf_rmax > 0, "rbf_rmax must be positive"),
            (self.pocket_cutoff > 0, "pocket_cutoff must be positive"),
            (self.embed_width >= 1, "embed_width must be >= 1"),
            (self.hidden_width >= 1, "hidden_width must be >= 1"),
            (self.encoder_layers >= 1, "encoder_layers must be >= 1"),
            (self.graph_cutoff > 0, "graph_cutoff must be positive"),
            (self.type_flow_layers >= 1, "type_flow_layers must be >= 1"),
            (self.coord_flow_layers >= 1, "coord_flow_layers must be >= 1"),
            (self.scale_floor > 0, "scale_floor must be positive"),
            (self.max_atoms >= 1, "max_atoms must be >= 1"),
            (self.focal_rule in FOCAL_RULES, "unknown focal_rule"),
            (self.clash_retries >= 0, "clash_retries must be >= 0"),
            (self.epochs >= 0, "epochs must be >= 0"),
            (self.learning_rate >= 0, "learning_rate must be >= 0"),
            (self.batch_size >= 0, "batch_size must be >= 0"),
            (0 < self.dequant_alpha <= 0.5, "dequant_alpha must lie in (0, 0.5]"),
            (self.contact_cutoff > 0, "contact_cutoff must be positive"),
            (self.temperature > 0, "temperature must be positive"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    # -- derived module configs ------------------------------------------

    def vocabulary(self) -> Vocabulary:
        if self.valence_table:
            return Vocabulary.from_file(self.valence_table)
        return Vocabulary.default()

    def _derive(self, cls, **extra):
        """An instance of ``cls`` taking every field it shares with this config."""
        mine = {f.name for f in fields(self)}
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name in mine}
        return cls(**shared, **extra)

    def model_config(self, vocab: Vocabulary | None = None) -> ModelConfig:
        return self._derive(ModelConfig, vocab=vocab or self.vocabulary())

    def train_config(self) -> TrainConfig:
        return self._derive(TrainConfig)

    def gen_config(self) -> GenConfig:
        return self._derive(GenConfig)

    def affinity_model(self) -> AffinityModel:
        return self._derive(AffinityModel, intercept=self.affinity_intercept)


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
    "generator": ("max_atoms", "valence_constrained", "clash_retries", "focal_rule"),
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


def _field_types() -> dict[str, type]:
    defaults = RunConfig()
    return {f.name: type(getattr(defaults, f.name)) for f in fields(RunConfig)}


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
    types = _field_types()
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
            else:
                values[key] = value_txt
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def write_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(dumps_config(cfg))


def read_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text(), source=str(path))
