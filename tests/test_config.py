"""Configuration file round trips and validation."""

import dataclasses

import pytest

from pocketflow.config import (
    ConfigError,
    RunConfig,
    dumps_config,
    parse_config,
    read_config,
)
from pocketflow.generator import GenConfig
from pocketflow.model import ModelConfig
from pocketflow.trainer import TrainConfig

FLOAT_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.type is float]


def non_default_config():
    return RunConfig(
        bond_tolerance=0.5,
        clash_factor=0.35,
        valence_table="elements.txt",
        rbf_centers=12,
        rbf_rmax=7.5,
        pocket_cutoff=9.0,
        embed_width=16,
        hidden_width=24,
        encoder_layers=3,
        graph_cutoff=5.0,
        bfactor_gating=True,
        type_flow_layers=4,
        coord_flow_layers=5,
        scale_floor=1e-5,
        max_atoms=12,
        valence_constrained=False,
        clash_retries=7,
        epochs=77,
        learning_rate=0.0025,
        batch_size=16,
        dequant_alpha=0.3,
        seed=42,
        contact_cutoff=4.5,
        weight_polar_polar=-0.11,
        weight_polar_apolar=-0.033,
        weight_apolar_apolar=-0.017,
        affinity_intercept=-1.5,
        temperature=310.0,
    )


class TestRoundTrip:
    def test_every_field_survives(self, tmp_path):
        cfg = non_default_config()
        path = tmp_path / "run.cfg"
        path.write_text(dumps_config(cfg))
        back = read_config(path)
        for field in dataclasses.fields(RunConfig):
            assert getattr(back, field.name) == getattr(cfg, field.name), field.name

    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert parse_config(dumps_config(cfg)) == cfg

    def test_sections_present(self):
        text = dumps_config(RunConfig())
        for section in ("chem", "geometry", "pdb", "encoder", "flows", "generator", "trainer", "evaluator"):
            assert f"[{section}]" in text


class TestParsing:
    @pytest.mark.parametrize(
        "text",
        [
            "[trainer]\nwarp_speed = 9\n",
            "[generator]\nfocal_rule = nearest_centroid\n",  # removed key
        ],
        ids=["warp_speed", "focal_rule"],
    )
    def test_unknown_key_rejected(self, text):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[warp]\n")

    def test_key_in_wrong_section_rejected(self):
        with pytest.raises(ConfigError, match="belongs to"):
            parse_config("[trainer]\ncontact_cutoff = 5.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[trainer]\nepochs = 5\nepochs = 6\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("[trainer]\nepochs = soon\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("[encoder]\nbfactor_gating = yes\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key, token):
        with pytest.raises(ConfigError, match=rf"run\.cfg:2: bad value for '{key}': .*not finite"):
            parse_config(f"# every float key\n{key} = {token}\n", source="run.cfg")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\n[trainer]\nepochs = 3  # inline\n")
        assert cfg.epochs == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_config(tmp_path / "none.cfg")


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clash_factor": 1.5},
            {"rbf_centers": 1},
            {"graph_cutoff": 0.0},
            {"encoder_layers": 0},
            {"dequant_alpha": 0.75},
            {"dequant_alpha": 0.0},
            {"max_atoms": 0},
            {"temperature": -1.0},
            {"learning_rate": -0.1},
            {"scale_floor": 0.0},
            {"bond_tolerance": -0.1},
            {"pocket_cutoff": 0},
            {"contact_cutoff": 0},
            {"clash_retries": -1},
            {"epochs": -1},
            {"batch_size": -1},
            {"hidden_width": 0},
            {"type_flow_layers": 0},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (ModelConfig, {"encoder_layers": 0}),
            (ModelConfig, {"rbf_centers": 1}),
            (ModelConfig, {"graph_cutoff": 0.0}),
            (ModelConfig, {"scale_floor": 0.0}),
            (GenConfig, {"clash_factor": 1.5}),
            (GenConfig, {"bond_tolerance": -0.1}),
            (GenConfig, {"clash_retries": -1}),
            (TrainConfig, {"epochs": -1}),
            (TrainConfig, {"batch_size": -1}),
            (GenConfig, {"bond_tolerance": float("nan")}),
            (GenConfig, {"bond_tolerance": float("inf")}),
            (TrainConfig, {"learning_rate": float("nan")}),
            (TrainConfig, {"learning_rate": float("inf")}),
        ],
    )
    def test_module_configs_reject_out_of_range(self, cls, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            cls(**kwargs)

    def test_derived_configs_materialize(self):
        cfg = RunConfig()
        assert cfg.model_config().embed_width == cfg.embed_width
        assert cfg.train_config().epochs == cfg.epochs
        assert cfg.gen_config().max_atoms == cfg.max_atoms
        assert cfg.affinity_model().temperature == cfg.temperature
        assert len(cfg.vocabulary()) == 10
