"""Model assembly over one parameter store, and checkpoint compatibility."""

import re
from pathlib import Path

import pytest

from pocketflow.chem import Vocabulary
from pocketflow.cli import EXIT_DATA, main
from pocketflow.model import Model, ModelConfig
from pocketflow.params import CheckpointError, ParamStore
from pocketflow.synthetic import toy_complex, toy_complex_pdb

COMMITTED_CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "gen_model.ckpt"


def test_committed_checkpoint_reloads_and_saves_byte_for_byte(tmp_path):
    model = Model.load(COMMITTED_CHECKPOINT)
    out = tmp_path / "again.ckpt"
    model.save(out)
    assert out.read_bytes() == COMMITTED_CHECKPOINT.read_bytes()


def test_store_of_other_sections_rejected():
    with pytest.raises(ValueError, match="does not match the model configuration"):
        Model(ModelConfig(), ParamStore({"w": (2,)}))


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_non_finite_vocabulary_radius_is_checkpoint_error(tmp_path, radius):
    path = tmp_path / "model.ckpt"
    Model(ModelConfig(encoder_layers=1, type_flow_layers=1, coord_flow_layers=1)).save(path)
    path.write_text(path.read_text().replace(",C:6:0.77:4,", f",C:6:{radius}:4,"))
    with pytest.raises(CheckpointError, match="C: covalent radius must be positive and finite"):
        Model.load(path)


def small_checkpoint_with(path, key, value):
    """A saved small model whose metadata line ``key`` reads ``value``; a key
    the model does not write is added after its metadata."""
    Model(ModelConfig(encoder_layers=1, type_flow_layers=1, coord_flow_layers=1)).save(path)
    line = f"meta {key}={value}"
    text, found = re.subn(rf"^meta {key}=.*$", line, path.read_text(), flags=re.M)
    if not found:
        text = re.sub(r"^section ", f"{line}\nsection ", text, count=1, flags=re.M)
    path.write_text(text)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["rbf_rmax", "graph_cutoff", "scale_floor"])
def test_non_finite_config_float_is_checkpoint_error(tmp_path, key, value):
    path = tmp_path / "model.ckpt"
    small_checkpoint_with(path, key, value)
    with pytest.raises(CheckpointError, match=f"{key} must be positive and finite"):
        Model.load(path)


@pytest.mark.parametrize("value", ["7", "-1", "01", "true", ""])
def test_boolean_metadata_other_than_0_or_1_is_checkpoint_error(tmp_path, value):
    path = tmp_path / "model.ckpt"
    small_checkpoint_with(path, "bfactor_gating", value)
    with pytest.raises(CheckpointError, match=f"bfactor_gating must be 0 or 1, not '{value}'"):
        Model.load(path)


@pytest.mark.parametrize("value", ["0", "1"])
def test_boolean_metadata_reads_0_and_1(tmp_path, value):
    path = tmp_path / "model.ckpt"
    small_checkpoint_with(path, "bfactor_gating", value)
    assert Model.load(path).cfg.bfactor_gating is (value == "1")


@pytest.mark.parametrize(
    "key, value", [("rbf_rmax", "inf"), ("bfactor_gating", "7"), ("coord_frame", "local")]
)
def test_generate_exits_with_data_error_on_invalid_metadata(tmp_path, capsys, key, value):
    checkpoint, pocket = tmp_path / "model.ckpt", tmp_path / "pocket.pdb"
    small_checkpoint_with(checkpoint, key, value)
    vocab = Vocabulary.default()
    pocket.write_text(toy_complex_pdb(toy_complex(vocab), vocab))
    argv = ["generate", str(checkpoint), str(pocket), "--out", str(tmp_path / "g")]
    assert main(argv) == EXIT_DATA
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key", ["vocab", "embed_width", "bfactor_gating"])
def test_missing_metadata_key_is_checkpoint_error(tmp_path, key):
    path = tmp_path / "model.ckpt"
    Model(ModelConfig(encoder_layers=1, type_flow_layers=1, coord_flow_layers=1)).save(path)
    lines = [line for line in path.read_text().splitlines() if not line.startswith(f"meta {key}=")]
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(CheckpointError, match=rf"incomplete model metadata \('{key}'\)"):
        Model.load(path)


@pytest.mark.parametrize("key", ["coord_frame", "embed"])
def test_unknown_metadata_key_is_checkpoint_error(tmp_path, key):
    path = tmp_path / "model.ckpt"
    small_checkpoint_with(path, key, "local")
    with pytest.raises(CheckpointError, match=f"unknown model metadata key '{key}'"):
        Model.load(path)


@pytest.mark.parametrize("value", ["6.0", "4.0"])
def test_repeated_metadata_key_is_checkpoint_error(tmp_path, value):
    """A second ``graph_cutoff`` line is an error whether or not it agrees
    with the first, rather than the last one silently winning."""
    path = tmp_path / "model.ckpt"
    Model(ModelConfig(encoder_layers=1, type_flow_layers=1, coord_flow_layers=1)).save(path)
    repeat = rf"\1\nmeta graph_cutoff={value}"
    path.write_text(re.sub(r"^(meta graph_cutoff=.*)$", repeat, path.read_text(), flags=re.M))
    with pytest.raises(CheckpointError, match=r"ckpt:\d+: repeated metadata key 'graph_cutoff'"):
        Model.load(path)
