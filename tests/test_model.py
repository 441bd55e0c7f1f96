"""Model assembly over one parameter store, and checkpoint compatibility."""

from pathlib import Path

import pytest

from pocketflow.model import Model, ModelConfig
from pocketflow.params import CheckpointError, ParamStore

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


@pytest.mark.parametrize("key", ["vocab", "embed_width", "bfactor_gating"])
def test_missing_metadata_key_is_checkpoint_error(tmp_path, key):
    path = tmp_path / "model.ckpt"
    Model(ModelConfig(encoder_layers=1, type_flow_layers=1, coord_flow_layers=1)).save(path)
    lines = [line for line in path.read_text().splitlines() if not line.startswith(f"meta {key}=")]
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(CheckpointError, match=rf"incomplete model metadata \('{key}'\)"):
        Model.load(path)
