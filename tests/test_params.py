"""Flat parameter store, checkpoint container, numeric helpers."""

import math

import numpy as np
import pytest

from pocketflow.params import (
    CheckpointError,
    ParamStore,
    load_checkpoint,
    max_relative_error,
    save_checkpoint,
    softplus,
    softplus_inverse,
)


class TestParamStore:
    def test_sections_are_views_of_flat(self):
        store = ParamStore({"w": (2, 3), "scalar": (), "b": (4,)})
        assert store.size == 11
        store["w"][1, 2] = 7.0
        assert store.flat[5] == 7.0
        store.flat[6] = 3.0
        assert float(store["scalar"]) == 3.0

    def test_flat_rebinding_rejected(self):
        store = ParamStore({"w": (2,)})
        with pytest.raises(AttributeError):
            store.flat = np.zeros(2)
        store.flat -= 1.0  # in-place ops are fine
        assert np.array_equal(store.flat, [-1.0, -1.0])

    def test_contains_names_sections(self):
        store = ParamStore({"w": (2,), "b": ()})
        assert "w" in store and "b" in store
        assert "x" not in store and "w.0" not in store

    def test_zeros_like_and_copy(self):
        store = ParamStore({"w": (3,)})
        store["w"][...] = [1.0, 2.0, 3.0]
        zeros = store.zeros_like()
        assert zeros.shapes == store.shapes and zeros.flat.sum() == 0.0
        dup = store.copy()
        dup["w"][0] = 9.0
        assert store["w"][0] == 1.0


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        store = ParamStore({"a.w": (3, 2), "a.gate": (), "b": (5,)})
        rng = np.random.default_rng(0)
        store.flat[:] = rng.standard_normal(store.size) * 1e3
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, meta={"layers": "2", "note": "x=1"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"layers": "2", "note": "x=1"}
        assert loaded.shapes == store.shapes
        assert np.array_equal(loaded.flat, store.flat)  # bit-exact

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("something else\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ParamStore({"w": (2,)}))
        path.write_text(path.read_text().replace("checkpoint v1", "checkpoint v2"))
        with pytest.raises(CheckpointError, match="unsupported version 'v2'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, tmp_path, token):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ParamStore({"w": (2,)}))
        path.write_text(path.read_text().replace("0.0 0.0", f"0.0 {token}"))
        with pytest.raises(CheckpointError, match="non-finite parameter values"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "meta", [{"two words": "x"}, {"a=b": "x"}, {"line\nbreak": "x"}, {"key": "multi\nline"}]
    )
    def test_invalid_metadata_entry_rejected(self, tmp_path, meta):
        path = tmp_path / "model.ckpt"
        with pytest.raises(CheckpointError, match="invalid metadata entry"):
            save_checkpoint(path, ParamStore({"w": (2,)}), meta)
        assert not path.exists()

    def test_truncated_section(self, tmp_path):
        store = ParamStore({"w": (4,)})
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_malformed_value_names_file_and_section(self, tmp_path):
        store = ParamStore({"a": (2,), "w": (4,)})
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store)
        path.write_text(path.read_text().replace("0.0 0.0 0.0 0.0", "0.0 0.0 zero 0.0"))
        with pytest.raises(CheckpointError, match=r"model\.ckpt: section w"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", ["section foo", "section foo 2xq", "section foo -2"])
    def test_malformed_section_header_names_file_and_line(self, tmp_path, header):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ParamStore({"w": (2,)}))
        path.write_text(path.read_text() + header + "\n0.0 0.0\n")
        with pytest.raises(CheckpointError, match=r"model\.ckpt:4: malformed section header"):
            load_checkpoint(path)

    def test_repeated_section_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ParamStore({"w": (2,)}))
        path.write_text(path.read_text() + "section w 2\n1.0 2.0\n")
        with pytest.raises(CheckpointError, match=r"model\.ckpt:4: repeated section 'w'"):
            load_checkpoint(path)

    def test_zero_size_section_before_another(self, tmp_path):
        store = ParamStore({"a": (0, 5), "b": (2,)})
        assert store.size == 2 and store["a"].shape == (0, 5)
        store["b"][...] = [1.5, -2.0]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store)
        loaded, _ = load_checkpoint(path)
        assert loaded.shapes == store.shapes
        assert np.array_equal(loaded["b"], [1.5, -2.0])
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, loaded)
        assert again.read_bytes() == path.read_bytes()


class TestNumericHelpers:
    def test_max_relative_error_basic(self):
        assert max_relative_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        assert max_relative_error(np.array([1.0]), np.array([1.1])) == pytest.approx(
            0.1 / 1.1
        )

    def test_max_relative_error_ignores_joint_near_zeros(self):
        a = np.array([1e-12, 1.0])
        b = np.array([-1e-12, 1.0])
        assert max_relative_error(a, b) == 0.0

    @pytest.mark.parametrize("y", [1e-6, 0.5, 1.0, 3.0, 40.0])
    def test_softplus_inverse(self, y):
        assert softplus(softplus_inverse(y)) == pytest.approx(y, rel=1e-12)

    def test_softplus_matches_reference(self):
        x = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
        expected = np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)
        assert np.allclose(softplus(x), expected, rtol=1e-15)
        assert softplus_inverse(1.0) == pytest.approx(math.log(math.e - 1.0))
