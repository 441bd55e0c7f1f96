"""End-to-end command-line pipeline: ingest, train, generate, evaluate."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pocketflow
from pocketflow.chem import Vocabulary
from pocketflow.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from pocketflow.config import RunConfig, write_config
from pocketflow.model import Model
from pocketflow.molio import write_xyz
from pocketflow.synthetic import toy_complex, toy_complex_pdb, toy_dataset

VOCAB = Vocabulary.default()


@pytest.fixture()
def workspace(tmp_path):
    """Manifest with two toy complexes plus a small-model config file."""
    pdb_dir = tmp_path / "pdb"
    pdb_dir.mkdir()
    entries = toy_dataset(VOCAB, n_copies=2, noise=0.05, seed=5)
    lines = []
    for entry in entries:
        path = pdb_dir / f"{entry.entry_id}.pdb"
        path.write_text(toy_complex_pdb(entry, VOCAB))
        lines.append(f"{entry.entry_id}\t{path}\tLIG")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("".join(line + "\n" for line in lines))

    cfg = RunConfig(
        rbf_centers=6,
        embed_width=6,
        hidden_width=6,
        encoder_layers=1,
        type_flow_layers=2,
        coord_flow_layers=2,
        epochs=8,
        max_atoms=3,
        seed=3,
    )
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg, cfg_path)
    return tmp_path, manifest, cfg_path


def run_pipeline(tmp_path, manifest, cfg_path, seed=None):
    archive = tmp_path / "data.json"
    ckpt = tmp_path / "model.ckpt"
    seed_args = ["--seed", str(seed)] if seed is not None else []
    assert main(["ingest", str(manifest), "--out", str(archive), "--config", str(cfg_path)]) == EXIT_OK
    assert (
        main(["train", str(archive), "--out", str(ckpt), "--config", str(cfg_path)] + seed_args)
        == EXIT_OK
    )
    return archive, ckpt


class TestIngest:
    def test_writes_archive(self, workspace, capsys):
        tmp_path, manifest, cfg_path = workspace
        archive = tmp_path / "data.json"
        assert main(["ingest", str(manifest), "--out", str(archive), "--config", str(cfg_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("\tok\t") == 2
        assert archive.exists()

    def test_creates_missing_output_directory(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        archive = tmp_path / "new" / "dir" / "data.json"
        assert main(["ingest", str(manifest), "--out", str(archive), "--config", str(cfg_path)]) == EXIT_OK
        assert len(json.loads(archive.read_text())["entries"]) == 2
        assert list(archive.parent.iterdir()) == [archive]  # no .tmp left behind

    def test_bad_path_is_warned_and_skipped(self, workspace, capsys):
        tmp_path, manifest, cfg_path = workspace
        manifest.write_text(manifest.read_text() + "broken\t/nope/missing.pdb\tLIG\n")
        archive = tmp_path / "data.json"
        assert main(["ingest", str(manifest), "--out", str(archive), "--config", str(cfg_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "broken\tfailed" in out
        payload = json.loads(archive.read_text())
        assert len(payload["entries"]) == 2

    def test_chem_thresholds_apply(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        loose = tmp_path / "loose.cfg"
        loose.write_text(cfg_path.read_text().replace("bond_tolerance = 0.45", "bond_tolerance = 1.5"))
        for cfg, n_bonds in ((cfg_path, 2), (loose, 3)):  # 1.5 A also bonds the C-C-O ends
            archive = tmp_path / f"{cfg.stem}.json"
            assert main(["ingest", str(manifest), "--out", str(archive), "--config", str(cfg)]) == EXIT_OK
            entries = json.loads(archive.read_text())["entries"]
            assert [len(e["ligand"]["bonds"]) for e in entries] == [n_bonds, n_bonds]

    def test_empty_manifest_fails(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        manifest.write_text("")
        assert main(["ingest", str(manifest), "--out", str(tmp_path / "x.json")]) == EXIT_DATA

    def test_all_entries_failing_fails(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        manifest.write_text("a\t/nope/1.pdb\tLIG\nb\t/nope/2.pdb\tLIG\n")
        assert main(["ingest", str(manifest), "--out", str(tmp_path / "x.json")]) == EXIT_DATA


class TestTrain:
    def test_checkpoint_and_log(self, workspace, capsys):
        tmp_path, manifest, cfg_path = workspace
        archive, ckpt = run_pipeline(tmp_path, manifest, cfg_path)
        assert ckpt.exists()
        log = (tmp_path / "model.ckpt.log").read_text().splitlines()
        assert len(log) == 8
        assert log[0].split("\t")[0] == "1"
        assert "final_nll" in capsys.readouterr().out

    def test_same_seed_byte_identical_outputs(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            d.mkdir()
        archive = tmp_path / "data.json"
        assert main(["ingest", str(manifest), "--out", str(archive), "--config", str(cfg_path)]) == EXIT_OK
        for d in (a_dir, b_dir):
            assert (
                main(
                    ["train", str(archive), "--out", str(d / "m.ckpt"),
                     "--config", str(cfg_path), "--seed", "9"]
                )
                == EXIT_OK
            )
        assert (a_dir / "m.ckpt").read_bytes() == (b_dir / "m.ckpt").read_bytes()
        assert (a_dir / "m.ckpt.log").read_bytes() == (b_dir / "m.ckpt.log").read_bytes()

    def test_zero_epochs_initial_checkpoint_empty_history(self, workspace, tmp_path_factory):
        tmp_path, manifest, cfg_path = workspace
        cfg = RunConfig(epochs=0, rbf_centers=6, embed_width=6, hidden_width=6,
                        encoder_layers=1, type_flow_layers=2, coord_flow_layers=2)
        write_config(cfg, cfg_path)
        archive, ckpt = run_pipeline(tmp_path, manifest, cfg_path)
        assert ckpt.exists()
        assert (tmp_path / "model.ckpt.log").read_text() == ""

    def test_divergence_exits_numeric_with_partial_log(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        cfg = RunConfig(epochs=500, learning_rate=5.0, rbf_centers=6, embed_width=6,
                        hidden_width=6, encoder_layers=1, type_flow_layers=2,
                        coord_flow_layers=2)
        write_config(cfg, cfg_path)
        archive = tmp_path / "data.json"
        assert main(["ingest", str(manifest), "--out", str(archive), "--config", str(cfg_path)]) == EXIT_OK
        code = main(["train", str(archive), "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg_path)])
        assert code == EXIT_NUMERIC
        assert (tmp_path / "m.ckpt.log").read_text() != ""
        assert not (tmp_path / "m.ckpt").exists()

    def test_missing_dataset(self, workspace):
        tmp_path, _, cfg_path = workspace
        code = main(["train", str(tmp_path / "none.json"), "--out", str(tmp_path / "m.ckpt")])
        assert code == EXIT_DATA

    def test_archive_without_entries_is_data_error(self, workspace, capsys):
        tmp_path, _, cfg_path = workspace
        archive = tmp_path / "data.json"
        archive.write_text('{"format": "pocketflow-dataset", "version": 1}')
        code = main(["train", str(archive), "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg_path)])
        assert code == EXIT_DATA
        assert "entries" in capsys.readouterr().err


class TestGenerate:
    def test_writes_requested_count(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        _, ckpt = run_pipeline(tmp_path, manifest, cfg_path)
        pocket_pdb = next((tmp_path / "pdb").glob("*.pdb"))
        out_dir = tmp_path / "gen"
        code = main(
            ["generate", str(ckpt), str(pocket_pdb), "--count", "5",
             "--out", str(out_dir), "--config", str(cfg_path), "--seed", "4"]
        )
        assert code == EXIT_OK
        assert len(list(out_dir.glob("*.xyz"))) == 5
        assert len(list(out_dir.glob("*.pdb"))) == 5

    def test_same_seed_identical_files(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        _, ckpt = run_pipeline(tmp_path, manifest, cfg_path)
        pocket_pdb = next((tmp_path / "pdb").glob("*.pdb"))
        outputs = []
        for name in ("g1", "g2"):
            out_dir = tmp_path / name
            assert (
                main(
                    ["generate", str(ckpt), str(pocket_pdb), "--count", "3",
                     "--out", str(out_dir), "--config", str(cfg_path), "--seed", "21"]
                )
                == EXIT_OK
            )
            outputs.append(
                b"".join(p.read_bytes() for p in sorted(out_dir.glob("*")))
            )
        assert outputs[0] == outputs[1]

    def test_negative_count_is_usage_error(self, workspace, capsys):
        tmp_path, manifest, cfg_path = workspace
        _, ckpt = run_pipeline(tmp_path, manifest, cfg_path)
        pocket_pdb = next((tmp_path / "pdb").glob("*.pdb"))
        out_dir = tmp_path / "gen"
        code = main(
            ["generate", str(ckpt), str(pocket_pdb), "--count", "-3",
             "--out", str(out_dir), "--config", str(cfg_path)]
        )
        assert code == EXIT_USAGE
        assert "count" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_checkpoint(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        pocket_pdb = next((tmp_path / "pdb").glob("*.pdb"))
        code = main(
            ["generate", str(tmp_path / "none.ckpt"), str(pocket_pdb),
             "--out", str(tmp_path / "g")]
        )
        assert code == EXIT_DATA


class TestEvaluate:
    def test_reference_only_dir(self, workspace, capsys):
        tmp_path, manifest, cfg_path = workspace
        entry = toy_complex(VOCAB)
        mol_dir = tmp_path / "mols"
        mol_dir.mkdir()
        ref_path = tmp_path / "ref.xyz"
        ref_path.write_text(write_xyz(entry.ligand, VOCAB))
        (mol_dir / "mol_000.xyz").write_text(write_xyz(entry.ligand, VOCAB))
        pocket_pdb = next((tmp_path / "pdb").glob("*.pdb"))
        report_path = tmp_path / "report.tsv"
        code = main(
            ["evaluate", str(mol_dir), str(pocket_pdb), "--reference", str(ref_path),
             "--out", str(report_path), "--config", str(cfg_path)]
        )
        assert code == EXIT_OK
        lines = report_path.read_text().splitlines()
        row = lines[1].split("\t")
        assert row[2] == "1"  # valid
        assert float(row[3]) == 0.0  # rmsd against itself
        assert "validity\t1.0" in capsys.readouterr().out

    def test_mixed_set_fraction_matches_hand_count(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        entry = toy_complex(VOCAB)
        mol_dir = tmp_path / "mols"
        mol_dir.mkdir()
        # two valid copies, one clashing pair, one lone-but-valid atom: 3/4 valid
        (mol_dir / "a.xyz").write_text(write_xyz(entry.ligand, VOCAB))
        (mol_dir / "b.xyz").write_text(write_xyz(entry.ligand, VOCAB))
        (mol_dir / "c.xyz").write_text("2\nclash\nC 0 0 0\nC 0.2 0 0\n")
        (mol_dir / "d.xyz").write_text("1\nlone atom\nO 9 9 9\n")
        pocket_pdb = next((tmp_path / "pdb").glob("*.pdb"))
        report_path = tmp_path / "report.json"
        code = main(
            ["evaluate", str(mol_dir), str(pocket_pdb), "--format", "json",
             "--out", str(report_path), "--config", str(cfg_path)]
        )
        assert code == EXIT_OK
        payload = json.loads(report_path.read_text())
        assert payload["aggregate"]["validity_fraction"] == 0.75

    def test_chem_thresholds_apply(self, workspace, capsys):
        tmp_path, manifest, cfg_path = workspace
        mol_dir = tmp_path / "mols"
        mol_dir.mkdir()
        (mol_dir / "a.xyz").write_text("2\nC-C at 0.7 A\nC 0 0 0\nC 0.7 0 0\n")
        pocket_pdb = next((tmp_path / "pdb").glob("*.pdb"))
        strict = tmp_path / "strict.cfg"
        strict.write_text("[chem]\nclash_factor = 0.6\n")  # 0.7 < 0.6 * 1.54 A
        for cfg, validity in ((cfg_path, "1.0"), (strict, "0.0")):
            argv = ["evaluate", str(mol_dir), str(pocket_pdb), "--out", str(tmp_path / "r.tsv")]
            assert main(argv + ["--config", str(cfg)]) == EXIT_OK
            assert f"validity\t{validity}\t" in capsys.readouterr().out

    def test_affinity_overflow_exits_numeric(self, workspace, capsys):
        tmp_path, manifest, cfg_path = workspace
        mol_dir = tmp_path / "mols"
        mol_dir.mkdir()
        (mol_dir / "a.xyz").write_text(write_xyz(toy_complex(VOCAB).ligand, VOCAB))
        pocket_pdb = next((tmp_path / "pdb").glob("*.pdb"))
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("[evaluator]\naffinity_intercept = 1e9\n")
        code = main(["evaluate", str(mol_dir), str(pocket_pdb), "--out", str(tmp_path / "r.tsv"),
                     "--config", str(cfg)])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: ")
        assert not (tmp_path / "r.tsv").exists()

    def test_empty_dir_fails(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        mol_dir = tmp_path / "empty"
        mol_dir.mkdir()
        pocket_pdb = next((tmp_path / "pdb").glob("*.pdb"))
        code = main(["evaluate", str(mol_dir), str(pocket_pdb), "--out", str(tmp_path / "r.tsv")])
        assert code == EXIT_DATA


class TestUsageAndConfig:
    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self, workspace):
        _, manifest, _ = workspace
        assert main(["ingest", str(manifest)]) == EXIT_USAGE

    def test_env_var_config_fallback(self, workspace, monkeypatch, capsys):
        tmp_path, manifest, cfg_path = workspace
        monkeypatch.setenv("POCKETFLOW_CONFIG", str(cfg_path))
        archive = tmp_path / "data.json"
        assert main(["ingest", str(manifest), "--out", str(archive)]) == EXIT_OK
        assert archive.exists()

    def test_broken_config_is_data_error(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        cfg_path.write_text("[nope]\nbad = 1\n")
        assert main(["ingest", str(manifest), "--out", str(tmp_path / "x.json"),
                     "--config", str(cfg_path)]) == EXIT_DATA

    @pytest.mark.parametrize("case", ["checkpoint", "pocket", "dataset", "config"])
    def test_directory_path_is_data_error(self, workspace, case):
        tmp_path, manifest, cfg_path = workspace
        pdb_dir = tmp_path / "pdb"
        pocket_pdb = next(pdb_dir.glob("*.pdb"))
        ckpt = tmp_path / "model.ckpt"
        Model.initialized(RunConfig().model_config(VOCAB), np.random.default_rng(0)).save(ckpt)
        argv = {
            "checkpoint": ["generate", str(pdb_dir), str(pocket_pdb), "--out", str(tmp_path / "g")],
            "pocket": ["generate", str(ckpt), str(pdb_dir), "--out", str(tmp_path / "g")],
            "dataset": ["train", str(pdb_dir), "--out", str(tmp_path / "m.ckpt")],
            "config": ["ingest", str(manifest), "--out", str(tmp_path / "x.json"),
                       "--config", str(pdb_dir)],
        }[case]
        src = str(Path(pocketflow.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        env.pop("POCKETFLOW_CONFIG", None)
        proc = subprocess.run(
            [sys.executable, "-m", "pocketflow.cli", *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == EXIT_DATA, proc.stderr
        assert "Traceback" not in proc.stderr
