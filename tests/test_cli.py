"""End-to-end command-line pipeline: ingest, train, generate, evaluate."""

import hashlib
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
from pocketflow.config import RunConfig, dumps_config
from pocketflow.model import Model
from pocketflow.molio import molecule_to_records, write_xyz
from pocketflow.pdb import serialize_pdb
from pocketflow.synthetic import toy_complex, toy_complex_pdb, toy_dataset
from test_generator import random_pocket

VOCAB = Vocabulary.default()
REPO = Path(__file__).resolve().parents[1]

# SHA-256 of each file that `generate --count 5 --seed 3` writes with
# perfbench/gen_model.ckpt, pinned so that generation stays byte-identical
# across commits, not only across BLAS thread counts
GENERATED_SHA256 = {
    "toy": {
        "mol_000.pdb": "e070172241a200611231f5fffa65f0c4bea24ec462908386a79cb43dd21ea2ac",
        "mol_000.xyz": "eb2ef6df97fea919eec0baa1033026b86cc5974553f8ef7499faef28181c8051",
        "mol_001.pdb": "d9734bffbf143d54d81ae3bf86bd3fbe2eca6d796f4e54c8fae9d5b1bac1970e",
        "mol_001.xyz": "a5549337f73a18061f41ac0bbc0e12ff52824a24e930a7daed63afc83568dd06",
        "mol_002.pdb": "99f96f54b5ab7aa8598a7a52567d602863ab893bfa36e57c682024e845f1546b",
        "mol_002.xyz": "50b394a4e3f622102b8f8141c416fd2fd87629871dccfabc403f76ad5942e07c",
        "mol_003.pdb": "47eae4e23c3b334283f90fe4988659a59a3eaaca84d18a3fe473db657e7fb047",
        "mol_003.xyz": "a2f98490476e5beb290b10dfbe00a05c5bad624345c8c352e648f2dd330c6827",
        "mol_004.pdb": "293c3973c7698f6008b9672a4445c6ec8cfbc9ee1a7065063c7db86a3e4fff5f",
        "mol_004.xyz": "a5b5ab5059f63f9fcc6fb3b546324c01338057dfe5a8632b3c0a980ccd3625bd",
    },
    "random400": {
        "mol_000.pdb": "766316398e8e12d4ab2002d70a952b15ed9cf25d4ab865812cc1442632c4694b",
        "mol_000.xyz": "0868ccdb51e23dc21b3072a9ab4bbc7b8f23842718187e366da9e2e352080f0a",
        "mol_001.pdb": "5dd937c6b064980300ea09212a48098847b4bc4085713176c9889bb034c88b19",
        "mol_001.xyz": "9944d8167b90588f98a5d789040e6da3a567cec9c8ff4a410c8371f2c78ce713",
        "mol_002.pdb": "d6f5eab2bdb73f0295a06f42ac43e739b68ee8aea746cdb2df7c0b63275b00b4",
        "mol_002.xyz": "5affc70cc1f320a0e44a67fd64385dc545a92143ac3ac023eea2b5f503497413",
        "mol_003.pdb": "0962adc809a61503cab7d59ce081eee5d645226f44347adcc31814d4b7233e58",
        "mol_003.xyz": "d55970fcfd9edf193795dae80c99a7ad1aebb14cf3386ed644f2157a645004ff",
        "mol_004.pdb": "395d2176ee700c834c5815c6c243cb37f1d0b90c5aad30b405b2674c1ee45ddf",
        "mol_004.xyz": "e88212418ea131436abbfb5f032149ac04d151491237a815bf70f20f0259303d",
    },
}


def run_cli(argv, **env):
    """Run ``python -m pocketflow.cli`` in a subprocess with ``env`` added."""
    src = str(Path(pocketflow.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        **env,
    }
    env.pop("POCKETFLOW_CONFIG", None)
    return subprocess.run(
        [sys.executable, "-m", "pocketflow.cli", *argv], env=env, capture_output=True, text=True
    )


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
    cfg_path.write_text(dumps_config(cfg))
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

    def test_negative_bfactor_entry_fails(self, workspace, capsys):
        """A pocket atom with a negative B-factor fails its entry at ingest,
        rather than an archive that ``train`` then rejects."""
        tmp_path, manifest, cfg_path = workspace
        entry_id, path, ligand = manifest.read_text().splitlines()[0].split("\t")
        text = Path(path).read_text()
        assert text[60:66] == " 12.00"  # the first pocket atom's B-factor column
        Path(path).write_text(text[:60] + " -5.00" + text[66:])
        manifest.write_text(f"{entry_id}\t{path}\t{ligand}\n")
        archive = tmp_path / "x.json"
        assert main(["ingest", str(manifest), "--out", str(archive), "--config", str(cfg_path)]) == EXIT_DATA
        assert f"{entry_id}\tfailed: B-factor -5.0 is not finite" in capsys.readouterr().out
        assert not archive.exists()

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
        cfg_path.write_text(dumps_config(cfg))
        archive, ckpt = run_pipeline(tmp_path, manifest, cfg_path)
        assert ckpt.exists()
        assert (tmp_path / "model.ckpt.log").read_text() == ""

    def test_divergence_exits_numeric_with_partial_log(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        cfg = RunConfig(epochs=500, learning_rate=5.0, rbf_centers=6, embed_width=6,
                        hidden_width=6, encoder_layers=1, type_flow_layers=2,
                        coord_flow_layers=2)
        cfg_path.write_text(dumps_config(cfg))
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

    def test_negative_seed_is_usage_error(self, workspace, capsys):
        """A negative ``--seed`` is a usage error naming the seed; a negative
        config seed is a config error naming it."""
        tmp_path, _, cfg_path = workspace
        pocket_pdb = next((tmp_path / "pdb").glob("*.pdb"))
        out_dir = tmp_path / "gen"
        argv = ["generate", str(tmp_path / "none.ckpt"), str(pocket_pdb), "--out", str(out_dir)]
        assert main(argv + ["--seed", "-1", "--config", str(cfg_path)]) == EXIT_USAGE
        assert "seed must be >= 0" in capsys.readouterr().err
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text(cfg_path.read_text().replace("seed = 3", "seed = -5"))
        assert bad_cfg.read_text() != cfg_path.read_text()
        assert main(argv + ["--config", str(bad_cfg)]) == EXIT_DATA
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_checkpoint(self, workspace):
        tmp_path, manifest, cfg_path = workspace
        pocket_pdb = next((tmp_path / "pdb").glob("*.pdb"))
        code = main(
            ["generate", str(tmp_path / "none.ckpt"), str(pocket_pdb),
             "--out", str(tmp_path / "g")]
        )
        assert code == EXIT_DATA


    @pytest.mark.parametrize("pocket_name", ["toy", "random400"])
    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path, pocket_name):
        pocket = toy_complex(VOCAB).pocket if pocket_name == "toy" else random_pocket()
        pocket_pdb = tmp_path / "pocket.pdb"
        pocket_pdb.write_text(serialize_pdb(molecule_to_records(pocket, VOCAB, "ALA")))
        outputs = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"threads{threads}"
            proc = run_cli(
                ["generate", str(REPO / "perfbench" / "gen_model.ckpt"), str(pocket_pdb),
                 "--count", "5", "--seed", "3", "--out", str(out_dir)],
                OPENBLAS_NUM_THREADS=threads,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert len(outputs[0]) == 10
        assert outputs[0] == outputs[1]
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs[0].items()}
        assert digests == GENERATED_SHA256[pocket_name]


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
        proc = run_cli(argv)
        assert proc.returncode == EXIT_DATA, proc.stderr
        assert "Traceback" not in proc.stderr
