"""Exit-code contract of the input readers: whatever lines they are fed, only
the errors that the CLI maps to exit code 2 (``cli._DATA_ERRORS``) escape."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pocketflow.chem import Vocabulary
from pocketflow.cli import _DATA_ERRORS
from pocketflow.config import RunConfig, dumps_config, parse_config
from pocketflow.dataset import load_dataset, save_dataset
from pocketflow.molio import read_xyz
from pocketflow.params import CheckpointError, ParamStore, load_checkpoint, save_checkpoint
from pocketflow.pdb import parse_pdb, pocket_from_records
from pocketflow.synthetic import toy_complex

VOCAB = Vocabulary.default()
BUDGET = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

NUMBERS = ["0", "1", "-3", "2.5", "-0.0", "1e999", "-1e999", "nan", "inf", "0x10", "1_0", "9" * 40]
TOKENS = NUMBERS + ["C", "N", "O", "S", "H", "Xx", "c", "", " ", "\t", "#", "=", "\x00", "é"]


def token_lines(tokens):
    """Lines joined from plausible tokens, or arbitrary text."""
    line = st.one_of(
        st.lists(st.sampled_from(tokens), max_size=8).map(" ".join),
        st.text(max_size=40),
    )
    return st.lists(line, max_size=12)


def accepts_only_declared_errors(read, arg):
    try:
        read(arg)
    except _DATA_ERRORS:
        pass


@BUDGET
@given(token_lines(TOKENS))
def test_read_xyz_raises_only_declared_errors(lines):
    accepts_only_declared_errors(lambda ls: read_xyz("\n".join(ls), VOCAB), lines)


PDB_TEMPLATE = (
    "ATOM      1  CA  ALA A   1      11.104  13.207   2.100  1.00 20.00           C  "
)


@st.composite
def pdb_lines(draw):
    """ATOM/HETATM/MODEL lines with random column spans overwritten."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kinds = [PDB_TEMPLATE, "HETATM" + PDB_TEMPLATE[6:], "MODEL     1", "ENDMDL"]
        line = draw(st.sampled_from(kinds))
        for _ in range(draw(st.integers(0, 3))):
            start = draw(st.integers(0, len(line)))
            stop = draw(st.integers(start, len(line)))
            patch = draw(st.one_of(st.sampled_from(TOKENS), st.text(max_size=6)))
            line = line[:start] + patch + line[stop:]
        lines.append(line)
    return lines


@BUDGET
@given(pdb_lines())
def test_parse_pdb_then_pocket_raises_only_declared_errors(lines):
    def read(ls):
        pocket_from_records(parse_pdb("\n".join(ls), VOCAB), VOCAB)

    accepts_only_declared_errors(read, lines)


@pytest.fixture()
def checkpoint_lines(tmp_path):
    store = ParamStore({"w": (2, 3), "s": (), "b": (10,)})
    store.flat[:] = np.linspace(-1.0, 1.0, store.size)
    path = tmp_path / "seed.ckpt"
    save_checkpoint(path, store, {"kind": "test"})
    return path.read_text().splitlines()


HEADER_TOKENS = ["section", "w", "b", "scalar", "2x3", "0x5", "10", "-2", "1000000x1000000", "meta"]


@BUDGET
@given(data=st.data())
def test_load_checkpoint_raises_only_declared_errors(tmp_path, checkpoint_lines, data):
    lines = list(checkpoint_lines)
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, len(lines)))
        edit = data.draw(st.sampled_from(["drop", "insert", "replace"]))
        line = st.lists(st.sampled_from(TOKENS + HEADER_TOKENS), max_size=6).map(" ".join)
        new = data.draw(st.one_of(line, st.text(max_size=30)))
        if edit == "insert" or i == len(lines):
            lines.insert(i, new)
        elif edit == "drop":
            del lines[i]
        else:
            lines[i] = new
    path = tmp_path / "fuzzed.ckpt"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
    accepts_only_declared_errors(load_checkpoint, path)


def test_huge_declared_section_is_rejected_before_allocation(tmp_path, checkpoint_lines):
    lines = [
        "section huge 1000000x1000000000" if line.startswith("section b ") else line
        for line in checkpoint_lines
    ]
    path = tmp_path / "huge.ckpt"
    path.write_text("\n".join(lines))
    with pytest.raises(CheckpointError, match="huge has 10 values, expected 1000000000000000"):
        load_checkpoint(path)


CONFIG_TOKENS = TOKENS + ["true", "false", "[chem]", "[nope]", "max_atoms", "seed", "="]


@BUDGET
@given(data=st.data())
def test_parse_config_then_derived_configs_raise_only_declared_errors(data):
    lines = dumps_config(RunConfig()).splitlines()
    token = st.one_of(st.sampled_from(CONFIG_TOKENS), st.text(max_size=10))
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, len(lines)))
        edit = data.draw(st.sampled_from(["value", "drop", "insert"]))
        if edit == "value" and i < len(lines) and "=" in lines[i]:
            lines[i] = lines[i].partition("=")[0] + "= " + data.draw(token)
        elif edit == "drop" and i < len(lines):
            del lines[i]
        else:
            lines.insert(i, " ".join(data.draw(st.lists(token, max_size=4))))

    def read(text):
        cfg = parse_config(text)
        cfg.model_config(cfg.vocabulary())
        cfg.train_config()
        cfg.gen_config()
        cfg.affinity_model()

    accepts_only_declared_errors(read, "\n".join(lines))


@pytest.fixture()
def dataset_payload(tmp_path):
    path = tmp_path / "seed.json"
    save_dataset([toy_complex(VOCAB)], VOCAB, path)
    return json.loads(path.read_text())


def json_nodes(node, path=()):
    """The path (keys and indices from the root) of every node."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from json_nodes(child, (*path, key))


JSON_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "C", "Xx", "pocketflow-dataset", 10**400, -(10**400)]),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(-2, 5), st.floats(), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@BUDGET
@given(data=st.data())
def test_load_dataset_raises_only_declared_errors(tmp_path, dataset_payload, data):
    payload = json.loads(json.dumps(dataset_payload))
    for _ in range(data.draw(st.integers(1, 4))):
        path = data.draw(st.sampled_from(list(json_nodes(payload))))
        junk = data.draw(JSON_JUNK)
        if not path:
            payload = junk
            continue
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = junk
    archive = tmp_path / "fuzzed.json"
    archive.write_text(json.dumps(payload))
    accepts_only_declared_errors(lambda p: load_dataset(p, VOCAB), archive)
