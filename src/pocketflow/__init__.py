"""Pocket-conditioned autoregressive normalizing flows for 3D ligand generation.

The package trains a conditional flow over a message-passing encoding of a
protein binding pocket, grows ligands atom by atom (element + coordinate),
and scores the results for chemical validity, similarity, and a contact-based
binding-affinity estimate.
"""

from .chem import (
    Atom,
    ClashError,
    ElementKind,
    Molecule,
    Pocket,
    ValidityReport,
    Vocabulary,
    VocabularyError,
    check_validity,
    infer_bonds,
    open_valence,
)
from .config import ConfigError, RunConfig, read_config
from .encoder import ContextGraph, Encoder, EncoderConfig, aggregate_readout, build_graph
from .evaluator import (
    AffinityModel,
    ContactCounts,
    EvalReport,
    count_contacts,
    dg_to_kd,
    evaluate_set,
    predict_dg,
)
from .flows import FlowStack, base_log_prob
from .generator import GenConfig, GenerationState, generate_ligand, select_focal, step
from .geometry import (
    RbfBank,
    RigidTransform,
    apply_rigid,
    rbf_expand,
    rmsd,
)
from .model import Model, ModelConfig
from .params import ParamStore, load_checkpoint, save_checkpoint
from .pdb import (
    ComplexEntry,
    StructureRecord,
    normalize_bfactors,
    parse_pdb,
    serialize_pdb,
    split_pocket_ligand,
)
from .trainer import TrainConfig, TrajectoryStep, grad, nll_loss, sequentialize, train

__version__ = "0.1.0"
