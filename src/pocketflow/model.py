"""Assembly of the full generative model: one parameter store feeding the
context encoder, the atom-type flow, and the coordinate flow.

The type flow models a dequantized one-hot over the element vocabulary,
conditioned on the context readout at the focal atom; the coordinate flow
models the 3-D offset from the focal atom, additionally conditioned on the
chosen element.  Checkpoints carry the hyperparameters needed to rebuild the
model without the original configuration file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .chem import ElementKind, Pocket, Vocabulary
from .encoder import DEFAULT_GRAPH_CUTOFF, ContextEncoding, Encoder, EncoderConfig, build_graph
from .flows import DEFAULT_SCALE_FLOOR, FlowStack
from .geometry import RbfBank
from .params import CheckpointError, ParamStore, load_checkpoint, save_checkpoint


@dataclass(frozen=True)
class ModelConfig:
    vocab: Vocabulary = field(default_factory=Vocabulary.default)
    rbf_centers: int = 16
    rbf_rmax: float = 8.0
    embed_width: int = 32
    hidden_width: int = 64
    encoder_layers: int = 2
    graph_cutoff: float = DEFAULT_GRAPH_CUTOFF
    bfactor_gating: bool = False
    type_flow_layers: int = 6
    coord_flow_layers: int = 6
    scale_floor: float = DEFAULT_SCALE_FLOOR

    def __post_init__(self) -> None:
        checks = [
            (self.rbf_centers >= 2, "rbf_centers must be >= 2"),
            (0 < self.rbf_rmax < np.inf, "rbf_rmax must be positive and finite"),
            (self.embed_width >= 1, "embed_width must be >= 1"),
            (self.hidden_width >= 1, "hidden_width must be >= 1"),
            (self.encoder_layers >= 1, "encoder_layers must be >= 1"),
            (0 < self.graph_cutoff < np.inf, "graph_cutoff must be positive and finite"),
            (self.type_flow_layers >= 1, "type_flow_layers must be >= 1"),
            (self.coord_flow_layers >= 1, "coord_flow_layers must be >= 1"),
            (0 < self.scale_floor < np.inf, "scale_floor must be positive and finite"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(message)

    def bank(self) -> RbfBank:
        return RbfBank.default(self.rbf_centers, self.rbf_rmax)

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            embed_width=self.embed_width,
            hidden_width=self.hidden_width,
            n_layers=self.encoder_layers,
            bfactor_gating=self.bfactor_gating,
        )


# every ModelConfig field but the vocabulary, with the type of its default
_SCALAR_FIELDS = {f.name: type(f.default) for f in fields(ModelConfig) if f.name != "vocab"}


class Model:
    """Encoder plus type/coordinate flows over a shared flat parameter store."""

    def __init__(self, cfg: ModelConfig, store: ParamStore | None = None):
        self.cfg = cfg
        v = len(cfg.vocab)
        cond_width = 2 * cfg.embed_width
        sections = dict(Encoder.sections(cfg.encoder_config(), v, cfg.rbf_centers))
        sections.update(FlowStack.sections("typeflow", cfg.type_flow_layers, v, cond_width))
        sections.update(
            FlowStack.sections("coordflow", cfg.coord_flow_layers, 3, cond_width + v)
        )
        self.store = store if store is not None else ParamStore(sections)
        if self.store.shapes != sections:
            raise ValueError("parameter store does not match the model configuration")
        self.encoder = Encoder(cfg.encoder_config(), v, cfg.bank(), self.store)
        self.type_flow = FlowStack(
            self.store, "typeflow", cfg.type_flow_layers, v, cond_width, cfg.scale_floor
        )
        self.coord_flow = FlowStack(
            self.store,
            "coordflow",
            cfg.coord_flow_layers,
            3,
            cond_width + v,
            cfg.scale_floor,
        )
        self._pocket_memo: tuple = ((None,) * 4, None)  # (copies of the key, the encoding)

    def pocket_encoding(self, pocket: Pocket) -> ContextEncoding:
        """The encoding of ``pocket``'s graph under the current parameters, a
        :class:`~pocketflow.encoder.ContextEncoding` on the empty prefix.

        One entry is kept, reused while the pocket's positions, elements and
        B-factors and every parameter equal its copies of them (parameters are
        written in place, so contents are compared).  Training's
        ``Encoder.encode_union`` encodes its own pockets, as its parameters change.
        """
        key = (pocket.positions, pocket.elements, pocket.bfactors, self.store.flat)
        if not all(map(np.array_equal, key, self._pocket_memo[0])):
            graph = build_graph(pocket, cutoff=self.cfg.graph_cutoff)
            self._pocket_memo = tuple(a.copy() for a in key), self.encoder.encode_pocket(graph)
        return self._pocket_memo[1]

    @classmethod
    def initialized(cls, cfg: ModelConfig, rng: np.random.Generator) -> "Model":
        model = cls(cfg)
        model.encoder.init(rng)
        model.type_flow.init()
        model.coord_flow.init()
        return model

    def zero_grads(self) -> ParamStore:
        return self.store.zeros_like()

    def one_hot(self, element: int) -> np.ndarray:
        v = np.zeros(len(self.cfg.vocab))
        v[element] = 1.0
        return v

    # -- checkpointing ------------------------------------------------------

    def meta(self) -> dict[str, str]:
        """Checkpoint metadata: the vocabulary plus every other config field."""
        out = {
            "vocab": ",".join(
                f"{e.symbol}:{e.atomic_number}:{e.covalent_radius!r}:{e.max_valence}"
                for e in self.cfg.vocab.elements
            )
        }
        for name in _SCALAR_FIELDS:
            value = getattr(self.cfg, name)
            out[name] = str(int(value)) if isinstance(value, bool) else repr(value)
        return out

    def save(self, path: str | Path) -> None:
        save_checkpoint(path, self.store, self.meta())

    @classmethod
    def load(cls, path: str | Path) -> "Model":
        store, meta = load_checkpoint(path)
        try:
            elements = []
            for item in meta["vocab"].split(","):
                sym, z, radius, valence = item.split(":")
                elements.append(ElementKind(sym, int(z), float(radius), int(valence)))
            scalars = {}
            for key, kind in _SCALAR_FIELDS.items():
                if kind is bool and meta[key] not in ("0", "1"):  # as meta() writes it
                    raise ValueError(f"{key} must be 0 or 1, not {meta[key]!r}")
                scalars[key] = meta[key] == "1" if kind is bool else kind(meta[key])
            cfg = ModelConfig(vocab=Vocabulary(elements), **scalars)
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"{path}: incomplete model metadata ({exc})") from exc
        return cls(cfg, store)
