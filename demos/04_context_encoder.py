"""Message passing over the pocket graph: invariance and B-factor gating.

Encodes a pocket context, demonstrates that the embeddings depend on
geometry only through interatomic distances (rigid-motion invariance), and
shows the effect of the optional B-factor gate that emphasizes flexible
protein atoms.
"""

import numpy as np

from pocketflow import RigidTransform, aggregate_readout, apply_rigid
from pocketflow.chem import Atom, Pocket, Vocabulary
from pocketflow.encoder import Encoder, EncoderConfig, build_graph
from pocketflow.geometry import RbfBank
from pocketflow.params import ParamStore

vocab = Vocabulary.default()
rng = np.random.default_rng(1)

positions = rng.uniform(-4, 4, size=(10, 3))
elements = rng.integers(0, len(vocab), size=10)
bfactors = rng.uniform(5.0, 60.0, size=10)
pocket = Pocket([Atom(int(e), p) for e, p in zip(elements, positions)], bfactors)

graph = build_graph(pocket, cutoff=6.0)
print(f"Context graph: {graph.n_atoms} atoms, {graph.n_edges} undirected edges (each stored once)")

cfg = EncoderConfig(embed_width=8, hidden_width=16, n_layers=2, bfactor_gating=True)
bank = RbfBank.default()
store = ParamStore(Encoder.sections(cfg, len(vocab), len(bank)))
store.flat[:] = rng.uniform(-0.3, 0.3, size=store.size)
for layer in range(cfg.n_layers):
    store[f"encoder.layer{layer}.gate"][...] = 0.0
encoder = Encoder(cfg, len(vocab), bank, store)

h = encoder.encode(graph)
print("Embedding matrix shape:", h.shape)
print("Readout at focal atom 0 has width", aggregate_readout(h, 0).shape[0])

# Rigid-motion invariance: move the whole pocket, embeddings stay put.
worst = 0.0
for k in range(25):
    transform = RigidTransform.random(np.random.default_rng(k))
    moved = apply_rigid(transform, positions)
    pocket_t = Pocket([Atom(int(e), p) for e, p in zip(elements, moved)], bfactors)
    h_t = encoder.encode(build_graph(pocket_t, cutoff=6.0))
    worst = max(worst, float(np.max(np.abs(h_t - h))))
print("Max embedding drift over 25 rigid motions:", worst)

# The B-factor gate. With all gates zero the gated encoder reproduces an
# ungated twin bit-for-bit; pushing a gate up re-weights messages from
# flexible (high-B) protein atoms.
plain_cfg = EncoderConfig(embed_width=8, hidden_width=16, n_layers=2, bfactor_gating=False)
twin_store = ParamStore(Encoder.sections(plain_cfg, len(vocab), len(bank)))
twin_store.flat[:] = store.flat
ungated = Encoder(plain_cfg, len(vocab), bank, twin_store)
print("\nZero gates reproduce the ungated encoder exactly:",
      np.array_equal(encoder.encode(graph), ungated.encode(graph)))

store["encoder.layer0.gate"][...] = 1.0
h_gated = encoder.encode(graph)
shift = np.linalg.norm(h_gated - h, axis=1)
flexible = int(np.argmax(bfactors))
print("Per-atom embedding shift with gate=1 on layer 0:")
print(np.array2string(shift, precision=4))
print(f"(messages sent by atom {flexible}, B={bfactors[flexible]:.1f} A^2, "
      f"carry the largest up-weight; its neighbors move accordingly)")
