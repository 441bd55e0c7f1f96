"""Reference functions that only the tests use."""

import numpy as np

from pocketflow.geometry import rbf_expand


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-7) -> float:
    """Largest elementwise relative difference, ignoring joint near-zeros.

    Pairs whose magnitudes both sit below ``floor`` are treated as equal;
    used for comparing analytic against finite-difference gradients.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    scale = np.maximum(np.abs(a), np.abs(b))
    mask = scale > floor
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(a[mask] - b[mask]) / scale[mask]))


def readout_backward(dcond: np.ndarray, n_atoms: int, focal: int) -> np.ndarray:
    """d(loss)/d(embeddings) given d(loss)/d(readout), the adjoint of
    :func:`pocketflow.encoder.aggregate_readout`."""
    width = dcond.size // 2
    dh = np.empty((n_atoms, width))
    dh[...] = dcond[width:] / n_atoms
    dh[focal] += dcond[:width]
    return dh


def dense_encode(encoder, graph) -> np.ndarray:
    """The embeddings of ``graph`` after the last layer, from the update formula
    of the :mod:`pocketflow.encoder` module docstring alone:

        h_k <- h_k + sum_{u in N(k)} gamma_uk * h_u * MLP_l(rbf(d_uk))

    Every atom is a row, both directions of every edge are listed and summed
    with ``np.add.at``: no pocket prefix, no pair blocks and no factored
    readout, so that no path of the encoder's own is shared."""
    store, cfg = encoder.store, encoder.cfg
    h = store["encoder.embed"][graph.origins, graph.elements]
    src = np.concatenate([graph.edge_src, graph.edge_dst])
    dst = np.concatenate([graph.edge_dst, graph.edge_src])
    rbf = rbf_expand(np.concatenate([graph.edge_dist, graph.edge_dist]), encoder.bank)
    for layer in range(cfg.n_layers):
        p = f"encoder.layer{layer}"
        m = np.tanh(rbf @ store[f"{p}.w1"] + store[f"{p}.b1"]) @ store[f"{p}.w2"] + store[f"{p}.b2"]
        gate = float(store[f"{p}.gate"]) if cfg.bfactor_gating else 0.0
        gamma = 1.0 + gate * graph.bfactor_weights[src]
        out = h.copy()
        np.add.at(out, dst, gamma[:, None] * h[src] * m)
        h = out
    return h
