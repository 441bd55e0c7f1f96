"""Reference functions that only the tests use."""

import numpy as np


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
