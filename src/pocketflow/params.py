"""Flat parameter storage with named sections, plus the checkpoint container.

All learnable weights live in one contiguous 1-D float64 array; named
sections are reshaped views into it.  Perturbing ``store.flat[i]`` therefore
reaches every weight, which is what the finite-difference gradient checks
rely on.  Checkpoints are a versioned text container: a metadata block, then
one section per block with shape and round-trip-exact decimal values.
"""

from __future__ import annotations

import math
import re
import warnings
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = "pocketflow-checkpoint"
CHECKPOINT_VERSION = 1
_SECTION_HEADER = re.compile(r"section (\S+) (scalar|[0-9]+(?:x[0-9]+)*)")


class CheckpointError(ValueError):
    """Unreadable or version-incompatible checkpoint file."""


class ParamStore:
    """Named, shaped views over one flat float64 vector."""

    def __init__(self, sections: dict[str, tuple[int, ...]]):
        self._shapes = dict(sections)
        sizes = {name: math.prod(shape) for name, shape in self._shapes.items()}
        self._flat = np.zeros(sum(sizes.values()))
        # reshaped views share memory with _flat, so flat-index perturbations
        # (finite differences) and section writes see each other
        self._views = {}
        start = 0
        for name, shape in self._shapes.items():
            self._views[name] = self._flat[start : start + sizes[name]].reshape(shape)
            start += sizes[name]

    @property
    def flat(self) -> np.ndarray:
        return self._flat

    @flat.setter
    def flat(self, value: np.ndarray) -> None:
        # permits in-place augmented assignment (flat -= g); rebinding to a
        # different array would silently orphan the section views
        if value is not self._flat:
            raise AttributeError("flat cannot be rebound; write into flat[...] instead")

    @property
    def size(self) -> int:
        return self._flat.size

    @property
    def shapes(self) -> dict[str, tuple[int, ...]]:
        return dict(self._shapes)

    def section_names(self) -> list[str]:
        return list(self._shapes)

    def __contains__(self, name: str) -> bool:
        return name in self._shapes

    def __getitem__(self, name: str) -> np.ndarray:
        """Writable view of one section; mutations hit ``flat`` directly."""
        return self._views[name]

    def set(self, name: str, values: np.ndarray) -> None:
        view = self[name]
        view[...] = np.asarray(values, dtype=float).reshape(view.shape)

    def zeros_like(self) -> "ParamStore":
        return ParamStore(self._shapes)

    def copy(self) -> "ParamStore":
        out = ParamStore(self._shapes)
        out.flat[:] = self.flat
        return out


def _format_value(v: float) -> str:
    # repr round-trips float64 exactly in Python 3
    return repr(float(v))


def save_checkpoint(
    path: str | Path,
    store: ParamStore,
    meta: dict[str, str] | None = None,
) -> None:
    """Write the parameter store (and optional flat metadata) as text."""
    lines = [f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}"]
    for key, value in (meta or {}).items():
        if any(c in key for c in " =\n") or "\n" in value:
            raise CheckpointError(f"invalid metadata entry {key!r}")
        lines.append(f"meta {key}={value}")
    for name in store.section_names():
        shape = store.shapes[name]
        shape_txt = "x".join(str(d) for d in shape) if shape else "scalar"
        lines.append(f"section {name} {shape_txt}")
        values = store[name].reshape(-1)
        for i in range(0, values.size, 8):
            lines.append(" ".join(_format_value(v) for v in values[i : i + 8]))
    Path(path).write_text("".join(line + "\n" for line in lines))


def load_checkpoint(path: str | Path) -> tuple[ParamStore, dict[str, str]]:
    """Read a checkpoint back into a fresh store plus its metadata."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file")
    version = lines[0].removeprefix(CHECKPOINT_MAGIC).strip()
    if version != f"v{CHECKPOINT_VERSION}":
        raise CheckpointError(f"{path}: unsupported version {version!r}")

    meta: dict[str, str] = {}
    sections: dict[str, tuple[int, ...]] = {}
    payload: dict[str, list[str]] = {}
    current: str | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("meta "):
            key, _, value = line.removeprefix("meta ").partition("=")
            if key in meta:
                raise CheckpointError(f"{path}:{lineno}: repeated metadata key {key!r}")
            meta[key] = value
        elif line.startswith("section "):
            header = _SECTION_HEADER.fullmatch(line.rstrip())
            if header is None:
                raise CheckpointError(f"{path}:{lineno}: malformed section header {line!r}")
            name, shape_txt = header.groups()
            if name in sections:
                raise CheckpointError(f"{path}:{lineno}: repeated section {name!r}")
            sections[name] = () if shape_txt == "scalar" else tuple(
                int(d) for d in shape_txt.split("x")
            )
            payload[name] = []
            current = name
        elif line.strip():
            if current is None:
                raise CheckpointError(f"{path}:{lineno}: values before any section")
            payload[current].append(line)

    values: dict[str, np.ndarray] = {}
    for name, shape in sections.items():
        try:
            with warnings.catch_warnings():  # older numpy only warns on a bad token
                warnings.simplefilter("error", DeprecationWarning)
                values[name] = np.fromstring(" ".join(payload[name]), sep=" ")
        except (ValueError, DeprecationWarning) as exc:
            raise CheckpointError(f"{path}: section {name}: {exc}") from None
        expected = math.prod(shape)  # checked before the store allocates it
        if values[name].size != expected:
            raise CheckpointError(
                f"{path}: section {name} has {values[name].size} values, expected {expected}"
            )
    store = ParamStore(sections)
    for name, array in values.items():
        store.set(name, array)
    if not np.all(np.isfinite(store.flat)):
        raise CheckpointError(f"{path}: non-finite parameter values")
    return store, meta


def softplus(x: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable log(1 + exp(x))."""
    x = np.asarray(x, dtype=float)
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (softplus derivative)."""
    ex = np.exp(-np.abs(np.asarray(x, dtype=float)))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def softplus_inverse(y: float) -> float:
    """Raw value r with softplus(r) = y, for y > 0."""
    if y <= 0:
        raise ValueError("softplus is positive")
    return y + math.log(-math.expm1(-y)) if y > 1e-10 else math.log(math.expm1(y))
