"""Per-layer timing spans recorded from outside the program.

The tracer wraps public functions and methods of ``pocketflow`` modules in
place (every module namespace that binds the same function object, so calls
through ``from .x import f`` are seen too) and keeps, per span name, the call
count, the inclusive time and the time covered by child spans.  Self time is
inclusive time minus child time.  Nothing is installed unless a traced run
asks for it, so an untraced run executes the program unmodified.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import pocketflow

# (span name, module, attribute); "Class.method" patches the class attribute.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("encoder.build_graph", "encoder", "build_graph"),
    ("encoder.encode", "encoder", "Encoder.encode_with_cache"),
    ("encoder.edge_features", "encoder", "Encoder.edge_features"),
    ("encoder.message_layer", "encoder", "Encoder.message_layer"),
    ("encoder.backward", "encoder", "Encoder.backward"),
    ("flows.forward", "flows", "FlowStack.forward"),
    ("flows.nll_backward", "flows", "FlowStack.nll_backward"),
    ("trainer.train", "trainer", "train"),
    ("trainer.build_steps", "trainer", "build_steps"),
    ("generator.generate_ligand", "generator", "generate_ligand"),
    ("generator.step", "generator", "step"),
    ("generator.select_focal", "generator", "select_focal"),
    ("generator.generate_type", "generator", "generate_type"),
    ("chem.infer_bonds", "chem", "infer_bonds"),
    ("chem.check_validity", "chem", "check_validity"),
    ("evaluator.evaluate_set", "evaluator", "evaluate_set"),
    ("evaluator.count_contacts", "evaluator", "count_contacts"),
    ("molio.write_xyz", "molio", "write_xyz"),
    ("molio.read_xyz", "molio", "read_xyz"),
    ("pdb.serialize_pdb", "pdb", "serialize_pdb"),
    ("pdb.parse_pdb", "pdb", "parse_pdb"),
    ("params.load_checkpoint", "params", "load_checkpoint"),
)
SPAN_NAMES = tuple(name for name, _, _ in SPANS)
# spans that set-up passes reach; reported per set-up pass
SETUP_SPANS = (
    "pdb.parse_pdb",
    "molio.read_xyz",
    "chem.infer_bonds",
    "params.load_checkpoint",
    "trainer.build_steps",
    "encoder.build_graph",
)


# spans whose latest result the benchmark reads back (molecule length, stop reason)
KEEP_RESULT = frozenset({"generator.generate_ligand", "generator.select_focal"})


def _graph_arg(args: tuple, kwargs: dict, position: int):
    return args[position] if len(args) > position else kwargs["graph"]


@dataclass
class Tracer:
    enabled: bool = False
    calls: Counter = field(default_factory=Counter)
    inclusive_s: Counter = field(default_factory=Counter)
    child_s: Counter = field(default_factory=Counter)
    child_calls: Counter = field(default_factory=Counter)  # (parent, child) -> calls
    counters: Counter = field(default_factory=Counter)
    last_result: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def reset(self) -> None:
        for table in (self.calls, self.inclusive_s, self.child_s, self.child_calls, self.counters):
            table.clear()
        self.last_result.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def self_s(self, name: str) -> float:
        return self.inclusive_s[name] - self.child_s[name]

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        observers: dict[str, Callable[[Any, tuple, dict], None]] = {
            "encoder.build_graph": self._observe_graph,
            "encoder.message_layer": lambda r, a, k: self._count(
                "encoder.edges_processed", _graph_arg(a, k, 2).n_edges
            ),
            "encoder.backward": lambda r, a, k: self._count(
                "encoder.edges_processed", _graph_arg(a, k, 1).n_edges * a[0].cfg.n_layers
            ),
        }
        modules = [
            importlib.import_module(f"pocketflow.{info.name}")
            for info in pkgutil.iter_modules(pocketflow.__path__)
        ]
        for name, module_name, attr in SPANS:
            owner_name, _, method = attr.rpartition(".")
            module = importlib.import_module(f"pocketflow.{module_name}")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, method, self._wrap(name, getattr(owner, method), observers.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, observers.get(name))
            for namespace in [pocketflow, *modules]:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count(self, counter: str, amount: int) -> None:
        self.counters[counter] += amount

    def _observe_graph(self, graph, args: tuple, kwargs: dict) -> None:
        self.counters["encoder.graph_atoms"] += graph.n_atoms
        self.counters["encoder.graph_edges"] += graph.n_edges

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [name, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.inclusive_s[name] += elapsed
                tracer.child_s[name] += frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    tracer.child_calls[(parent[0], name)] += 1
            if name in KEEP_RESULT:
                tracer.last_result[name] = result
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced
