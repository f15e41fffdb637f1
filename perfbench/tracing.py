"""Per-layer spans for the traced benchmark run, recorded from outside idjt.

``Tracer.install`` swaps module attributes for timing wrappers: the names
``idjt.cli.run`` calls, the passes ``compile_diagram`` calls, and the solver
and table functions ``solve`` calls.  ``uninstall`` puts the originals back,
so the untraced passes run the unmodified program.  Each pass accumulates
inclusive and self time per span name plus the counts the per-layer metrics
need; full spans of the first traced pass stay in memory and are written out
when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

TABLE_PRIMITIVES = ("multiply", "add", "divide", "extend", "sum_out", "max_out", "argmax_over")

# (module, attribute, span name); the cli names are those ``cli.run`` calls.
TARGETS = [
    ("idjt.cli", "parse_model", "model.parse"),
    ("idjt.cli", "validate", "model.validate"),
    ("idjt.compiler", "compile_diagram", "compiler.compile"),
    ("idjt.compiler", "moralize", "compiler.moralize"),
    ("idjt.compiler", "strong_elimination_order", "compiler.order"),
    ("idjt.compiler", "triangulate", "compiler.triangulate"),
    ("idjt.compiler", "cliques_of", "compiler.cliques"),
    ("idjt.compiler", "build_strong_tree", "compiler.build_tree"),
    ("idjt.compiler", "verify_strong", "compiler.verify"),
    ("idjt.solver", "solve", "solver.solve"),
    ("idjt.solver", "initialize", "solver.initialize"),
    ("idjt.solver", "collect", "solver.collect"),
    ("idjt.solver", "absorb", "solver.absorb"),
    ("idjt.solver", "extract_policies", "solver.extract"),
]
TARGETS += [("idjt.tables", f, f"tables.{f}") for f in (*TABLE_PRIMITIVES, "marg_all")]
# Bindings of the table functions that the solver imported by name; absent ones are fine.
ALIASES = [("idjt.solver", f, f"tables.{f}") for f in (*TABLE_PRIMITIVES, "marg_all")]

# The spans that partition one ``cli.run`` call, for the share table.
PARTITION = [
    "cli.run", "model.parse", "model.validate", "compiler.compile", "compiler.moralize",
    "compiler.order", "compiler.triangulate", "compiler.cliques", "compiler.build_tree",
    "compiler.verify", "solver.solve", "solver.initialize", "solver.collect", "solver.extract",
]


def _cells(result) -> int:
    return int(result.values.size)


def _separator_cells(tree) -> int:
    members = {c.index: c.members for c in tree.cliques}
    return sum(
        math.prod(len(v.states) for v in members[child] & members[parent])
        for child, parent in tree.parent.items()
    )


class Tracer:
    def __init__(self):
        self.missing: dict[str, str] = {}  # span name -> why it cannot be recorded
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # open spans: [id, name, covered seconds]
        self._next_id = 0
        self.model = ""  # the request the open spans belong to
        self.record = False  # keep full spans (only for the first traced pass)
        self.spans: list[tuple] = []  # (id, parent, model, name, start, end)
        self.validate_errors: set[str] = set()
        self.new_pass()

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in TARGETS + ALIASES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                if (module_name, attr, span) in TARGETS:
                    self.missing[span] = f"{module_name}.{attr} no longer exists"
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self.wrap(span, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    # -- recording -----------------------------------------------------------

    def new_pass(self) -> None:
        self.time: Counter = Counter()  # inclusive seconds per span name
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # fill_ins, cliques, cells_out, message_cells
        self.tables_s = 0.0  # time inside outermost table spans
        self.absorb_s: list[float] = []
        self.trees: list = []

    def pass_totals(self) -> dict:
        for tree in self.trees:
            try:
                self.counts["message_cells"] += _separator_cells(tree)
            except (AttributeError, KeyError, TypeError) as e:
                self.missing.setdefault("solver.message_cells", f"tree layout changed: {e!r}")
        self.trees.clear()
        return {
            "time": dict(self.time), "self": dict(self.self_time), "calls": dict(self.calls),
            "counts": dict(self.counts), "tables_s": self.tables_s, "absorb_s": self.absorb_s,
        }

    def wrap(self, name: str, fn):
        """fn wrapped in a span called ``name``; also makes the root ``cli.run`` span."""
        tracer = self
        is_table = name.startswith("tables.")
        primitive = is_table and name != "tables.marg_all"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = [tracer._next_id, name, 0.0]
            tracer._next_id += 1
            stack.append(span)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.time[name] += dur
                tracer.self_time[name] += dur - span[2]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[2] += dur
                if is_table and (parent is None or not parent[1].startswith("tables.")):
                    tracer.tables_s += dur
                if tracer.record:
                    tracer.spans.append(
                        (span[0], parent and parent[0], tracer.model, name, start, end)
                    )
                if name == "solver.absorb":
                    tracer.absorb_s.append(dur)
                elif name == "model.validate" and failed:
                    tracer.validate_errors.add(tracer.model)
            if primitive:
                tracer.counts["cells_out"] += _cells(result)
            elif name == "model.validate" and result:
                tracer.validate_errors.add(tracer.model)
            elif name == "compiler.triangulate":
                tracer.counts["fill_ins"] += len(result[1])
            elif name == "compiler.cliques":
                tracer.counts["cliques"] += len(result)
            elif name == "solver.solve":
                tracer.trees.append(args[0] if args else kwargs.get("tree"))
            return result

        return traced

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "model", "name", "start", "end")
        rows = [dict(zip(fields, s)) for s in self.spans]
        path.write_text(json.dumps({"spans": rows}), encoding="utf-8")


class SolveMemory:
    """Wraps ``solver.solve`` to record the tracemalloc peak inside each call."""

    def __init__(self):
        self.model = ""  # set by the caller before each model
        self.peaks: dict[str, int] = {}  # model -> bytes above the level at entry
        self._module = importlib.import_module("idjt.solver")
        self._original = self._module.solve

    def __enter__(self):
        original = self._original

        @functools.wraps(original)
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return original(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peaks[self.model] = max(self.peaks.get(self.model, 0), peak)

        tracemalloc.start()
        self._module.solve = measured
        return self

    def __exit__(self, *exc):
        self._module.solve = self._original
        tracemalloc.stop()
        return False
