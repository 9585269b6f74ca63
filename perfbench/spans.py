"""Spans recorded at mwkit's layer boundaries, from outside the library.

``install`` replaces module attributes with timing wrappers: the names each
layer module imports from another layer, the intra-module entry points named
in ``INTRA`` (the optimizer's objective lookups and the public functions the
benchmark calls), and nothing else.  ``uninstall`` puts the originals back.
Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from time import perf_counter

LAYERS = ("sphere", "measures", "cells", "hessian", "width", "cli")

# attributes looked up inside their own module that the trace must see
INTRA = {
    "width": ("_exact3d_value", "mean_width_mc", "mean_width_mat",
              "optimize_width"),
    "cells": ("cell_vertex", "path_simplex_from_chain", "gram_matrix",
              "adjacent_dihedral_angles", "decompose_simplex",
              "_complex24_core", "feasibility_checks"),
    "measures": ("cell_marginal_mean_MAT",),
    "cli": ("main",),
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# span attributes recorded beside the timing (counts, not durations)
NOTES = {
    "width.mean_width_mc": lambda a, k, out: _arg(a, k, 1, "n"),
    "measures.cell_marginal_mean_MAT": lambda a, k, out: _arg(a, k, 1, "n_samples"),
    "cells.cell_vertex": lambda a, k, out: tuple(sorted(_arg(a, k, 1, "subset"))),
    "hessian.region_scan": lambda a, k, out: out.n_points,
    "width.optimize_width": lambda a, k, out: out[-1].iteration,
}


class Tracer:
    """Column store of spans: name, start, end, parent span, op id."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.note: dict[int, object] = {}
        self.op_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if note is not None:
                self.note[sid] = note(args, kwargs, out)
            return out
        return traced

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[sid] - self.start[sid]
        return own

    def dump(self, path) -> None:
        names = sorted(set(self.name))
        index = {n: k for k, n in enumerate(names)}
        doc = {"names": names,
               "name": [index[n] for n in self.name],
               "start": self.start, "end": self.end,
               "parent": self.parent, "op": self.op,
               "note": {str(k): v for k, v in self.note.items()}}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _layer_of(obj) -> str | None:
    mod = getattr(obj, "__module__", "") or ""
    prefix, _, layer = mod.partition(".")
    return layer if prefix == "mwkit" and layer in LAYERS else None


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the layer boundaries; returns the patches for ``uninstall``."""
    mods = {name: importlib.import_module(f"mwkit.{name}") for name in LAYERS}
    todo = []
    for name, mod in mods.items():
        for attr, obj in vars(mod).items():
            if isinstance(obj, type) or not callable(obj):
                continue
            owner = _layer_of(obj)
            if owner is not None and owner != name:
                todo.append((mod, attr, f"{owner}.{obj.__name__}"))
        for attr in INTRA.get(name, ()):
            todo.append((mod, attr, f"{name}.{attr}"))
    patches = []
    for mod, attr, span_name in todo:
        original = getattr(mod, attr)
        patches.append((mod, attr, original))
        setattr(mod, attr, tracer.wrap(span_name, original))
    return patches


def uninstall(patches) -> None:
    for mod, attr, original in reversed(patches):
        setattr(mod, attr, original)
