"""Spans around the calls into cohkit's layers, recorded from outside the program.

install() wraps every public function of cohkit's modules, at every module
that holds a reference to it, and the validating constructors of its classes.
numpy.linalg.eigh and numpy.einsum are wrapped as kernel counters. uninstall()
puts the originals back. Spans are recorded only while the tracer is active,
kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import json
import time
import types

import numpy as np

LAYERS = ("linalg", "states", "channels", "classify", "convert", "oracle")

# class name -> span name for the validating constructors (__post_init__)
CONSTRUCTORS = {
    "PureState": "states.construct",
    "DensityMatrix": "states.construct",
    "KrausMap": "channels.kraus_map",
    "SchurMatrix": "channels.schur_matrix",
    "Hamiltonian": "classify.hamiltonian",
}


def _eigh_attrs(args, result) -> dict:
    return {"order": int(np.shape(args[0])[-1])}


def _einsum_attrs(args, result) -> dict:
    return {"out_mb": float(getattr(result, "nbytes", 0)) / 1e6}


def _verdict_attrs(args, result) -> dict:
    return {"undecided": int(getattr(result, "possible", True) is None)}


ATTRS = {
    "linalg.eigh": _eigh_attrs,
    "linalg.einsum": _einsum_attrs,
    "convert.fi_deterministic_pure": _verdict_attrs,
}


class Tracer:
    """Records (id, parent, request, name, start, end, attrs) spans while active."""

    def __init__(self) -> None:
        self.active = False
        self.request = -1
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0
        self._originals: list[tuple[object, str, object]] = []

    def _patch(self, target, attr: str, value) -> None:
        self._originals.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            attrs = attrs_of(args, result) if attrs_of else None
            self.spans.append((sid, parent, self.request, name, start, end, attrs))
            return result

        return traced

    def install(self) -> None:
        import cohkit

        modules = [cohkit] + [getattr(cohkit, layer) for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = getattr(cohkit, layer)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self.wrap(f"{layer}.{name}", obj)
                elif isinstance(obj, type) and obj.__name__ in CONSTRUCTORS:
                    self._patch(obj, "__post_init__", self.wrap(CONSTRUCTORS[obj.__name__], obj.__post_init__))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in wrapped and isinstance(value, types.FunctionType):
                    self._patch(mod, key, wrapped[id(value)])
        self._patch(np.linalg, "eigh", self.wrap("linalg.eigh", np.linalg.eigh))
        self._patch(np, "einsum", self.wrap("linalg.einsum", np.einsum))

    def uninstall(self) -> None:
        while self._originals:
            target, attr, original = self._originals.pop()
            setattr(target, attr, original)

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, self time in ms, and the largest of each attribute."""
        child_time: dict[int, float] = {}
        for sid, parent, _req, _name, start, end, _attrs in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        table: dict[str, dict] = {}
        for sid, _parent, _req, name, start, end, attrs in self.spans:
            row = table.setdefault(name, {"calls": 0, "self_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += 1e3 * (end - start - child_time.get(sid, 0.0))
            for key, value in (attrs or {}).items():
                if key == "undecided":
                    row[key] = row.get(key, 0) + value
                else:
                    row["max_" + key] = max(row.get("max_" + key, 0), value)
        return table

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, req, name, start, end, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "request": req, "name": name,
                         "start": start, "end": end, "attrs": attrs}
                    )
                    + "\n"
                )
