"""Spans and counters recorded from outside forestlab.

`Tracer.install` replaces every public function of the forestlab modules
with a wrapper, in every forestlab namespace that holds a reference to it
(``forestlab.analysis.packed_outputs_on_cube`` as well as
``forestlab.forest.packed_outputs_on_cube``), so calls between layers pass
through the wrappers and spans nest.  A span is recorded only where a call
crosses a module boundary; a call inside the defining module (such as
``packed_outputs_on_cube`` running ``eval_tree_on_cube``) counts toward
the caller's self time.  Corpus families are generators; their spans cover
each ``next()`` and are named after the family key in ``corpus.FAMILIES``.

Spans stay in memory as flat arrays (name, start, end, parent) and are
written out once, at the end.  Counts are recorded by the same wrappers.
No source file of forestlab is changed.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

LAYER_MODULES = ("forest", "analysis", "samplers", "harness", "corpus", "report", "cli")


def _forestlab_modules():
    """The package namespace followed by one module per layer."""
    return [importlib.import_module("forestlab")] + [
        importlib.import_module(f"forestlab.{layer}") for layer in LAYER_MODULES
    ]


def _public_functions(mods):
    """(layer, name, function) for each public function a layer defines."""
    found = []
    for mod in mods[1:]:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                found.append((layer, name, obj))
    return found


def _rebind(mods, replacements: dict) -> None:
    """Point every forestlab reference to an original at its replacement."""
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            new = replacements.get(id(obj))
            if new is not None and obj is new[0]:
                setattr(mod, name, new[1])
    from forestlab import corpus

    for key, fn in list(corpus.FAMILIES.items()):
        new = replacements.get(id(fn))
        if new is not None and fn is new[0]:
            corpus.FAMILIES[key] = new[1]


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counts: dict = defaultdict(float)
        self._distinct: dict = defaultdict(set)

    # -- recording --------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def wrap(self, name: str, fn, hook=None):
        """Time `fn` as span `name`; `hook` counts work outside the span."""
        nid = self._intern(name)
        home = fn.__globals__
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if sys._getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            before = hook.before(args, kwargs) if hook is not None else None
            sid = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, t0, clock())
            if hook is not None:
                hook.after(self, name, args, kwargs, result, before)
            return result

        return traced

    def wrap_generator(self, name: str, fn, family: bool = False):
        """Time each `next()` of the generator as span `name`.

        Family generators are always traced, although corpus itself runs them.
        """
        nid = self._intern(name)
        home = fn.__globals__
        clock = time.perf_counter
        items = name + ".items"

        def spans(it):
            while True:
                sid = self._open(nid)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid, t0, clock())
                self.counts[items] += 1
                yield item

        def traced(*args, **kwargs):
            if not family and sys._getframe(1).f_globals is home:
                return fn(*args, **kwargs)
            return spans(fn(*args, **kwargs))

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public forestlab function, named `<layer>.<function>`."""
        from forestlab import corpus

        mods = _forestlab_modules()
        family_of = {id(fn): key for key, fn in corpus.FAMILIES.items()}
        replacements = {}
        for layer, name, fn in _public_functions(mods):
            if id(fn) in family_of:
                wrapper = self.wrap_generator(f"corpus.{family_of[id(fn)]}", fn, family=True)
            elif inspect.isgeneratorfunction(fn):
                wrapper = self.wrap_generator(f"{layer}.{name}", fn)
            else:
                wrapper = self.wrap(f"{layer}.{name}", fn, _HOOKS.get(f"{layer}.{name}"))
            replacements[id(fn)] = (fn, wrapper)
        _rebind(mods, replacements)

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover.
        """
        import numpy as np

        names = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
        for name, keys in self._distinct.items():
            out.setdefault(name, {})["distinct"] = len(keys)
        for key, value in self.counts.items():
            name, counter = key.rsplit(".", 1)
            out.setdefault(name, {})[counter] = value
        return out

    def write(self, path: str) -> None:
        """Write every span and the counters, for inspection after the run."""
        import numpy as np

        np.savez_compressed(
            path,
            name_id=np.asarray(self.name_id, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            names=np.asarray(json.dumps(self.names)),
            counts=np.asarray(json.dumps(dict(self.counts))),
        )


class _Hook:
    """Counts one call's work; `before` runs ahead of the span, `after` past it."""

    def before(self, args, kwargs):
        return None


class _States(_Hook):
    """Cube assignments enumerated: rows of the returned table."""

    def after(self, tracer, name, args, kwargs, result, before):
        if isinstance(result, tuple):  # query_counts_on_cube returns (counts, order)
            result = result[0]
        tracer.counts[name + ".states"] += 0 if result is None else int(result.shape[0])


class _Rows(_Hook):
    def after(self, tracer, name, args, kwargs, result, before):
        tracer.counts[name + ".rows"] += int(result.shape[0])


class _Distinct(_Hook):
    """Distinct first arguments (forests or outcome sets) seen over calls."""

    def after(self, tracer, name, args, kwargs, result, before):
        tracer._distinct[name].add(hash(args[0]))


class _LedgerBytes(_Hook):
    """Bytes `append_ledger` adds to its file."""

    def before(self, args, kwargs):
        path = kwargs.get("path", args[0] if args else None)
        fresh = kwargs.get("fresh", args[2] if len(args) > 2 else False)
        return 0 if fresh or not os.path.exists(path) else os.path.getsize(path)

    def after(self, tracer, name, args, kwargs, result, before):
        path = kwargs.get("path", args[0] if args else None)
        tracer.counts[name + ".bytes"] += os.path.getsize(path) - before


_HOOKS = {
    "forest.packed_outputs_on_cube": _States(),
    "forest.eval_forest_on_cube": _States(),
    "forest.query_counts_on_cube": _States(),
    "analysis.sample_forest_outputs": _Rows(),
    "analysis.output_distribution": _Distinct(),
    "analysis.cube_distances_to_set": _Distinct(),
    "report.append_ledger": _LedgerBytes(),
}


class PeakMemory:
    """Peak bytes allocated inside `forest.packed_outputs_on_cube` calls.

    tracemalloc runs only while the kernel runs, and this pass runs apart
    from the timed and traced passes because it slows the kernel.
    """

    def __init__(self):
        self.peak_bytes = 0

    def install(self) -> None:
        from forestlab import forest

        fn = forest.packed_outputs_on_cube

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.peak_bytes = max(self.peak_bytes, peak)

        _rebind(_forestlab_modules(), {id(fn): (fn, measured)})
