"""Spans and counters recorded from outside the package.

The tracer replaces public functions at the name each caller uses (for
example `geomgw.sampler.log_forest_pmf`, the name the bridge kernel looks
up) and methods on their class. Each wrapped call records a span (name,
start, end, parent span) and bumps its counters at the same point. Spans
stay in flat in-memory arrays and are written out once, at the end of the
run. A span's self time is its length minus the time its child spans
cover; wrapped calls are synchronous, so children never overlap and the
covered time is the sum of their lengths.

Pool workers would lose their counters, so a traced sweep runs with one
worker.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

import geomgw
from geomgw import exactlaw, lab, offspring, sampler, treekit
from geomgw.rng import RandomSource


def _tv_codes(counts: Counter, args, out) -> None:
    counts["lab.tv_distance.codes"] += len(set(args[0].entries) | set(args[1].entries))


def _family_entries(counts: Counter, args, out) -> None:
    counts["exactlaw.family.entries"] += len(out.entries)


def _gtest_classes(counts: Counter, args, out) -> None:
    counts["gtest.classes"] += out.classes
    counts["gtest.pooled"] += out.pooled


_FAMILIES = ("gw_family", "conditioned_family", "kesten_family",
             "poisson_family", "condensation_family")
_LAB_FAMILIES = _FAMILIES[1:]
_RESTRICTED = ("conditioned_restricted_family", "poisson_restricted_family")

# (owner, attribute, span name, tally): every owner is the module whose
# code looks the name up, or the class for methods. `geomgw` itself is the
# owner for the benchmark's own calls.
FUNCTIONS = (
    *((geomgw, f, "exactlaw.family", _family_entries) for f in _FAMILIES),
    *((lab, f, "exactlaw.family", _family_entries) for f in _LAB_FAMILIES),
    *((lab, f, "exactlaw.restricted_family", None) for f in _RESTRICTED),
    (exactlaw, "size_conditioning_ratio", "exactlaw.size_conditioning_ratio", None),
    (exactlaw, "log_poisson_weight", "exactlaw.log_poisson_weight", None),
    (sampler, "log_forest_pmf", "exactlaw.log_forest_pmf", None),
    *((m, "iterate", "offspring.iterate", None) for m in (exactlaw, offspring)),
    *((m, "log_gamma_ratio", "offspring.log_gamma_ratio", None)
      for m in (exactlaw, offspring)),
    *((m, "extinction_params", "offspring.extinction_params", None)
      for m in (exactlaw, sampler)),
    (lab, "tv_distance", "lab.tv_distance", _tv_codes),
    (lab, "per_tree_gap", "lab.per_tree_gap", None),
    (geomgw, "run_regime", "lab.run_regime", None),
    (geomgw, "run_theta_continuity", "lab.run_theta_continuity", None),
    (geomgw, "write_regime_csv", "lab.write_csv", None),
    (geomgw, "write_theta_csv", "lab.write_csv", None),
    *((geomgw, f, f"sampler.{f}", None) for f in (
        "sample_gw", "sample_conditioned", "sample_kesten",
        "sample_poisson_tree", "sample_condensation")),
    (geomgw, "g_test_against_law", "gtest", _gtest_classes),
    (treekit.OrderedTree, "__init__", "treekit.OrderedTree", None),
    (treekit.OrderedTree, "encode", "treekit.encode", None),
    (RandomSource, "child", "rng.child", None),
    (RandomSource, "uniform", "rng.uniform", None),
    (RandomSource, "below", "rng.below", None),
)
# Generators get one span per resumption, so the consumer's loop body
# between two items is not charged to the generator.
GENERATORS = ((exactlaw, "enumerate_trees", "treekit.enumerate_trees", "treekit.shapes"),)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open_spans = [-1]
        self.counts: Counter = Counter()
        self._generators: set[str] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._open_spans[-1])
        self.end.append(0.0)
        self._open_spans.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._open_spans.pop()

    def wrap(self, name: str, fn, tally=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if tally is not None:
                tally(self.counts, args, out)
            return out

        return traced

    def wrap_generator(self, name: str, fn, item_counter: str):
        nid = self._name_id(name)
        self._generators.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                sid = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid)
                self.counts[item_counter] += 1
                yield item

        return traced

    def install(self) -> "Tracer":
        for owner, attr, name, tally in FUNCTIONS:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), tally))
        for owner, attr, name, items in GENERATORS:
            setattr(owner, attr, self.wrap_generator(name, getattr(owner, attr), items))
        return self

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        return start, end, parent, name_of

    def summary(self) -> dict:
        """Per span name: self seconds and call count, plus the counters."""
        if len(self._open_spans) != 1:
            raise RuntimeError(f"{len(self._open_spans) - 1} spans left open")
        start, end, parent, name_of = self._arrays()
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        own = np.bincount(name_of, weights=dur - covered, minlength=len(self.names))
        spans = np.bincount(name_of, minlength=len(self.names))
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.s"] = float(own[i])
            # a generator's spans are resumptions; its calls are counted apart
            if name not in self._generators:
                out[f"{name}.calls"] = int(spans[i])
        out.update(self.counts)
        out["spans"] = len(self.start)
        return out

    def dump(self, path) -> None:
        start, end, parent, name_of = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name_of, parent=parent,
            start=start, end=end,
        )
