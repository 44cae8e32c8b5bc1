"""Span recorder for the traced benchmark run.

Spans are recorded around calls into each layer's public functions by
swapping those functions, wherever the package's modules refer to them,
for timing wrappers; nothing inside the program changes.  Spans live in
flat arrays (one row per call: name, start, end, parent span, search id)
so a traced pass over 2e5 symbols stays a few megabytes, and are written
out once when the run ends.
"""
from __future__ import annotations

import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# (span name, module, attribute): the calls into each layer that a search makes
LAYER_CALLS = (
    ("cli.parse_fasta", "translocsearch.cli", "parse_fasta"),
    ("seqcore.encode", "translocsearch.seqcore", "encode"),
    ("automaton.automaton_search", "translocsearch.automaton", "automaton_search"),
    ("dawg.build_dawg", "translocsearch.dawg", "build_dawg"),
    ("automaton.SearchState.step", "translocsearch.automaton", "SearchState.step"),
    ("dp.dp_search", "translocsearch.dp", "dp_search"),
    ("dp.DpColumns.push", "translocsearch.dp", "DpColumns.push"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("b")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.searches = array("i")
        self.stack = [-1]
        self.search_id = -1
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @property
    def span_count(self) -> int:
        return len(self.starts)

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, searches, stack = self.parents, self.searches, self.stack
        tracer = self

        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            searches.append(tracer.search_id)
            ends.append(0)
            stack.append(sid)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        """Swap every layer call for its timing wrapper."""
        package = [mod for key, mod in sys.modules.items()
                   if key == "translocsearch" or key.startswith("translocsearch.")]
        for name, module, attr in LAYER_CALLS:
            owner = sys.modules.get(module)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                if cls is None or method not in vars(cls):
                    self.missing.append(name)
                    continue
                self._swap(cls, method, self.wrap(name, vars(cls)[method]))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, wrapper)

    def _swap(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def self_seconds(self, first: int, last: int) -> dict[str, float]:
        """Self time per span name over spans [first, last): each span's
        duration minus the time its child spans cover."""
        if last <= first:
            return {}
        ids = np.frombuffer(self.name_ids, dtype=np.int8)[first:last]
        dur = (np.frombuffer(self.ends, dtype=np.int64)[first:last]
               - np.frombuffer(self.starts, dtype=np.int64)[first:last])
        parents = np.frombuffer(self.parents, dtype=np.int32)[first:last]
        child = parents >= first
        covered = np.bincount(parents[child] - first, weights=dur[child],
                              minlength=last - first)
        own = np.bincount(ids, weights=dur - covered, minlength=len(self.names))
        return {name: own[i] / 1e9 for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Spans as parallel arrays, starts and ends in nanoseconds."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_ids, dtype=np.int8),
            start=np.frombuffer(self.starts, dtype=np.int64),
            end=np.frombuffer(self.ends, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            search=np.frombuffer(self.searches, dtype=np.int32),
        )
