"""Outside-in tracer for plumbook's layers.

The tracer changes no file of the package.  It rebinds, in every loaded
plumbook module, each attribute that *is* one of the layer functions below
(found by object identity, so aliases such as ``plumbing.reduce_arc`` and
``cli.reduce_arc`` are caught too) to a wrapper that records a span: which
function, start and end on ``perf_counter_ns``, and the enclosing span.
Spans stay in memory; self times, ratios and workload properties are derived
from them after the traced work is done.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYER_FUNCTIONS = (
    "surface.validate",
    "arcs.reduce",
    "arcs.minimal_position",
    "arcs.is_embedded",
    "arcs.twist_about_band",
    "arcs.first_divergence",
    "openbook.validate_pob",
    "openbook.veering_report",
    "openbook.contact_verdict",
    "openbook.positive_stabilization",
    "plumbing.associated_pob",
    "plumbing.product_disk_basis",
    "plumbing.pob_from_product_disks",
    "plumbing.star_sum_surface",
    "documents.parse_documents",
    "documents.pob_from",
    "documents.print_documents",
    "cli.main",
)

# A word at least this long counts as long in `workload.long_word_share`.
LONG_WORD = 16


class Tracer:
    def __init__(self):
        self.kind: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # arguments kept for counting distinct values once tracing is over
        self.presentations: list = []
        self.books_validated: list = []
        self.books_decided: list = []
        self.reduce_changed = 0
        self.longest_word = 0
        self.word_queries = 0
        self.long_word_queries = 0
        self.bytes_in = 0
        self.bytes_out = 0

    # -- observers: run after a call returns, outside its span --------------

    def _on_reduce(self, args, out):
        n = len(args[1].crossings)
        self.longest_word = max(self.longest_word, n)
        # reduce only cancels letters and keeps both endpoints
        self.reduce_changed += len(out.crossings) != n

    def _on_word_query(self, args, out):
        self.word_queries += 1
        self.long_word_queries += max(len(a.crossings) for a in args[1:3]) >= LONG_WORD

    def _observers(self):
        return {
            "surface.validate": lambda args, out: self.presentations.append(args[0]),
            "openbook.validate_pob": lambda args, out: self.books_validated.append(args[0]),
            "openbook.contact_verdict": lambda args, out: self.books_decided.append(args[0]),
            "arcs.reduce": self._on_reduce,
            "arcs.minimal_position": self._on_word_query,
            "arcs.is_embedded": self._on_word_query,
            "documents.parse_documents": self._on_parse,
            "documents.print_documents": self._on_print,
        }

    def _on_parse(self, args, out):
        self.bytes_in += len(args[0].encode("utf-8"))

    def _on_print(self, args, out):
        self.bytes_out += len(out.encode("utf-8"))

    # -- installing ----------------------------------------------------------

    def _wrap(self, index: int, fn, observe):
        kind, start, end, parent, stack = self.kind, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(kind)
            kind.append(index)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def install(self) -> None:
        observers = self._observers()
        wrappers = {}
        for index, qual in enumerate(LAYER_FUNCTIONS):
            module, name = qual.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"plumbook.{module}"), name)
            # fn stays referenced by its module, so its id cannot be reused
            wrappers[id(fn)] = self._wrap(index, fn, observers.get(qual))
        for modname, module in list(sys.modules.items()):
            if modname != "plumbook" and not modname.startswith("plumbook."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- reporting -----------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per layer function.  Self time is a
        span's duration minus the durations of the spans directly inside it."""
        n = len(self.kind)
        inner = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                inner[p] += self.end[i] - self.start[i]
        stats = {q: [0, 0, 0] for q in LAYER_FUNCTIONS}
        for i in range(n):
            row = stats[LAYER_FUNCTIONS[self.kind[i]]]
            d = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += d
            row[2] += d - inner[i]
        return {
            q: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
            for q, (c, t, s) in stats.items()
        }

    def summary(self) -> dict:
        return {
            "layers": self.layer_stats(),
            "distinct_presentations": len(set(self.presentations)),
            # a book is one object handed to validate_pob, however many
            # equal books the workload builds (they are kept alive, so ids are unique)
            "books_validated": len({id(b) for b in self.books_validated}),
            "distinct_books_decided": len(set(self.books_decided)),
            "reduce_changed": self.reduce_changed,
            "longest_word": self.longest_word,
            "word_queries": self.word_queries,
            "long_word_queries": self.long_word_queries,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }

    def write_spans(self, path) -> None:
        """All spans as [function, start_ns, end_ns, parent span index]."""
        spans = [
            [LAYER_FUNCTIONS[k], s, e, p]
            for k, s, e, p in zip(self.kind, self.start, self.end, self.parent)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans}, fh)
