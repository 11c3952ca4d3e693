"""Layer timings and operation counts for matspan, taken from outside.

Nothing in ``src/`` is changed.  ``SpanRecorder.install`` replaces each
function in ``SPANNED`` by a timing wrapper, both in the module that
defines it and in every other loaded ``matspan`` module that imported it
by name, since ``span`` calls ``rank``, ``eigen_data`` and others through
its own globals.  ``install_counters`` wraps the ``Elem`` and ``Mat``
operators, in a separate pass, so that counting does not inflate the
span times.  Both act on the ``matspan`` modules currently in
``sys.modules``; a fresh import undoes them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, function) pairs timed as spans; each name is "<module>.<function>"
SPANNED = (
    ("matrices", "rank"),
    ("matrices", "eigen_data"),
    ("span", "products_matrix"),
    ("span", "coupling_condition"),
    ("span", "pbh_test"),
    ("polys", "factor"),
    ("polys", "embed"),
    ("polys", "smallest_irreducible"),
    ("polys", "canonical_field"),
    ("counting", "enumerate_products"),
    ("instances", "parse_instance"),
)

# memoized functions whose cache_info() deltas give hit ratios
CACHED = (("matrices", "charpoly"), ("matrices", "minpoly"), ("matrices", "eigen_data"))

# (module, class, method, counter name)
COUNTED = (
    ("fields", "Elem", "__mul__", "fields.mul"),
    ("fields", "Elem", "inv", "fields.inv"),
    ("matrices", "Mat", "__matmul__", "matrices.matmul"),
)


def _loaded():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "matspan" or name.startswith("matspan."))]


def _replace_everywhere(original, replacement, attr):
    for mod in _loaded():
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, replacement)


def cache_counts():
    """{name: (hits, misses)} of the memoized functions as loaded now."""
    out = {}
    for mod, fn in CACHED:
        cached = getattr(sys.modules[f"matspan.{mod}"], fn)
        while not hasattr(cached, "cache_info"):  # under a span wrapper
            cached = cached.__wrapped__
        info = cached.cache_info()
        out[f"{mod}.{fn}"] = (info.hits, info.misses)
    return out


def cache_delta(before, after):
    return {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}


class SpanRecorder:
    """Spans kept in flat arrays; per-name call counts and self times are
    summed as spans close.  A span's self time is its duration minus the
    durations of the spans it directly encloses."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.op = -1
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = []
        self.self_ns = []
        self._stack = []  # [span index, ns covered by direct children]
        self.child_cache = {}  # cache_info() deltas reported by children

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def _open(self, nid, start):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_op.append(self.op)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(start)
        self.span_end.append(start)
        self._stack.append([idx, 0])

    def _close(self, nid, start, end):
        idx, covered = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.calls[nid] += 1
        self.self_ns[nid] += dur - covered
        if self._stack:
            self._stack[-1][1] += dur

    def wrap(self, name, fn):
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            self._open(nid, start)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(nid, start, clock())

        return traced

    def install(self):
        for mod, fn in SPANNED:
            original = getattr(sys.modules[f"matspan.{mod}"], fn)
            _replace_everywhere(original, self.wrap(f"{mod}.{fn}", original), fn)

    def span(self, name):
        """Context manager for a span opened by the harness itself."""
        return _HarnessSpan(self, self._name_id(name))

    def absorb(self, record):
        """Merge what a child process recorded (see export), under the
        current op."""
        names = record["names"]
        base = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        for name, count, ns in zip(names, record["calls"], record["self_ns"]):
            nid = self._name_id(name)
            self.calls[nid] += count
            self.self_ns[nid] += ns
        for nid, par, start, end in record["spans"]:
            self.span_name.append(self._name_id(names[nid]))
            self.span_op.append(self.op)
            self.span_parent.append(parent if par < 0 else base + par)
            self.span_start.append(start)
            self.span_end.append(end)
        for key, (hits, misses) in record["cache"].items():
            h, m = self.child_cache.get(key, (0, 0))
            self.child_cache[key] = (h + hits, m + misses)

    def totals(self):
        return {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_ns)}

    def export(self):
        """JSON-ready record of names, totals and every span."""
        return {
            "names": self.names,
            "calls": list(self.calls),
            "self_ns": list(self.self_ns),
            "spans": [[self.span_name[i], self.span_parent[i],
                       self.span_start[i], self.span_end[i]]
                      for i in range(len(self.span_start))],
        }

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\top\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_op[i]}\t"
                         f"{self.span_parent[i]}\t{self.span_start[i]}\t"
                         f"{self.span_end[i]}\n")


class _HarnessSpan:
    def __init__(self, rec, nid):
        self.rec, self.nid = rec, nid

    def __enter__(self):
        self.start = time.perf_counter_ns()
        self.rec._open(self.nid, self.start)

    def __exit__(self, *exc):
        self.rec._close(self.nid, self.start, time.perf_counter_ns())


def install_counters():
    """Count calls of the Elem and Mat operators; returns the live dict."""
    counts = {name: 0 for _, _, _, name in COUNTED}
    for mod, cls_name, meth, name in COUNTED:
        cls = getattr(sys.modules[f"matspan.{mod}"], cls_name)
        original = cls.__dict__[meth]

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        setattr(cls, meth, counted)
    return counts
