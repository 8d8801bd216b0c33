"""Span recording around calls into the library, from outside it.

``Tracer.install`` rebinds every public module-level function of the
traced modules, in every ``semigroupoids`` module that holds a reference
to it, to a wrapper that records one span per call: function, start,
end, parent span and item id. Spans stay in memory until ``dump``.
Only the traced process installs the wrappers, and they record nothing
while ``on`` is false, so untimed work between items leaves no spans.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

MODULES = (
    "core", "inverse", "posets", "congruences", "actions",
    "globalization", "ptheorem", "corpus", "io", "cli",
)

# The functions whose calls and self time are reported one by one.
REPORTED = {
    "core": ("validate_semigroupoid", "validate_morphism"),
    "inverse": ("promote_to_inverse", "is_groupoid"),
    "posets": ("validate_poset", "validate_semilatticeoid"),
    "congruences": (
        "sigma", "sigma_by_equations", "validate_congruence",
        "congruence_closure", "quotient", "is_e_unitary", "is_idempotent_pure",
    ),
    "actions": (
        "validate_partial_action_E", "validate_partial_action_P",
        "check_equivariant", "restrict_global",
    ),
    "globalization": ("globalize", "check_lemma_tec", "universal_map"),
    "ptheorem": (
        "munn_action", "induced_sigma_action", "semidirect_product",
        "ptheorem_bundle", "mcalister_from_action",
    ),
    "corpus": ("enumerate_inverse_semigroupoids",),
    "io": ("load_structure", "canonical_dumps"),
    "cli": ("cross_checks",),
}

# Calls per item, counted inside items only, where a count above one is
# repeated work.
PER_ITEM = (
    ("congruences", "sigma"),
    ("congruences", "quotient"),
    ("inverse", "promote_to_inverse"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one entry per span, column by column, to keep a long run's spans
        # small: function index, start, end, parent span or -1, item id,
        # and whether the span counts as a call
        self.columns = (
            array("i"), array("d"), array("d"), array("i"), array("i"), array("b"),
        )
        self.stack: list[int] = []
        # what each item is, by item id; spans outside any item have id -1
        self.labels: list[str] = []
        self.item = -1
        self.on = False

    def spans(self):
        """Every span as (function, start, end, parent, item, call)."""
        return zip(*self.columns)

    # ---------------------------------------------------------- wrapping

    def install(self) -> None:
        originals = {}
        for short in MODULES:
            module = sys.modules[f"semigroupoids.{short}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    originals[id(value)] = (value, f"{short}.{attr}")
        wrappers = {
            key: self._wrap(fn, name) for key, (fn, name) in originals.items()
        }
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "semigroupoids" and not mod_name.startswith("semigroupoids."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)])

    def _wrap(self, fn, name: str):
        code = len(self.names)
        self.names.append(name)
        codes, starts, ends, parents, items, calls = self.columns
        stack = self.stack

        def open_span(is_call: bool) -> int:
            idx = len(codes)
            codes.append(code)
            ends.append(0.0)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            calls.append(is_call)
            stack.append(idx)
            starts.append(perf_counter())
            return idx

        if inspect.isgeneratorfunction(fn):
            # One span per resumption; only the first counts as a call.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    if not self.on:
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        yield value
                        continue
                    idx = open_span(first)
                    first = False
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = perf_counter()
                        stack.pop()
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = open_span(True)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return wrapper

    # --------------------------------------------------------- reporting

    def totals(self, items=None) -> dict[str, tuple[int, float]]:
        """Function name -> (calls, self seconds), over every span or only
        those of the given item ids. Self time is a span's duration minus
        the durations of its direct child spans."""
        child = [0.0] * len(self.columns[0])
        for _code, t0, t1, parent, _item, _call in self.spans():
            if parent >= 0:
                child[parent] += t1 - t0
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, (code, t0, t1, _parent, item, is_call) in enumerate(self.spans()):
            if items is not None and item not in items:
                continue
            calls[code] += is_call
            self_s[code] += (t1 - t0) - child[i]
        return {
            name: (calls[code], self_s[code]) for code, name in enumerate(self.names)
        }

    def layer_metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric: name -> (value, unit)."""
        totals = self.totals()
        out: dict[str, tuple[float, str]] = {}
        for module, functions in REPORTED.items():
            for fn in functions:
                calls, self_s = totals[f"{module}.{fn}"]
                out[f"{module}.{fn}.calls"] = (calls, "count")
                out[f"{module}.{fn}.self_s"] = (self_s, "s")
        for module in MODULES:
            out[f"{module}.self_s"] = (
                sum(s for name, (_c, s) in totals.items()
                    if name.startswith(module + ".")),
                "s",
            )
        in_items = self.totals(range(len(self.labels)))
        for module, fn in PER_ITEM:
            out[f"{module}.{fn}.calls_per_item"] = (
                in_items[f"{module}.{fn}"][0] / items, "calls/item",
            )
        return out

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines: a header naming the
        functions and the items, then one [function, start, end, parent,
        item, call] row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"functions": self.names, "items": self.labels}) + "\n")
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")

    @classmethod
    def load(cls, path: str) -> "Tracer":
        """A tracer holding the spans and names of a file from ``dump``."""
        tracer = cls()
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            tracer.names, tracer.labels = header["functions"], header["items"]
            for line in fh:
                for column, value in zip(tracer.columns, json.loads(line)):
                    column.append(value)
        return tracer
