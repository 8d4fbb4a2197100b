"""Spans around the program's public functions, installed from outside.

``Tracer.install`` wraps every public function of the package's working
modules and rebinds the wrapper in every module namespace that holds the
function, so ``revise`` is timed whether ``operators``, ``postulates``,
``conditionals`` or ``cli`` calls it.  Three private hooks are counted
too: ``Tpo.__post_init__`` (one per preorder validation),
``_Ctx.witness`` (one per witness built) and each postulate's scan
generator (one call per outer preorder or preorder pair).

Entry points named in ``FULL_SPANS`` get one span record each (name,
label, start, end, parent span, self time).  Every other call is added
to an aggregate keyed by (nearest enclosing full span, function): count,
total time and self time.  Self time is a call's duration minus the
time covered by the wrapped calls made inside it, so per op the self
times add up to the root span.  Nothing is written until ``dump``.

A few constant-time helpers are left unwrapped because their callers run
them per world or per preorder and a wrapper would cost more than the
call; their time counts as their caller's self time.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time

MODULES = ("lang", "tpo", "operators", "conditionals", "postulates", "cli")
FULL_SPANS = {
    "cli.main",
    "postulates.verify_claim",
    "postulates.check_postulate",
    "postulates.postulate_holds",
    "postulates.check_diagram",
    "conditionals.rational_closure",
    "cli.closure_answer",
}
UNWRAPPED = {
    "lang.all_worlds",
    "lang.world_count",
    "lang.world_str",
    "lang.parse_world",
    "lang.atom_holds",
    "lang.check_atoms",
}
ROOT = "op"


class Tracer:
    def __init__(self):
        self.frames = [[0.0]]  # child time of each open call
        self.parents = [ROOT]  # names of the open full spans
        self.parent_ids = [-1]
        self.spans = []
        self.agg = {}
        self.counts = {}
        self.missing = []

    # -- wrappers ---------------------------------------------------------

    def _close(self, name, frame, duration):
        self.frames.pop()
        self.frames[-1][0] += duration
        key = (self.parents[-1], name)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[0]

    def aggregate(self, fn, name):
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            self.frames.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, perf() - start)

        return wrapper

    def generator(self, fn, name):
        """Time each resumption of a generator; count the items it yields."""
        perf = time.perf_counter
        counts = self.counts
        yielded = name + ".yielded"

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                self.frames.append(frame)
                start = perf()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(name, frame, perf() - start)
                counts[yielded] = counts.get(yielded, 0) + 1
                yield item

        return wrapper

    def full_span(self, fn, name):
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            span_id = len(self.spans)
            record = {
                "id": span_id,
                "name": name,
                "label": args[0] if args and isinstance(args[0], str) else "",
                "parent": self.parent_ids[-1],
            }
            self.spans.append(record)
            self.frames.append(frame)
            self.parents.append(name)
            self.parent_ids.append(span_id)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                self.parents.pop()
                self.parent_ids.pop()
                self.frames.pop()
                self.frames[-1][0] += end - start
                record.update(start=start, end=end, self=end - start - frame[0])

        return wrapper

    def counter(self, fn, name):
        counts = self.counts
        parents = self.parents

        def wrapper(*args, **kwargs):
            key = f"{parents[-1]}>{name}"
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package="beliefchange"):
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        namespaces = modules + [importlib.import_module(package)]
        wrapped = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in UNWRAPPED:
                    continue
                if name in FULL_SPANS:
                    wrapped[fn] = self.full_span(fn, name)
                elif inspect.isgeneratorfunction(fn):
                    wrapped[fn] = self.generator(fn, name)
                else:
                    wrapped[fn] = self.aggregate(fn, name)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(namespace, attr, wrapped[value])
        self._install_hooks(package)

    def _install_hooks(self, package):
        tpo = importlib.import_module(f"{package}.tpo")
        postulates = importlib.import_module(f"{package}.postulates")
        tpo_class = getattr(tpo, "Tpo", None)
        if tpo_class is not None and "__post_init__" in vars(tpo_class):
            tpo_class.__post_init__ = self.aggregate(tpo_class.__post_init__, "tpo.construct")
        else:
            self.missing.append("tpo.Tpo.__post_init__")
        ctx_class = getattr(postulates, "_Ctx", None)
        if ctx_class is not None and "witness" in vars(ctx_class):
            ctx_class.witness = self.aggregate(ctx_class.witness, "postulates.witness")
        else:
            self.missing.append("postulates._Ctx.witness")
        table = getattr(postulates, "_POSTULATES", None)
        if isinstance(table, dict):
            for key, spec in table.items():
                if dataclasses.is_dataclass(spec) and hasattr(spec, "gen"):
                    table[key] = dataclasses.replace(
                        spec, gen=self.counter(spec.gen, "postulates.outer")
                    )
        else:
            self.missing.append("postulates._POSTULATES")

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "agg": [[parent, name, *rec] for (parent, name), rec in self.agg.items()],
            "counts": self.counts,
            "missing": self.missing,
        }
