"""Spans around every public function and method of ``sftreturns``.

The tracer wraps each module's public functions, public methods of its
classes, and ``__init__`` of its plain (non-dataclass) classes.  Modules
import names from each other directly, so a wrapper replaces the original
in every module namespace, and in module-level dicts such as
``cli.COMMANDS``, that holds it.  Spans are (id, parent, name, start, end,
attrs) in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import threading
import time
import types
from pathlib import Path

LAYERS = ("cli", "deviations", "montecarlo", "oracle", "perron", "return_op", "system", "thermo")


def _law_attrs(args, kwargs, law):
    return {"t_max": law.t_max, "kernel_bytes": law.kernels.size * law.kernels.itemsize}


def _return_attrs(args, kwargs, stats):
    return {"samples": int(stats.samples.size), "steps": int(stats.samples.sum())}


def _visit_attrs(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"steps": int(cfg.n_samples) * int(cfg.horizon)}


# values a span keeps from its result, read off public fields and array shapes
ATTRIBUTES = {
    "perron.perron_eigendata": lambda args, kwargs, data: {"iterations": data.iterations},
    "oracle.first_return_law": _law_attrs,
    "montecarlo.sample_return_times": _return_attrs,
    "montecarlo.visit_counts": _visit_attrs,
}


@dataclasses.dataclass(slots=True)
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        extract = ATTRIBUTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), stack[-1] if stack else 0, name, 0.0, 0.0)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if extract is not None:
                span.attrs = extract(args, kwargs, result)
            return result

        return traced

    def install(self, package: types.ModuleType) -> int:
        """Wrap the public callables of every layer module; returns how many."""
        modules = [getattr(package, layer) for layer in LAYERS]
        replaced: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__ or name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, tuple):
                    self._wrap_methods(layer, obj)
        for namespace in [vars(package)] + [vars(m) for m in modules]:
            for name, obj in list(namespace.items()):
                if id(obj) in replaced:
                    namespace[name] = replaced[id(obj)]
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]
        return len(replaced)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            public = not attr.startswith("_")
            if attr == "__init__":
                public = not dataclasses.is_dataclass(cls)
            if public and inspect.isfunction(value):
                setattr(cls, attr, self.wrap(f"{layer}.{cls.__name__}.{attr}", value))

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end\n")
            for s in self.spans:
                fh.write(f"{s.id},{s.parent},{s.name},{s.start:.9f},{s.end:.9f}\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the time covered by its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


def has_ancestor(spans: list[Span], name: str) -> set[int]:
    """Ids of the spans that run inside a span called ``name``."""
    by_id = {s.id: s for s in spans}
    inside: set[int] = set()
    for s in spans:
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == name:
                inside.add(s.id)
                break
            p = by_id.get(p.parent)
    return inside
