"""Spans recorded from outside the program, around its public functions.

Each traced function is replaced at every module attribute that binds
it (the name its callers look it up by), so ``ropealign.cli.matrix_csv``
and ``ropealign.harness.matrix_csv`` both record ``harness.matrix_csv``.
Spans are kept in memory as ``[name, start, end, parent, size]`` and
written out by the caller at the end; ``size`` is the length of a
returned string (the functions traced return ASCII text, so it is the
byte count).  A function a later version no longer has is skipped, and
its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import threading
import time

# Span names: "<module>.<function>" or "<module>.<Class>.<method>" under ropealign.
TRACED = (
    "cli.main",
    "cli.build_parser",
    "rope.apply_rope_many",
    "decay.decay_profile",
    "decay.monte_carlo_expected_dot",
    "layout.build_layout",
    "layout.token_counts",
    "layout.LayoutPlan.from_json",
    "layout.LayoutPlan.to_json",
    "layout.LayoutPlan.slot_roles",
    "idalign.assign_position_ids",
    "idalign.id_span_report",
    "idalign.map_highres_ids",
    "idalign.correspondence_oracle",
    "harness.matrix_csv",
    "harness.attention_scores",
    "harness.relative_distance_matrix",
    "harness.population_gaussian",
    "harness.alignment_gain_report",
)


class Tracer:
    """Records spans only while ``active`` is true."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self._local = threading.local()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if isinstance(out, str):
                span[4] = len(out)
            return out

        return traced

    def install(self, package) -> list[str]:
        """Wrap every name in ``TRACED``; returns the names not found."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
            if m.name != "__main__"
        ]
        missing = []
        for name in TRACED:
            mod_name, *path = name.split(".")
            try:
                owner = importlib.import_module(f"{package.__name__}.{mod_name}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                raw = owner.__dict__[path[-1]] if path[:-1] else getattr(owner, path[-1])
            except (ImportError, AttributeError, KeyError):
                missing.append(name)
                continue
            if path[:-1]:  # a method or classmethod, patched on its class
                if isinstance(raw, classmethod):
                    setattr(owner, path[-1], classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, path[-1], self.wrap(name, raw))
                continue
            traced = self.wrap(name, raw)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, attr, traced)
        return missing


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and returned bytes.

    Self time is a span's duration minus the part of it its child spans
    cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _size in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for i, (name, start, end, _parent, size) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += end - start - covered
        rec["bytes"] += size or 0
    return out


def direct_children_s(spans: list[list], name: str) -> float:
    """Total duration of the spans whose parent span is called ``name``."""
    return sum(e - s for _n, s, e, parent, _b in spans if parent is not None and spans[parent][0] == name)
