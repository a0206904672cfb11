"""Spans around calls into immaculate's modules, installed from outside.

The benchmark never edits the package.  In a traced child process it wraps
the public functions and methods that one module calls in another, so every
crossing of a module boundary becomes a span named ``<module>.<function>``.
Spans stay in memory and are written out when the outermost span of the
process closes (pool workers) or when the child ends (the main process).

Timestamps come from ``time.perf_counter``, which is CLOCK_MONOTONIC on
Linux: one timeline for every process of a run, so spans written by forked
pool workers line up with their parent's.

Hot per-cell helpers (``Composition.hook_length``, ``hook_cells``,
``require_cell``) are deliberately not wrapped: the object API calls them
thousands of times per call and a span there would cost more than the work.
Their time counts to the layer that calls them.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

CLOCK = time.perf_counter

# Layer names as metric prefixes: a metric name may not start with "_".
LAYERS = ("_kernels", "enumeration", "bijection", "tableau", "composition", "cli")


def metric_prefix(layer: str) -> str:
    return layer.lstrip("_")


class Tracer:
    """Span stack and span list of one process; survives fork into pool workers."""

    def __init__(self, out_dir: Path, run_id: str, workload: str):
        self.out_dir = Path(out_dir)
        self.run_id = run_id
        self.workload = workload
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.base = 0
        self.forked = False
        self.next_id = 0

    def _after_fork(self) -> None:
        # A forked worker inherits the parent's open spans as its parents and
        # a copy of spans already recorded, which the parent writes itself.
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.base = len(self.stack)
            self.forked = True

    def wrap(self, name: str, fn, count=None):
        """fn with a span around each call; count(args, result) -> {kind: n}."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._after_fork()
            sid = f"{self.pid}.{self.next_id}"
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = CLOCK()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = CLOCK()
                self.stack.pop()
                span = {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                if count is not None and result is not None:
                    span["counts"] = count(args, result)
                self.spans.append(span)
                if self.forked and len(self.stack) == self.base:
                    self.flush()

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function whose creation and every resumption is a span."""
        create = self.wrap(name, fn)
        step = self.wrap(name, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = create(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return traced

    def flush(self) -> None:
        if not self.spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps({**span, "pid": self.pid, "workload": self.workload,
                                     "run": self.run_id}) + "\n")
        self.spans = []


def _scan_count(args, result):
    n = args[2] - args[1]
    return {"roundtrips": n, "fillings": n}


def _pair_scan_count(args, result):
    return {"roundtrips": args[3] - args[2]}


def _verify_count(args, result):
    if result.mode == "sampled":
        done = result.x_checked + result.y_checked
        return {"roundtrips": done, "samples": done}
    return {}


def install(tracer: Tracer) -> None:
    """Wrap the cross-module entry points of every layer of immaculate."""
    import immaculate
    from immaculate import _kernels, bijection, cli, composition, enumeration, tableau

    modules = (immaculate, _kernels, bijection, cli, composition, enumeration, tableau)

    def rebind(module, name, count=None, generator=False):
        original = getattr(module, name)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        wrapped = (tracer.wrap_generator(label, original) if generator
                   else tracer.wrap(label, original, count))
        for m in modules:
            if getattr(m, name, None) is original:
                setattr(m, name, wrapped)

    def patch(cls, layer, names):
        for name in names:
            raw = cls.__dict__[name]
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(tracer.wrap(f"{layer}.{cls.__name__}.{name}",
                                                           raw.__func__)))
            else:
                setattr(cls, name, tracer.wrap(f"{layer}.{cls.__name__}.{name}", raw))

    for name in ("parse_composition", "count_formula"):
        rebind(composition, name)
    rebind(composition, "compositions", generator=True)
    patch(composition.Composition, "composition",
          ("__init__", "hook_lengths", "hook_product", "cell_order"))

    for name in ("parse_grid_text", "format_grid_text"):
        rebind(tableau, name)
    patch(tableau.Tableau, "tableau",
          ("__init__", "from_flat", "parse", "from_text", "flat", "to_text", "is_standard",
           "is_standard_immaculate", "is_prefix_standard"))

    rebind(bijection, "straighten", count=lambda a, r: {"roundtrips": 1})
    rebind(bijection, "unstraighten")
    patch(bijection.HookTableau, "bijection", ("__init__", "to_text"))
    patch(bijection.Pair, "bijection", ("parse", "to_text"))

    rebind(enumeration, "verify_bijection", count=_verify_count)
    for name in ("count_brute", "count_recursive", "random_standard_filling",
                 "random_standard_immaculate", "random_hook_tableau"):
        rebind(enumeration, name)
    rebind(enumeration, "enumerate_standard_immaculate", generator=True)

    rebind(cli, "main")

    # The kernel class may be a compiled extension type whose methods cannot
    # be replaced, so a subclass carries the spans and takes its name in the
    # backend module, where get_backend() callers look it up.
    base = _kernels.ShapeOps
    counts = {"scan_fillings": _scan_count, "scan_pairs": _pair_scan_count,
              "count_standard": lambda a, r: {"fillings": a[0].n_factorial}}
    methods = {
        name: tracer.wrap(f"_kernels.ShapeOps.{name}", getattr(base, name), counts.get(name))
        for name in ("__init__", "straighten", "unstraighten", "scan_fillings", "scan_pairs",
                     "count_standard", "is_standard_immaculate")
    }
    traced_ops = type("ShapeOps", (base,), methods)
    _kernels.ShapeOps = traced_ops
    setattr(_kernels.get_backend(), "ShapeOps", traced_ops)


# -- analysis ---------------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def load(out_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines() if line)
    return spans


def layer_split(spans: list[dict], wall_start: float, wall_end: float) -> dict:
    """Self time per layer, the uncovered residual of the wall, and counts.

    A span's self time is its duration minus the union of its children's
    intervals; children in pool workers run concurrently, so the layers'
    self times are busy times and may add up to more than the wall.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    self_s = {layer: 0.0 for layer in LAYERS}
    counts = {"roundtrips": 0, "fillings": 0, "samples": 0}
    for s in spans:
        own = s["end"] - s["start"] - _covered(children.get(s["id"], ()), s["start"], s["end"])
        self_s[s["name"].split(".", 1)[0]] += own
        for kind, n in s.get("counts", {}).items():
            counts[kind] += n
    covered = _covered([(s["start"], s["end"]) for s in spans], wall_start, wall_end)
    return {"self_s": self_s, "residual_s": (wall_end - wall_start) - covered,
            "counts": counts, "spans": len(spans)}
