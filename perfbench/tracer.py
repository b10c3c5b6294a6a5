"""Timing spans around leggettlab's public entry points, recorded from outside the package.

Run as a script, this file stands in for the CLI in a fresh interpreter:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json RUN_ID -- <cli arguments>

It imports ``leggettlab.cli`` (recorded as the span ``cli.import``),
wraps every public function of the traced modules, the
``DiagonalScanner`` methods and each name under which another module
imported one of those functions, runs ``cli.main`` on the arguments,
writes the spans to SPANS.json and exits with the CLI's exit code.
Spans stay in memory until then and nothing is printed, so the
command's stdout bytes are the CLI's own.

A span records its name (``<module>.<function>``), start, end, parent,
thread, run id and the counts of work it did.  A span opened on a
worker thread with nothing open on that thread takes as parent the
innermost span open on the main thread, which is blocked waiting for
the worker.  The functions below the script part compute self times
from the recorded spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from time import perf_counter

MODULES = ("cli", "scan", "kernels", "hidden_variables", "montecarlo", "inequalities", "_json")
METHODS = (("kernels", "DiagonalScanner", ("__init__", "scan", "collect")),)


class Tracer:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._plane_points: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append({"name": name, "start": start, "end": end, "parent": None,
                           "thread": threading.get_ident(), "counts": {}})

    def wrap(self, name: str, fn):
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1]["name"] == name:
                return fn(*args, **kwargs)  # a recursive call (render) stays in the outer span
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = {"name": name, "start": perf_counter(), "end": None, "parent": parent,
                    "thread": threading.get_ident(), "counts": {}}
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                stack.pop()
            if count is not None:
                span["counts"] = count(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public entry points and every module-level name bound to one of them."""
        package = {short: sys.modules[f"leggettlab.{short}"] for short in MODULES}
        wrappers = {}
        for short, module in package.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        for short, cls_name, methods in METHODS:
            cls = getattr(package[short], cls_name)
            for method in methods:
                setattr(cls, method, self.wrap(f"{short}.{cls_name}.{method}", getattr(cls, method)))
        for name, module in list(sys.modules.items()):
            if name == "leggettlab" or name.startswith("leggettlab."):
                for attr, value in list(vars(module).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, attr, entry[1])

    def dump(self, path: str) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [{"name": s["name"], "start": s["start"], "end": s["end"],
                 "parent": -1 if s["parent"] is None else index[id(s["parent"])],
                 "thread": s["thread"], "run": self.run_id, "counts": s["counts"]}
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def _init_counts(tracer: Tracer, args, kwargs, result) -> dict:
    scanner, alphas, betas = args[:3]
    tracer._plane_points[id(scanner)] = len(alphas) * len(betas)
    return {"plane_points": len(alphas) * len(betas)}


def _scan_counts(tracer: Tracer, args, kwargs, result) -> dict:
    plane = tracer._plane_points[id(args[0])]
    return {"points": len(args[1]) * plane, "plane_points": plane,
            "over_slices": int((result[3] > 0).sum())}


def _collect_counts(tracer: Tracer, args, kwargs, result) -> dict:
    return {"points": tracer._plane_points[id(args[0])], "returned": len(result[2])}


def _frechet_counts(tracer: Tracer, args, kwargs, result) -> dict:
    method = args[2] if len(args) > 2 else kwargs.get("method", "lp")
    return {"lp_solves": 2 if method == "lp" else 0}


def _sample_counts(tracer: Tracer, args, kwargs, result) -> dict:
    return {"samples": int(result.n_total)}


_COUNTS = {
    "cli.main": lambda t, a, k, r: {"command": a[0][0] if a and a[0] else ""},
    "scan.grid_scan": lambda t, a, k, r: {"points": int(r.grid_points)},
    "kernels.DiagonalScanner.__init__": _init_counts,
    "kernels.DiagonalScanner.scan": _scan_counts,
    "kernels.DiagonalScanner.collect": _collect_counts,
    "kernels.plane_row_scan": lambda t, a, k, r: {"points": len(a[1]) * len(a[2])},
    "hidden_variables.frechet_range": _frechet_counts,
    "montecarlo.sample_pairs": _sample_counts,
    "montecarlo.simulate_hv": _sample_counts,
    "_json.render": lambda t, a, k, r: {"bytes": len(r)},
}


def _traced_cli(argv: list) -> int:
    spans_path, run_id, separator, cli_args = argv[0], argv[1], argv[2], argv[3:]
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS.json RUN_ID -- <cli arguments>")
    tracer = Tracer(run_id)
    started = perf_counter()
    import leggettlab.cli as cli

    tracer.record("cli.import", started, perf_counter())
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


# ---------------------------------------------------------------------------
# Self time.  Intervals are (start, end) pairs; a merged list is sorted
# and disjoint.
# ---------------------------------------------------------------------------


def merge(intervals) -> list:
    """Union of intervals as a sorted disjoint list."""
    out: list = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return out


def measure(merged) -> float:
    return sum(end - start for start, end in merged)


def self_intervals(spans: list) -> list:
    """For each span of one process, its interval minus the union of its children's."""
    children: list = [[] for _ in spans]
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append(span)
    out = []
    for span, kids in zip(spans, children):
        start, end = span["start"], span["end"]
        covered = merge((max(k["start"], start), min(k["end"], end)) for k in kids
                        if k["end"] > start and k["start"] < end)
        free, cursor = [], start
        for a, b in covered:
            if a > cursor:
                free.append((cursor, a))
            cursor = max(cursor, b)
        if end > cursor:
            free.append((cursor, end))
        out.append(free)
    return out


def layer_self_s(spans: list, skip=("cli.import",)) -> dict:
    """Wall time during which each layer's own code ran, parallel spans counted once."""
    by_layer: dict = {}
    for span, free in zip(spans, self_intervals(spans)):
        if span["name"] not in skip:
            by_layer.setdefault(span["name"].split(".")[0], []).extend(free)
    return {layer: measure(merge(parts)) for layer, parts in by_layer.items()}


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))
