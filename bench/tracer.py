"""In-process span tracer for the clicktomo modules.

The tracer wraps every function named in each layer module's ``__all__`` as
it stands at run time, skipping names that are gone, and patches every
``clicktomo.*`` namespace that holds a reference to one of them (``cli``,
``wigner`` and ``measurement`` import functions by name).  A span records
its stage invocation, name, layer, start, end and parent; spans stay in
memory until the caller writes them out.

The span stack is shared by all threads, so the traced chain must run the
CLI single-threaded (``--threads 1``, the default).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "clicktomo"
LAYERS = ("fock", "measurement", "em", "wigner", "recover", "io_csv", "config", "cli")

# span tuple fields
STAGE, NAME, LAYER, START, END, PARENT = range(6)


class Tracer:
    """Context manager: patches the layer functions on entry, restores on exit."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._stage_id = -1
        self._patches: list = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{PACKAGE}.{layer}":
                    raise
                continue
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", layer, fn))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1]
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, layer: str, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (self._stage_id, name, layer, t0, t1, parent)

    def _wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, layer, t0)

        return traced

    @contextmanager
    def stage(self, name: str):
        """Root span of one stage invocation; its spans share a new id."""
        self._stage_id += 1
        idx, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, f"cli.{name}", "cli", t0)


def summarize(spans) -> dict[str, float]:
    """Per-layer self time and call counts of finished spans.

    A span's self time is its duration minus its direct children's; the
    children of one span run one after another, so their sum is the part of
    the interval they cover.  ``cli.self_s`` is therefore stage time minus
    every layer span inside it, and the self times add up to ``trace.chain_s``.
    ``io_csv.read_s`` / ``io_csv.write_s`` are the inclusive times of the
    outermost ``io_csv`` ``read_*`` / ``write_*`` calls.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    io_s = {"read_": 0.0, "write_": 0.0}
    chain = 0.0
    for i, span in enumerate(spans):
        duration = span[END] - span[START]
        self_s[span[LAYER]] += duration - child[i]
        calls[span[LAYER]] += 1
        parent = span[PARENT]
        if parent < 0:
            chain += duration
        elif span[LAYER] == "io_csv" and spans[parent][LAYER] != "io_csv":
            fn = span[NAME].split(".", 1)[1]
            for prefix in io_s:
                if fn.startswith(prefix):
                    io_s[prefix] += duration
    out = {"trace.chain_s": chain}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    out["io_csv.read_s"] = io_s["read_"]
    out["io_csv.write_s"] = io_s["write_"]
    return out


def write_spans(path, spans) -> None:
    """One CSV line per span, times in seconds from the first span's start."""
    origin = min((s[START] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,stage_id,name,start_s,end_s,parent\n")
        for i, s in enumerate(spans):
            fh.write(
                f"{i},{s[STAGE]},{s[NAME]},{s[START] - origin:.9f},"
                f"{s[END] - origin:.9f},{s[PARENT]}\n"
            )
