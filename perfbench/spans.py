"""Spans around the public functions of each zonoridge module, from outside.

Tracing rebinds module attributes: every module of the package that holds
the original function object -- the defining module, the package namespace
and every module that imported the name -- gets a wrapper that records a
span, and ``uninstall`` puts the originals back.  Nothing under ``src/``
changes.  A target that a refactor has removed is skipped and reports zero
calls.

A span is ``[name, start, end, parent, problem, thread]``.  The parent stack
is per thread: the split path solves parts on a thread pool, and a shared
stack would make a pool span the child of whatever the main thread was
running, which gives negative self times.  Spans opened on a pool thread are
roots of that thread; the problem id links them to their fit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "zonoridge"
#: (module, attribute) of every traced function; a dotted attribute is a method.
TARGETS = (
    ("dataset", "inject_uncertainty"),
    ("dataset", "abstract_missing"),
    ("dataset", "AbstractDataset.split"),
    ("learning", "fixed_point"),
    ("learning", "ridge_closed_form_real"),
    ("learning", "closed_form_symbolic_data"),
    ("learning", "build_transform"),
    ("learning", "build_non_data_system"),
    ("learning", "solve_non_data"),
    ("learning", "verify_fixed_point_residual"),
    ("zonotope", "mat_mul"),
    ("zonotope", "mat_vec"),
    ("zonotope", "real_mat_vec"),
    ("zonotope", "real_mat_mat"),
    ("zonotope", "mat_real"),
    ("zonotope", "linearize"),
    ("zonotope", "interval_hull"),
    ("zonotope", "interval_of"),
    ("zonotope", "box_join"),
    ("forms", "sum_forms"),
    ("inference", "predict_interval"),
    ("inference", "certify_robustness"),
    ("inference", "loss_interval"),
    ("inference", "parameter_intervals"),
    ("inference", "predict_interval_uncertain"),
    ("oracles", "ridge_concrete"),
    ("oracles", "sample_worlds"),
    ("oracles", "enumerate_worlds"),
)

#: Span name -> counter name for functions whose result length is counted.
COUNTED = {
    "dataset.split": "dataset.split.parts",
    "oracles.sample_worlds": "oracles.worlds",
    "oracles.enumerate_worlds": "oracles.worlds",
}

NAME, START, END, PARENT, PROBLEM, THREAD = range(6)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Records spans while installed; ``problem`` tags every span opened."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.problem = -1
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.problem,
               threading.get_ident()]
        stack.append(rec)
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield
        finally:
            self.end(rec)

    def _wrap(self, name: str, fn):
        counter = COUNTED.get(name)
        if inspect.isgeneratorfunction(fn):
            # The span must cover the work, which a generator defers until it
            # is iterated; so the traced call drains it and returns an
            # iterator over the items.
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                rec = self.begin(name)
                try:
                    items = list(fn(*args, **kwargs))
                finally:
                    self.end(rec)
                if counter:
                    self.counts[counter] += len(items)
                return iter(items)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                rec = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(rec)
                if counter:
                    self.counts[counter] += len(result)
                return result
        return traced

    # -- install / uninstall ----------------------------------------------
    def install(self) -> list[str]:
        """Wrap every target that exists; returns the names that were traced."""
        installed = []
        for module, attr in TARGETS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                continue
            name = span_name(module, attr)
            wrapper = self._wrap(name, fn)
            if path:
                self._rebind(owner, leaf, wrapper)
            else:
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, key, wrapper)
            installed.append(name)
        return installed

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def self_times(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds).

    Self time is a span's duration minus the durations of its children;
    children are nested on the span's own thread, so they do not overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for rec in spans:
        if rec[PARENT] is not None:
            child_time[id(rec[PARENT])] += rec[END] - rec[START]
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for rec in spans:
        entry = out[rec[NAME]]
        entry[0] += 1
        entry[1] += (rec[END] - rec[START]) - child_time[id(rec)]
    return {name: (calls, s) for name, (calls, s) in out.items()}


def pool_overlap(spans: list[list], main_thread: int) -> tuple[float, float]:
    """(summed root-span time on pool threads, wall time those spans cover).

    The wall time is the length of the union of the spans' intervals, so the
    serial work between two rounds of part solves does not count.
    """
    roots = sorted(
        (rec[START], rec[END])
        for rec in spans
        if rec[THREAD] != main_thread and rec[PARENT] is None
    )
    busy = sum(end - start for start, end in roots)
    wall, reach = 0.0, float("-inf")
    for start, end in roots:
        wall += max(0.0, end - max(start, reach))
        reach = max(reach, end)
    return busy, wall
