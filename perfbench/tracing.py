"""Spans and counters recorded around calls into usable_info's public functions.

The library carries no timing code: :meth:`Tracer.install` replaces every
module attribute that binds a hooked function (``usable_info.structure.
empirical_conditional_entropy``, ``usable_info.cli.edge_weights``, the package
re-exports, ...) with a wrapper that records a span, and
:meth:`Tracer.uninstall` puts the originals back.  A span is named
``<module>.<function>``; the module name is its layer.

Spans stay in memory.  ``sweep --jobs N`` runs its cells in pool workers, so
the tracer also replaces the ``ProcessPoolExecutor`` name that ``usable_info.cli``
binds with one whose workers clear the spans they inherited, record their own
under the parent's ``cli.sweep`` span, and append them to a per-worker file
after every cell; :meth:`Tracer.collect_workers` merges those files back.
That relies on the ``fork`` start method, which copies the installed hooks
into each worker.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import importlib
import json
import logging
import math
import os
import sys
import time
import warnings
from collections import Counter, defaultdict, namedtuple
from pathlib import Path

Span = namedtuple("Span", "id parent op name start end attrs")

PACKAGE = "usable_info"
LAYERS = ("synth", "data", "families", "estimation", "structure", "baselines", "cli")


def _path_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _cpc_batch(args, kwargs, result) -> dict:
    # CPC can never exceed the log of its batch size.
    n = len(args[1]) if len(args) > 1 else len(kwargs["xs"])
    return {"over_log_n": int(not result <= math.log(n))}


# (module, function, annotate) for every public function timed from outside.
# ``annotate(args, kwargs, result)`` adds the work a call did to its span.
HOOKS = (
    ("synth", "simulate", None),
    ("data", "write_dataset_csv",
     lambda a, k, r: _path_bytes(a[1] if len(a) > 1 else k["path"])),
    ("data", "read_dataset_csv", lambda a, k, r: _path_bytes(a[0] if a else k["path"])),
    ("families", "fit_marginal", None),
    ("families", "fit_conditional", None),
    ("families", "geometric_median", None),
    ("estimation", "empirical_entropy", None),
    ("estimation", "empirical_conditional_entropy", None),
    ("estimation", "empirical_information", None),
    ("structure", "edge_weights",
     lambda a, k, r: {"pairs": r.m * (r.m - 1)}),
    ("structure", "max_arborescence", None),
    ("structure", "wrong_edges_ratio", lambda a, k, r: {"value": r}),
    ("baselines", "fit_critic", None),
    ("baselines", "cpc_estimate", _cpc_batch),
    ("baselines", "nwj_estimate", None),
    # One sweep cell; the top span of each pool worker's work.
    ("cli", "_sweep_task", None),
)


class _WarningsProxy:
    """Stands in for the ``warnings`` module inside usable_info and counts FitWarnings."""

    def __init__(self, counters: Counter, fit_warning: type):
        self._counters = counters
        self._fit_warning = fit_warning

    def __getattr__(self, name):
        return getattr(warnings, name)

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        if isinstance(category, type) and issubclass(category, self._fit_warning):
            self._counters["families.fit_warnings"] += 1
        warnings.warn(message, category, stacklevel=stacklevel + 1, **kwargs)


class _CapCounter(logging.Handler):
    """Counts the baselines module's capped-score log records."""

    def __init__(self, counters: Counter):
        super().__init__(logging.INFO)
        self._counters = counters

    def emit(self, record):
        if record.getMessage().startswith("capped"):
            self._counters["baselines.capped_events"] += 1


class Tracer:
    """Collects spans and counters while its hooks are installed."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list = []
        self._op = None
        self._next_id = 0
        self._worker = False
        self._undo: list = []

    # ----------------------------------------------------------------- #
    # Recording
    # ----------------------------------------------------------------- #

    @contextlib.contextmanager
    def span(self, name: str):
        """Record ``name`` around the block; yields a dict for attributes."""
        self._next_id += 1
        span_id = f"{os.getpid()}-{self._next_id}"
        parent = self._stack[-1] if self._stack else None
        attrs: dict = {}
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, self._op, name, start, end,
                                   attrs or None))
            if self._worker and len(self._stack) == 1:
                self._flush_worker()

    @contextlib.contextmanager
    def operation(self, op_id: str, name: str | None = None):
        """One top-level operation of a pass: spans inside share ``op_id``.

        ``name`` adds a span of its own (a CLI command); a library call is
        already spanned by its hook.
        """
        self._op = op_id
        try:
            with self.span(name) if name else contextlib.nullcontext():
                yield
        finally:
            self._op = None

    def _wrap(self, name: str, fn, annotate):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs.update(annotate(args, kwargs, result))
            return result

        return traced

    # ----------------------------------------------------------------- #
    # Hooks
    # ----------------------------------------------------------------- #

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer hooks already installed")
        for module_name in LAYERS:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, fn_name, annotate in HOOKS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(module, fn_name)
            traced = self._wrap(f"{module_name}.{fn_name.lstrip('_')}", original, annotate)
            self._rebind(modules, original, traced)
        families = sys.modules[f"{PACKAGE}.families"]
        self._rebind(modules, warnings, _WarningsProxy(self.counters, families.FitWarning))
        self._set(sys.modules[f"{PACKAGE}.cli"], "ProcessPoolExecutor", self._pool)
        logger = logging.getLogger(f"{PACKAGE}.baselines")
        handler = _CapCounter(self.counters)
        old_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        self._undo.append(lambda: (logger.removeHandler(handler),
                                   logger.setLevel(old_level)))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _set(self, module, attr, value) -> None:
        old = getattr(module, attr)
        setattr(module, attr, value)
        self._undo.append(lambda: setattr(module, attr, old))

    # ----------------------------------------------------------------- #
    # Sweep pool workers
    # ----------------------------------------------------------------- #

    def _pool(self, max_workers=None, **kwargs):
        parent = self._stack[-1] if self._stack else None
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers, initializer=self._enter_worker,
            initargs=(parent, self._op), **kwargs)

    def _enter_worker(self, parent, op) -> None:
        self._worker = True
        self.spans = []
        self.counters.clear()
        self._stack = [parent]
        self._op = op

    def _flush_worker(self) -> None:
        record = {"spans": [list(s) for s in self.spans], "counters": dict(self.counters)}
        path = self.trace_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans = []
        self.counters.clear()

    def collect_workers(self) -> None:
        """Merge and delete the span files that pool workers appended to."""
        for path in sorted(self.trace_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    self.spans.extend(Span(*s) for s in record["spans"])
                    self.counters.update(record["counters"])
            path.unlink()


# --------------------------------------------------------------------- #
# Arithmetic over spans
# --------------------------------------------------------------------- #


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[str, float]:
    """Seconds per layer spent in a span but outside its child spans.

    Children that overlap (pool workers under ``cli.sweep``) count once.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name.split(".")[0]] += (s.end - s.start) - covered(
            s.start, s.end, children.get(s.id, ()))
    return dict(out)


def function_stats(spans) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds, summed attributes."""
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "s": 0.0, "attrs": Counter()})
        entry["calls"] += 1
        entry["s"] += s.end - s.start
        entry["attrs"].update(s.attrs or {})
    return out
