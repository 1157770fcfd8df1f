"""Outside-in tracing: spans and counters around the program's layer calls.

The traced run wraps each layer's public entry point, by dotted name, at
the attribute its caller actually resolves (``run_lockstep`` and
``order_channel_wires`` are imported by name into ``repro.core.session``,
so they are wrapped there).  Nothing inside ``src/`` changes.  Spans
(name, start, end, parent) stay in memory until the run ends, when
:meth:`Recorder.dump` writes them out and :meth:`Recorder.summary` turns
them into per-layer self times, counts and peak-RSS rises.

A target that no longer exists is reported as absent, never raised, so
later versions of the program that delete a path still run this
benchmark unedited.
"""

import contextlib
import functools
import importlib
import json
import pathlib
import resource
import threading
import time
import weakref


def _cols(array):
    return int(array.shape[1]) if getattr(array, "ndim", 1) == 2 else 1


def _count_arrival(counters, args, kwargs, result):
    delays = args[1] if len(args) > 1 else kwargs["delays"]
    counters["timing.arrival_sweep_calls"] += 1
    counters["timing.arrival_sweep_cols"] += _cols(delays)


def _count_lrs(counters, args, kwargs, result):
    results = result if isinstance(result, list) else [result]
    counters["core.lrs_calls"] += 1
    counters["core.lrs_cols"] += len(results)
    counters["core.lrs_passes"] += sum(int(r.passes) for r in results)


def _count_records(counters, args, kwargs, result):
    for record in result:
        counters["core.iterations"] += int(record.iterations)
        counters["core.repair_evals"] += int(
            record.diagnostics.get("repair_evals", 0))


#: (span name, module, attribute path, options).  Options: ``count`` is a
#: post-call hook ``(counters, args, kwargs, result)``, run only for the
#: outermost open span of its name, so a call nested in one of the same
#: name (``solve_batch`` falling back to ``solve`` per column) is not
#: counted twice and the counts are the outermost call's figures; ``rss``
#: records the peak-RSS rise across the call; ``first`` keeps only the
#: first call per receiver object (a memoized builder); ``pool`` tallies
#: SessionPool hits and misses.
TARGETS = (
    ("runtime.runner", "repro.runtime.runner", "BatchRunner.run", {}),
    ("circuit.build", "repro.runtime.config", "CircuitRef.build", {}),
    ("circuit.compile", "repro.circuit.circuit", "Circuit.compile", {}),
    ("circuit.sweep_plan", "repro.circuit.compiled",
     "CompiledCircuit.sweep_plan", {"rss": True, "first": True}),
    ("noise.similarity", "repro.noise.similarity",
     "SimilarityAnalyzer.__init__", {"rss": True}),
    ("noise.similarity", "repro.noise.similarity",
     "SimilarityAnalyzer.sort_keys_many", {"rss": True}),
    ("noise.ordering", "repro.core.session", "order_channel_wires",
     {"rss": True}),
    ("geometry.layout", "repro.geometry.layout", "ChannelLayout.from_levels",
     {"rss": True}),
    ("geometry.layout", "repro.geometry.layout",
     "ChannelLayout.apply_ordering", {"rss": True}),
    ("noise.coupling_build", "repro.noise.crosstalk",
     "CouplingSet.from_layout", {"rss": True}),
    ("noise.coupling_eval", "repro.noise.crosstalk",
     "CouplingSet.node_terms_batch", {}),
    ("noise.coupling_eval", "repro.noise.crosstalk",
     "CouplingSet.node_coupling_caps", {}),
    ("noise.coupling_eval", "repro.noise.crosstalk",
     "CouplingSet.totals_batch", {}),
    ("timing.arrival_sweep", "repro.timing.kernels", "arrival_sweep",
     {"count": _count_arrival}),
    ("timing.project", "repro.timing.kernels", "project_sweep", {}),
    ("core.lrs", "repro.core.lrs", "LagrangianSubproblemSolver.solve_batch",
     {"count": _count_lrs}),
    ("core.lrs", "repro.core.lrs", "LagrangianSubproblemSolver.solve",
     {"count": _count_lrs}),
    ("core.step_eval", "repro.core.ogws", "OGWSOptimizer.step_eval", {}),
    ("core.a4", "repro.core.subgradient", "MultiplicativeUpdate.apply", {}),
    ("core.a4", "repro.core.subgradient", "MultiplicativeUpdate.apply_batch",
     {}),
    ("core.a4", "repro.core.subgradient", "SubgradientUpdate.apply", {}),
    ("core.a4", "repro.core.subgradient", "SubgradientUpdate.apply_batch", {}),
    ("core.lockstep", "repro.core.session", "run_lockstep", {}),
    ("core.session_solve", "repro.core.session", "SolverSession.solve",
     {"count": _count_records}),
    ("core.partition", "repro.core.partition", "partition_circuit",
     {"rss": True}),
    ("core.partitioned", "repro.core.partitioned", "run_partitioned", {}),
    ("runtime.gather", "repro.runtime.queue", "SweepQueue.gather", {}),
    ("runtime.cache_put", "repro.runtime.cache", "ResultCache.put", {}),
    ("runtime.cache_get", "repro.runtime.cache", "ResultCache.get", {}),
    ("runtime.pool", "repro.core.session", "SessionPool.session",
     {"pool": True}),
)

#: Span names whose metric is the inclusive duration, not the self time:
#: nearly all of step_eval is primal repair, whose sweeps are its children.
INCLUSIVE = frozenset({"core.step_eval"})

#: Peak-RSS metrics: metric name -> the span names whose outermost calls
#: it sums.
RSS_METRICS = {
    "circuit.sweep_plan_mb": ("circuit.sweep_plan",),
    "noise.stage1_mb": ("noise.similarity", "noise.ordering",
                        "geometry.layout"),
    "noise.coupling_mb": ("noise.coupling_build",),
    "core.partition_mb": ("core.partition",),
}

COUNTERS = ("timing.arrival_sweep_calls", "timing.arrival_sweep_cols",
            "core.lrs_calls", "core.lrs_cols", "core.lrs_passes",
            "core.iterations", "core.repair_evals", "runtime.pool_hits",
            "runtime.pool_misses")


#: Where traced runs write their spans (one JSON line per span).
TRACE_DIR = pathlib.Path(__file__).resolve().parents[1] / ".perfbench_traces"


def trace_path(name):
    """The span file for ``name`` under :data:`TRACE_DIR`."""
    TRACE_DIR.mkdir(exist_ok=True)
    return TRACE_DIR / f"{name}.jsonl"


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resolve(module_name, path):
    """``(owner, attribute, raw descriptor)`` or ``None`` when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attribute) if isinstance(owner, type) \
        else getattr(owner, attribute, None)
    if raw is None:
        return None
    return owner, attribute, raw


class Recorder:
    """In-memory spans and counters for one process.

    Spans are ``[name, start, end, parent, rss_start, rss_end]`` lists;
    the parent is the enclosing open span of the same thread.
    """

    def __init__(self):
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent = []
        self.fired = set()
        #: Spans and counters are kept only while this is set (the timed
        #: phase); warm-up and checks run through the wrappers untimed.
        self.active = False
        self._local = threading.local()
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, rss, fn, args, kwargs):
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None,
                _peak_rss_mb() if rss else 0.0, 0.0]
        self.spans.append(span)
        stack.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
            if rss:
                span[5] = _peak_rss_mb()

    def _wrapper(self, name, fn, count=None, rss=False, first=False,
                 pool=False):
        seen = weakref.WeakSet()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.fired.add(name)
            if first:
                if args[0] in seen:
                    return fn(*args, **kwargs)
                seen.add(args[0])
            hits = args[0].hits if pool else 0
            counted = count is not None and not any(
                span[0] == name for span in self._stack())
            result = self._call(name, rss, fn, args, kwargs)
            if counted:
                count(self.counters, args, kwargs, result)
            if pool:
                key = "runtime.pool_hits" if args[0].hits > hits \
                    else "runtime.pool_misses"
                self.counters[key] += 1
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target that exists; remember the absent ones."""
        for name, module_name, path, options in targets:
            found = resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attribute, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrapper(name, raw.__func__,
                                                  **options))
            else:
                patched = self._wrapper(name, raw, **options)
            setattr(owner, attribute, patched)
            self._undo.append((owner, attribute, raw))
        return self

    @contextlib.contextmanager
    def recording(self):
        """Record spans and counters inside the ``with`` block only."""
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    def uninstall(self):
        for owner, attribute, raw in reversed(self._undo):
            setattr(owner, attribute, raw)
        self._undo.clear()

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        index = {id(span): k for k, span in enumerate(self.spans)}
        with open(path, "w") as out:
            for span in self.spans:
                parent = None if span[3] is None else index[id(span[3])]
                out.write(json.dumps({"name": span[0], "start": span[1],
                                      "end": span[2], "parent": parent})
                          + "\n")

    # -- derivation ----------------------------------------------------------

    def summary(self):
        """Per-layer metrics: ``_s`` self times, counters, ``_mb`` rises."""
        child_time = {}
        for span in self.spans:
            parent = span[3]
            if parent is not None:
                child_time[id(parent)] = child_time.get(id(parent), 0.0) \
                    + span[2] - span[1]
        out = {}
        for span in self.spans:
            duration = span[2] - span[1]
            if span[0] not in INCLUSIVE:
                duration -= child_time.get(id(span), 0.0)
            key = span[0] + "_s"
            out[key] = out.get(key, 0.0) + duration
        for metric, names in RSS_METRICS.items():
            out[metric] = sum(
                span[5] - span[4] for span in self.spans
                if span[0] in names
                and (span[3] is None or span[3][0] not in names))
        out.update(self.counters)
        out["trace.spans"] = len(self.spans)
        return out
