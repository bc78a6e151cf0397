"""Timing spans around the package's layer functions, for the traced run.

The package is measured from outside: ``install`` replaces each layer
function by a wrapper at every place the function is looked up at run time
(a module attribute or a class attribute), and ``uninstall`` puts the
originals back. Spans are kept in memory as
``(id, name, start, end, parent, request)`` tuples and analysed after the
run. Very hot small functions are only counted, so that the trace stays
cheap.
"""

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name). Names imported with ``from x import y``
# are patched in the importing module, because that is where they are
# looked up: filter imports the error models and exp/log by name, smoother
# imports the retraction by name, and the Monte-Carlo pool looks up
# cli.run_scenario.
SPANS = [
    ("cli", "run_monte_carlo", "cli.run_monte_carlo"),
    ("cli", "run_scenario", "cli.run_scenario"),
    ("cli", "_metrics", "cli.metrics"),
    ("cli", "_traj_row", "cli.serialize"),
    ("cli", "_fmt", "cli.serialize"),
    ("cli", "write_csv", "cli.serialize"),
    ("simulator.TruthGenerator", "synthesize_imu", "simulator.synthesize_imu"),
    ("simulator.TruthGenerator", "sample_gnss", "simulator.sample_gnss"),
    ("sensors", "simulate_biases", "sensors.noise"),
    ("sensors", "corrupt", "sensors.noise"),
    ("filter", "predict", "filter.predict"),
    ("filter", "update", "filter.update"),
    ("filter", "discretize", "filter.discretize"),
    ("filter", "apply_correction", "filter.retract"),
    ("filter", "error_state", "filter.retract"),
    ("filter", "error_dynamics", "errormodels.error_dynamics"),
    ("filter", "measurement_se23", "errormodels.measurement"),
    ("filter", "measurement_left_invariant", "errormodels.measurement"),
    ("filter", "exp_se23", "liegroup.exp_log"),
    ("filter", "log_se23", "liegroup.exp_log"),
    ("smoother", "rts_smooth", "smoother.rts_smooth"),
    ("smoother", "apply_correction", "filter.retract"),
    ("smoother", "error_state", "filter.retract"),
    ("mechanization", "ned_step", "mechanization.step"),
    ("mechanization", "ecef_step", "mechanization.step"),
    ("mechanization", "orthonormalize", "mechanization.orthonormalize"),
    ("earth", "ecef_to_llh", "earth.ecef_to_llh"),
]

COUNTS = [
    ("earth", "radii", "earth.radii"),
    ("simulator.TruthGenerator", "state_ecef", "simulator.truth_state"),
]

# Spans that also record the thread CPU time, to split a Monte-Carlo
# member's wall time into work and waiting.
MEMBER_SPAN = "cli.run_scenario"


def _resolve(path):
    import importlib

    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"liese_nav.{module}")
    return getattr(owner, cls) if cls else owner


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []


class Tracer:
    """Collects spans, call counts and member CPU times."""

    def __init__(self):
        self.spans = []
        self.members = []  # (request, wall_s, thread_cpu_s)
        self.request = 0
        self._ids = itertools.count()
        self._root = None
        self._local = _ThreadState()
        self._counters = {}
        self._reads = Counter()
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, local, ids = self.spans, self._local, self._ids
        member = name == MEMBER_SPAN
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.stack
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            if parent is None:
                self._root = sid
            stack.append(sid)
            cpu0 = time.thread_time() if member else 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if member:
                    self.members.append(
                        (self.request, t1 - t0, time.thread_time() - cpu0)
                    )
                if self._root == sid:
                    self._root = None
                spans.append((sid, name, t0, t1, parent, self.request))

        return wrapper

    def _counter(self, name, fn):
        # next() on an itertools.count is one step under the interpreter
        # lock, so increments from several threads are never lost.
        tick = self._counters.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        for table, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for path, attr, name in table:
                owner = _resolve(path)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, make(name, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def counts(self):
        """Calls counted so far, by name."""
        total = Counter()
        for name, counter in self._counters.items():
            # each read takes one value from the counter itself
            total[name] = next(counter) - self._reads[name]
            self._reads[name] += 1
        return total


def _union(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


def analyse(spans):
    """Per request: self time and inclusive time by span name, call counts
    by name, per-call durations by name, and the root's coverage.

    A span's self time is its duration minus the part of it that its child
    spans cover; Monte-Carlo members overlap in time, so the union counts.
    """
    children = defaultdict(list)
    names = {}
    for sid, name, t0, t1, parent, _ in spans:
        names[sid] = name
        if parent is not None:
            children[parent].append((t0, t1))
    out = defaultdict(
        lambda: {
            "self_s": Counter(),
            "total_s": Counter(),
            "calls": Counter(),
            "durations": defaultdict(list),
            "coverage": None,
        }
    )
    for sid, name, t0, t1, parent, request in spans:
        rec = out[request]
        covered = _union(children.get(sid, ()), t0, t1)
        rec["self_s"][name] += (t1 - t0) - covered
        if names.get(parent) != name:  # a nested call is inside its caller
            rec["total_s"][name] += t1 - t0
        rec["calls"][name] += 1
        rec["durations"][name].append(t1 - t0)
        if parent is None:
            rec["coverage"] = covered / (t1 - t0)
    return dict(out)


def write_spans(path, spans):
    with open(path, "w") as fh:
        fh.write("id,name,start,end,parent,request\n")
        for sid, name, t0, t1, parent, request in spans:
            fh.write(f"{sid},{name},{t0!r},{t1!r},{'' if parent is None else parent},{request}\n")
