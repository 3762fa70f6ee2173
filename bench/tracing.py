"""Outside-in spans around the public functions of each dickelab layer.

Nothing under ``src/`` is changed: a wrapper replaces a function in every
``dickelab`` module namespace that binds it, because modules import each
other's functions by name (``from .ed import solve_ground``) and a caller
looks the name up in its own globals.

Each span records its name, thread, start, end, parent and an optional
observation of the call (matrix dimension, sector label, returned n_max,
files written).  A span opened on a thread with no open span of its own
takes as parent the innermost open span of the main thread: this is how
``run_scan``'s pool threads attach their point solves to ``run_scan``.

Self time is a span's duration minus the union of the intervals its
children cover, with children on any thread.  Two pool threads busy at
once under ``run_scan`` therefore cover its interval once, not twice,
while each child's own self time is still counted on its own thread.
"""

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (metric prefix, home module, function name).  The home module defines the
# function; the wrapper is installed wherever that object is bound.
WRAPPED = (
    ("model.build_sector_hamiltonian", "dickelab.model", "build_sector_hamiltonian"),
    ("model.build_full_hamiltonian", "dickelab.model", "build_full_hamiltonian"),
    ("eigen.eigh", "dickelab.eigen", "eigh"),
    ("ed.ground_state_scan", "dickelab.ed", "ground_state_scan"),
    ("ed.solve_ground", "dickelab.ed", "solve_ground"),
    ("ed.solve_sector", "dickelab.ed", "solve_sector"),
    ("ed.auto_nmax", "dickelab.ed", "auto_nmax"),
    ("ed.solve_full", "dickelab.ed", "solve_full"),
    ("observables.photon_correlation", "dickelab.observables", "photon_correlation"),
    ("observables.number_correlation", "dickelab.observables", "number_correlation"),
    ("observables.mandel_q", "dickelab.observables", "mandel_q"),
    ("observables.anomalous_weight", "dickelab.observables", "anomalous_weight"),
    ("theory.saddle_point", "dickelab.theory", "saddle_point"),
    ("theory.effective_theory", "dickelab.theory", "effective_theory"),
    ("theory.predictions", "dickelab.theory", "predictions"),
    ("scan.parse_config", "dickelab.scan", "parse_config"),
    ("scan.run_scan", "dickelab.scan", "run_scan"),
)

# Structural-block detection inside eigen.eigh: the CSR build and the
# connected-components call, wrapped by name in eigen's namespace only.
# A later eigen without these names reads 0 and is not an error.
BLOCK_DETECT = "eigen.block_detect"
BLOCK_DETECT_NAMES = ("csr_matrix", "connected_components")


def _observe_eigh(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return int(np.shape(m)[0])


def _observe_sector(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["p"])


def _observe_written(args, kwargs, result):
    paths = list(result)
    return (len(paths), sum(p.stat().st_size for p in paths))


OBSERVERS = {
    "eigen.eigh": _observe_eigh,
    "ed.solve_sector": _observe_sector,
    "ed.auto_nmax": lambda args, kwargs, result: int(result),
    "scan.run_scan": _observe_written,
}

_NAME, _TID, _START, _END, _PARENT, _INFO, _COUNTED = range(7)


class Tracer:
    """In-memory span recorder; spans are lists indexed by the names above."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.missing = []
        self._stacks = {}
        self._patched = []
        self._main = threading.main_thread().ident

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        top = main[-1:] if main else []
        return top[0] if top else None

    def wrap(self, name, fn, observe=None, counted=True):
        spans = self.spans
        stacks = self._stacks
        get_ident = threading.get_ident
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            rec = [name, tid, 0.0, 0.0, self._parent(stack), None, counted]
            stack.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
                spans.append(rec)
            if observe is not None:
                rec[_INFO] = observe(args, kwargs, result)
            return result

        return wrapper

    def _replace_everywhere(self, target, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dickelab" or mod_name.startswith("dickelab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is target:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every function in WRAPPED and the block-detection names."""
        self.missing = []
        for name, home, fn_name in WRAPPED:
            target = getattr(sys.modules.get(home), fn_name, None)
            if target is None:
                self.missing.append(name)
                continue
            self._replace_everywhere(target, self.wrap(name, target, OBSERVERS.get(name)))
        eigen = sys.modules["dickelab.eigen"]
        for attr in BLOCK_DETECT_NAMES:
            target = getattr(eigen, attr, None)
            if target is not None:
                counted = attr == "connected_components"
                self._patched.append((eigen, attr, target))
                setattr(eigen, attr, self.wrap(BLOCK_DETECT, target, counted=counted))
        self.active = True

    def uninstall(self):
        self.active = False
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def _union_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans):
    """Per-layer counts and self times from recorded spans.

    Every metric is present whether or not its layer ran; a layer that
    did not run reads 0.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[_PARENT] is not None:
            children[id(rec[_PARENT])].append(rec)

    calls = defaultdict(int)
    self_s = defaultdict(float)
    for rec in spans:
        kids = children.get(id(rec), ())
        covered = _union_length([(k[_START], k[_END]) for k in kids], rec[_START], rec[_END])
        self_s[rec[_NAME]] += rec[_END] - rec[_START] - covered
        if rec[_COUNTED]:
            calls[rec[_NAME]] += 1

    out = {}
    for name, _, _ in WRAPPED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out[f"{BLOCK_DETECT}.calls"] = calls[BLOCK_DETECT]
    out[f"{BLOCK_DETECT}.self_s"] = self_s[BLOCK_DETECT]

    dims = [rec[_INFO] for rec in spans if rec[_NAME] == "eigen.eigh" and rec[_INFO] is not None]
    out["eigen.eigh.dim_max"] = max(dims, default=0)
    out["eigen.eigh.dim3_sum"] = sum(d**3 for d in dims)

    retries = 0
    for rec in spans:
        if rec[_NAME] == "ed.solve_ground":
            restarts = sum(
                1 for k in children.get(id(rec), ()) if k[_NAME] == "ed.solve_sector" and k[_INFO] == 0
            )
            retries += max(restarts - 1, 0)
    out["ed.solve_ground.retries"] = retries
    n_sector = calls["ed.solve_sector"]
    out["ed.useful_sector_ratio"] = 2 * calls["ed.solve_ground"] / n_sector if n_sector else 0.0

    nmax = [rec for rec in spans if rec[_NAME] == "ed.auto_nmax"]
    inner = sum(
        1 for rec in nmax for k in children.get(id(rec), ()) if k[_NAME] == "ed.solve_full"
    )
    out["ed.auto_nmax.solves_per_call"] = inner / len(nmax) if nmax else 0.0
    chosen = [rec[_INFO] for rec in nmax if rec[_INFO] is not None]
    out["ed.auto_nmax.n_max_mean"] = sum(chosen) / len(chosen) if chosen else 0.0

    scans = [rec for rec in spans if rec[_NAME] == "scan.run_scan"]
    written = [rec[_INFO] for rec in scans if rec[_INFO] is not None]
    out["scan.files_written"] = sum(n for n, _ in written)
    out["scan.bytes_written"] = sum(b for _, b in written)
    busy = 0.0
    wall = 0.0
    for rec in scans:
        per_thread = defaultdict(list)
        for k in children.get(id(rec), ()):
            per_thread[k[_TID]].append((k[_START], k[_END]))
        busy += sum(_union_length(iv, rec[_START], rec[_END]) for iv in per_thread.values())
        wall += rec[_END] - rec[_START]
    out["scan.concurrency"] = busy / wall if wall else 0.0
    return out


def self_check(metrics, expect_calls, expect_idle, missing):
    """Problems with the wrappers: a layer that should run counted 0 calls,
    a workload-specific entry point fired where it must not, or a wrapped
    function no longer exists."""
    problems = [f"wrapped function {name} not found" for name in missing]
    for name in sorted(expect_calls):
        if name == BLOCK_DETECT and not _block_detect_present():
            continue
        if metrics.get(f"{name}.calls", 0) <= 0:
            problems.append(f"{name} should fire on this workload but counted 0 calls")
    for name in sorted(expect_idle):
        if metrics.get(f"{name}.calls", 0) > 0:
            problems.append(f"{name} must not fire on this workload but counted {metrics[f'{name}.calls']}")
    return problems


def _block_detect_present():
    eigen = sys.modules["dickelab.eigen"]
    return all(hasattr(eigen, attr) for attr in BLOCK_DETECT_NAMES)
