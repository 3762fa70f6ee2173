"""One workload in one fresh interpreter: set up, warm up, time units, check.

Started by ``run.py``, which fixes the BLAS thread count and PYTHONPATH
before this interpreter starts.  Prints one JSON line with the raw
samples; ``run.py`` turns them into metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

# From launch to here the interpreter starts and imports numpy and scipy,
# and runs no dickelab code; run.py scales setup_s by this time.
LIBS_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import dickelab  # noqa: E402
from tracing import Tracer, layer_metrics, self_check  # noqa: E402
from workloads import WORKLOADS, close  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class Tally:
    """Timing samples, attempted points and failed points of one phase."""

    def __init__(self):
        self.samples = []  # (points, wall s, cpu s) per unit
        self.attempted = 0
        self.failed_keys = set()
        self.failed_other = 0
        self.problems = []
        self.values = {}
        self.slowdown = []  # machine slowdown after each unit, if calibrated

    @property
    def failed(self):
        return min(self.attempted, len(self.failed_keys) + self.failed_other)

    def add_problems(self, problems):
        for key, text in problems:
            self.failed_keys.add(key)
            self.problems.append(f"{key}: {text}")


def reference_problems(values, reference):
    problems = []
    for key, vals in values.items():
        ref = reference.get(key)
        if ref is None:
            problems.append((key, "no reference value"))
            continue
        for name, value in vals.items():
            expect = ref.get(name)
            same = value == expect if isinstance(expect, int) else close(value, expect)
            if not same:
                problems.append((key, f"{name} = {value!r}, reference {expect!r}"))
    return problems


def run_unit(wl, unit, run_index, tally, reference, tracer=None):
    """Time one unit, then check its outputs outside the timed region."""
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        output = wl.run(unit)
        error = None
    except Exception as exc:  # a failed unit is counted, the run goes on
        output = None
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.active = False
    tally.attempted += unit.points
    tally.samples.append((unit.points, wall, cpu))
    if error is not None:
        tally.failed_other += unit.points
        tally.problems.append(f"unit {unit.label}: {error}")
    else:
        values, problems = wl.check(unit, output, run_index)
        if reference is not None:
            problems += reference_problems(values, reference)
        tally.add_problems(problems)
        tally.values.update(values)
    del output
    if tracer is not None:
        tracer.active = True


# Seconds the calibration kernel takes when this machine is in its fast
# state: a unit's slowdown is the kernel's time right after it over this.
CALIBRATION_REF_S = 0.014


def calibration_kernel():
    """Fixed work that runs no dickelab code: the Python-level calls on
    small matrices that a sector sweep makes, and one dense eigensolve.
    Its time tracks how fast the shared machine runs such code now."""
    rng = np.random.default_rng(0)
    small = [(lambda a: a + a.T)(rng.standard_normal((6, 6))) for _ in range(8)]
    big = (lambda a: a + a.T)(rng.standard_normal((150, 150)))

    def run():
        start = time.perf_counter()
        for _ in range(8):
            for m in small:
                connected_components(csr_matrix(m != 0), directed=False)
                w, v = np.linalg.eigh(m)
                m @ v - v * w
        np.linalg.eigh(big)
        return time.perf_counter() - start

    return run


def timed_loop(wl, seconds, reference):
    """Run units in order until the next one would end after `seconds`.
    For a calibrated workload, time the calibration kernel after each unit."""
    tally = Tally()
    calibrate = calibration_kernel() if wl.calibrated else None
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if tally.samples and elapsed + tally.samples[-1][1] > seconds:
            break
        run_unit(wl, wl.units[i % len(wl.units)], i, tally, reference)
        if calibrate is not None:
            tally.slowdown.append(calibrate() / CALIBRATION_REF_S)
        i += 1
    return tally


def traced_pass(wl, reference):
    """Run the workload's fixed traced units, each first without wrappers
    and then under the tracer, so each pair sees the same machine state."""
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    count = len(wl.units) if wl.smoke else wl.traced_units
    for i in range(count):
        unit = wl.units[i % len(wl.units)]
        run_unit(wl, unit, 2 * i, plain, reference)
        tracer.install()
        try:
            if i == 0:
                wl.prepare()
            run_unit(wl, unit, 2 * i + 1, traced, reference, tracer)
        finally:
            tracer.uninstall()
    return plain, traced, tracer


def machine_info():
    import numpy
    import scipy

    info = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    for name, module in (("numpy", numpy), ("scipy", scipy)):
        try:
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info[f"{name}_blas"] = f"{blas['name']} {blas['version']}"
        except (KeyError, TypeError, ValueError):
            info[f"{name}_blas"] = None
    return info


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(dickelab.__file__).resolve().parents:
        print(f"dickelab imported from {dickelab.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    wl.prepare()
    wl.warmup()
    # CLOCK_MONOTONIC is shared with run.py, which timed the launch.
    result = {"ready_at": time.clock_gettime(time.CLOCK_MONOTONIC), "libs_at": LIBS_AT}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    reference = None
    if args.seed == 0:
        ref_path = Path(__file__).with_name("reference") / f"{wl.name}.json"
        reference = json.loads(ref_path.read_text(encoding="utf-8"))["values"]

    if args.trace:
        tally, traced, tracer = traced_pass(wl, reference)
        phases = [tally, traced]
        layers = layer_metrics(tracer.spans)
        layers["trace.overhead_frac"] = statistics.median(
            t[1] / u[1] for u, t in zip(tally.samples, traced.samples)
        ) - 1
        result["layers"] = layers
        result["self_check"] = self_check(layers, wl.expect_calls, wl.expect_idle, tracer.missing)
    else:
        tally = timed_loop(wl, args.seconds, reference)
        phases = [tally]

    values = {}
    for phase in phases:
        values.update(phase.values)
    final = Tally()
    final.add_problems(wl.finish(values))
    result.update(
        samples=tally.samples,
        slowdown=tally.slowdown,
        attempted=sum(p.attempted for p in phases),
        failed=min(
            sum(p.attempted for p in phases),
            sum(p.failed for p in phases) + len(final.failed_keys),
        ),
        problems=[text for p in phases + [final] for text in p.problems][:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        machine=machine_info(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
