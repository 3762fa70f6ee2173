"""dickelab benchmark: run a workload, check its outputs, print its metrics.

    python3 bench/run.py --workload staircase_n5 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --smoke

Run it from anywhere; it uses the package under ``src/`` of the checkout
it sits in.  Each workload runs in a fresh single-process interpreter with
one BLAS thread, so the default two-thread scan pool stays within the two
cores the benchmark was tuned on.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` the per-layer metrics of a
separate traced run.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every output check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = HERE / ".work"

# Fixed before numpy loads in the worker: one BLAS thread per process.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s, the worker included
# Seconds from launch until numpy and scipy are imported when the machine
# is in its fast state: setup_s is reported at that speed.
LIBS_REF_S = 0.30
TIMEOUT_S = 170


def worker_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def start_worker(args, workload, extra, deadline):
    """Run worker.py to completion; return (its JSON result, seconds from
    launch until it was ready to time its first unit, seconds from launch
    until numpy and scipy were imported)."""
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(WORK / workload),
    ] + (["--smoke"] if args.smoke else []) + extra
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready_at"] - launched, result["libs_at"] - launched


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=30,
    )
    return proc.stdout.strip() or "unknown"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(args, workload, spec, deadline):
    """Run one workload; return (correct, attempted, failed, metrics)."""
    # Each set-up probe is (launch -> ready, launch -> numpy and scipy
    # imported); setup_s scales the first by the second, see "Machine
    # notes" in README.md.
    probes = []
    if not args.trace:
        for _ in range(1 if args.smoke else SETUP_SAMPLES - 1):
            probes.append(start_worker(args, workload, ["--setup-only"], deadline)[1:])
    result, ready, libs = start_worker(args, workload, [], deadline)
    probes.append((ready, libs))
    setup = [ready * LIBS_REF_S / libs for ready, libs in probes]

    attempted, failed = result["attempted"], result["failed"]
    problems = result["problems"] + result.get("self_check", [])
    correct = failed == 0 and not result.get("self_check")
    samples = result["samples"]
    print(f"== {workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(samples)} units, {sum(p for p, _, _ in samples)} points")
    print(f"   machine: {json.dumps(result['machine'], sort_keys=True)}")
    if args.trace:
        layers = result["layers"]
        names = spec["per_layer"]
    else:
        # A calibrated workload's rate and CPU cost per unit are scaled by
        # the machine slowdown measured right after the unit; see
        # "Machine notes" in README.md.
        slowdown = result["slowdown"] or [1.0] * len(samples)
        rates = [p / w * s for (p, w, _), s in zip(samples, slowdown)]
        cpu = [c / p / s for (p, _, c), s in zip(samples, slowdown)]
        layers = {
            "setup_s": statistics.median(setup),
            "points_per_s": statistics.median(rates),
            "cpu_s_per_point": statistics.median(cpu),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        names = spec["end_to_end"]
        printed = [
            ("setup_s", setup),
            ("unscaled setup_s", [ready for ready, _ in probes]),
            ("points_per_s", rates),
            ("cpu_s_per_point", cpu),
        ]
        if result["slowdown"]:
            printed += [
                ("unscaled points_per_s", [p / w for p, w, _ in samples]),
                ("machine slowdown", slowdown),
            ]
        for label, values in printed:
            lo, hi = quartiles(values)
            print(f"   {label:<22} samples {len(values):>3}  median {statistics.median(values):<10.6g}"
                  f"  quartiles {lo:.6g} .. {hi:.6g}")
    metrics = {}
    for m in names:
        metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
        print(f"   {m['name']:<40} {layers[m['name']]:>16.6g} {m['unit']}")
    frac = failed / attempted if attempted else 1.0
    print(f"   {'failed_frac':<40} {frac:>16.6g} ratio  ({failed} of {attempted} points)")
    for text in problems:
        print(f"   problem: {text}")
    return correct, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="grid jitter; 0 keeps the stated grids")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one setup probe: checks the harness in seconds")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dickelab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no dickelab sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workload == "all" else [args.workload]
    if any(w not in known for w in workloads):
        parser.error(f"unknown workload {args.workload!r}; choose from {known} or 'all'")
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else spec["run_seconds"]

    print(f"revision: {git_revision()}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in workloads:
            ok, att, fail, met = run_workload(args, workload, spec, time.monotonic() + TIMEOUT_S)
            correct, attempted, failed = correct and ok, attempted + att, failed + fail
            prefix = "" if len(workloads) == 1 else f"{workload}."
            metrics.update({prefix + k: v for k, v in met.items()})
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
