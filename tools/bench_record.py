"""Record one run of every benchmark workload as a BENCH_<label>.json file.

    python3 tools/bench_record.py --label tridiagonal-eigh
    python3 tools/bench_record.py --label parent --root ../other-checkout --out /tmp/BENCH_parent.json

Runs ``python3 bench/run.py --workload all --seed S`` in the checkout
``--root`` (default: the one this script sits in) and writes a JSON file
with the end-to-end metrics of the run's final JSON line, the checkout's
``git describe --always --dirty`` and the machine line each workload
printed.  It records a trajectory; it is not a test and checks no bound.
The exit code is that of ``bench/run.py``; nothing is written when it
fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def record(root: Path, seed: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", "all", "--seed", str(seed)],
        cwd=root, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, {}
    result = json.loads(lines[-1])
    describe = subprocess.run(
        ["git", "-C", str(root), "describe", "--always", "--dirty"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    machines = {}
    workload = None
    for line in lines:
        if line.startswith("== "):
            workload = line.split()[1]
        elif line.strip().startswith("machine: ") and workload is not None:
            machines[workload] = json.loads(line.strip()[len("machine: "):])
    return 0, {
        "revision": describe.stdout.strip() or "unknown",
        "seed": seed,
        "command": f"python3 bench/run.py --workload all --seed {seed}",
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        "machine": machines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose bench/run.py runs")
    parser.add_argument("--out", type=Path, default=None, help="default: BENCH_<label>.json in this checkout")
    args = parser.parse_args(argv)
    code, data = record(args.root.resolve(), args.seed)
    if code != 0:
        print(f"bench/run.py failed with exit code {code}", file=sys.stderr)
        return code
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({"label": args.label, **data}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
