"""Run the benchmark in alternating pairs of two checkouts, summarize, record.

    python3 tools/bench_pairs.py --parent-root ../parent --workload staircase_n5
    python3 tools/bench_pairs.py --parent-root ../parent --workload all --pairs 3 --out BENCH_NAME.json

Runs ``python3 bench/run.py --workload W --seed S`` in the checkout
``--parent-root`` and in the one this script sits in, alternately: the
parent runs first in odd pairs, this checkout first in even ones.  Each
side runs its own ``bench/run.py`` at the default run length of its
``BENCHMARK.json``.  After each run it prints that run's end-to-end
metrics; at the end, for each metric, both sides' medians and quartiles,
the change's wins (pairs where this checkout reads better; ties count for
neither) and two verdicts, with the direction and the bounds read from
this checkout's ``BENCHMARK.json``:

- claim: there are at least 10 pairs, the change wins at least 9/10 of
  them and its median is better than the parent's by more than the
  parent's interquartile range;
- bound: the change's median is no worse than the parent's by more than
  the metric's bound (a relative change).  It reads ``unresolved`` when
  either side's interquartile range exceeds the bound relative to its
  median, unless every change run reads better than every parent run.

With ``--out PATH`` it writes the record of all this to PATH as JSON
(indent 2, sorted keys): the workload, seed and pair count, each side's
revision and machines (the ``revision:`` and ``machine:`` lines of its
first run), every run's end-to-end metrics in pair order, and the summary
rows it printed.  The exit code is 1 if a run fails (non-zero exit, no
result line, or a result that is not correct or has failed points), and
then no file is written; else 0, whatever the verdicts.
"""

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The benchmark's own quartile rule, from this checkout's bench/run.py
_RUN_SPEC = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
_bench_run = importlib.util.module_from_spec(_RUN_SPEC)
_RUN_SPEC.loader.exec_module(_bench_run)
quartiles = _bench_run.quartiles


def run_once(root: Path, workload: str, seed: int) -> tuple[str, dict, dict]:
    """``(revision, machines, metrics)`` of one ``bench/run.py`` run in
    ``root``: its ``revision:`` line, ``{workload: machine}`` from its
    ``machine:`` lines and the end-to-end metrics ``{name: value}``, names
    prefixed ``<workload>.`` under ``all``."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", str(seed)],
        cwd=root, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {root} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"bench/run.py in {root}: correct {result['correct']}, failed {result['failed']}")
    revision, machines, name = "unknown", {}, workload
    for line in map(str.strip, lines):
        if line.startswith("revision: "):
            revision = line[len("revision: "):]
        elif line.startswith("== "):
            name = line.split()[1]
        elif line.startswith("machine: "):
            machines[name] = json.loads(line[len("machine: "):])
    return revision, machines, {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per metric of the runs ``parent[i]`` and ``change[i]`` of
    pair i, with both sides' median and quartiles, the change's wins and
    the claim and bound verdicts.  ``end_to_end`` is the list of that name
    in BENCHMARK.json; a metric ``<workload>.<name>`` takes the entry of
    ``<name>``."""
    spec = {m["name"]: m for m in end_to_end}
    rows = []
    for name in parent[0]:
        entry = spec[name.rsplit(".", 1)[-1]]
        sign = 1.0 if entry["better"] == "higher" else -1.0
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        p_med, c_med = statistics.median(p), statistics.median(c)
        p_lo, p_hi = quartiles(p)
        c_lo, c_hi = quartiles(c)
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        gain = sign * (c_med - p_med)
        claim = len(p) >= 10 and 10 * wins >= 9 * len(p) and gain > p_hi - p_lo
        spread = max((hi - lo) / abs(med) if med else 0.0 for med, lo, hi in ((p_med, p_lo, p_hi), (c_med, c_lo, c_hi)))
        if spread > entry["bound"] and not min(sign * x for x in c) > max(sign * x for x in p):
            bound = "unresolved"
        elif -gain > entry["bound"] * abs(p_med):
            bound = "broken"
        else:
            bound = "holds"
        rows.append({
            "metric": name, "unit": entry["unit"], "better": entry["better"], "pairs": len(p),
            "parent_median": p_med, "parent_quartiles": (p_lo, p_hi),
            "change_median": c_med, "change_quartiles": (c_lo, c_hi),
            "wins": wins, "claim": claim, "bound": bound,
        })
    return rows


def format_row(row: dict) -> str:
    """The printed summary line of a ``summarize`` row."""
    (p_lo, p_hi), (c_lo, c_hi) = row["parent_quartiles"], row["change_quartiles"]
    return (
        f"{row['metric']:<32} {row['unit']:<4} ({row['better']} is better)  "
        f"parent {row['parent_median']:.6g} [{p_lo:.6g} .. {p_hi:.6g}]  "
        f"change {row['change_median']:.6g} [{c_lo:.6g} .. {c_hi:.6g}]  "
        f"wins {row['wins']}/{row['pairs']}  claim {'met' if row['claim'] else 'not met'}  bound {row['bound']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent-root", type=Path, required=True, help="checkout of the parent commit, with its bench/run.py")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None, help="write the record to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if args.out is not None and not args.out.resolve().parent.is_dir():
        parser.error(f"--out {args.out}: no such directory")
    if not (args.parent_root / "bench" / "run.py").is_file():
        parser.error(f"--parent-root {args.parent_root}: no bench/run.py there")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in (*names, "all"):
        parser.error(f"--workload {args.workload!r}: not 'all' or a workload of BENCHMARK.json ({', '.join(names)})")
    roots = {"parent": args.parent_root.resolve(), "change": ROOT}
    sides = {side: {"revision": None, "machines": None, "runs": []} for side in roots}
    for pair in range(1, args.pairs + 1):
        for side in ("parent", "change") if pair % 2 else ("change", "parent"):
            try:
                revision, machines, metrics = run_once(roots[side], args.workload, args.seed)
            except (RuntimeError, json.JSONDecodeError, KeyError) as exc:
                print(f"pair {pair} {side}: {exc}", file=sys.stderr)
                return 1
            if not sides[side]["runs"]:
                sides[side].update(revision=revision, machines=machines)
            sides[side]["runs"].append(metrics)
            values = "  ".join(f"{name} {value:.6g}" for name, value in metrics.items())
            print(f"pair {pair:>2} {side:<6} {values}", flush=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs (parent first in odd pairs)")
    rows = summarize(sides["parent"]["runs"], sides["change"]["runs"], spec["end_to_end"])
    for row in rows:
        print(format_row(row))
    if args.out is not None:
        record = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs, **sides, "summary": rows}
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
