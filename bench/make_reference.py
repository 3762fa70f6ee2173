"""Record the reference outputs that seed-0 runs are compared against.

    PYTHONPATH=src python3 bench/make_reference.py [workload ...]

Runs one full sweep of each workload at seed 0 and writes the checked
values of every point to ``bench/reference/<workload>.json``.  Record
them only from a commit whose outputs are trusted: the comparison then
holds every later commit to those numbers (P* exactly, other values
within the tolerance in workloads.py).
"""

import json
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS


def record(name, workdir):
    wl = WORKLOADS[name](0, False, workdir)
    wl.prepare()
    values = {}
    for i, unit in enumerate(wl.units):
        unit_values, problems = wl.check(unit, wl.run(unit), i)
        if problems:
            raise SystemExit(f"{name}: output checks failed: {problems[:5]}")
        values.update(unit_values)
    problems = wl.finish(values)
    if problems:
        raise SystemExit(f"{name}: output checks failed: {problems[:5]}")
    return values


def dump(values):
    """JSON with one point per line."""
    lines = [f"{json.dumps(key)}: {json.dumps(values[key], sort_keys=True)}" for key in sorted(values)]
    return '{"seed": 0, "values": {\n' + ",\n".join(lines) + "\n}}\n"


def main(argv):
    out = Path(__file__).with_name("reference")
    out.mkdir(exist_ok=True)
    for name in argv or list(WORKLOADS):
        with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as workdir:
            values = record(name, workdir)
        path = out / f"{name}.json"
        path.write_text(dump(values))
        print(f"{path}: {len(values)} points")


if __name__ == "__main__":
    main(sys.argv[1:])
