import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_counter_rotating_demo_prints_the_recorded_output(tmp_path):
    # demo_output/06_counter_rotating.txt is the demo's stdout recorded
    # when eigen.eigh still took caller-declared blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "06_counter_rotating.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout == (ROOT / "demo_output" / "06_counter_rotating.txt").read_text(encoding="utf-8")
