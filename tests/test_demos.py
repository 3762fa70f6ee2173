import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "demo_output"


@pytest.mark.parametrize("demo", sorted(path.stem for path in (ROOT / "demos").glob("[0-9]*.py")))
def test_demo_prints_the_recorded_output(demo, tmp_path, monkeypatch, capsys):
    # demo_output/<demo>.txt is the demo's recorded stdout; the data files
    # it writes under demo_output/ are the recorded ones, byte for byte,
    # except a scan manifest, which records its creation time.  The demo
    # runs as a script in this interpreter, which has the package imported.
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(ROOT / "demos" / f"{demo}.py"), run_name="__main__")
    assert capsys.readouterr().out == (RECORDED / f"{demo}.txt").read_text(encoding="utf-8")
    written = [path for path in (tmp_path / "demo_output").rglob("*") if path.is_file()]
    for path in written:
        if path.name != "manifest.json":
            assert path.read_bytes() == (RECORDED / path.relative_to(tmp_path / "demo_output")).read_bytes(), path.name
    assert bool(written) == (demo in ("02_goldstone_sawtooth", "07_sweep_pipeline"))
