import fcntl
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from killingkit.cli import run

_path = Path(__file__).resolve().parent.parent / "tools" / "report_snapshot.py"
_spec = importlib.util.spec_from_file_location("report_snapshot", _path)
report_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_snapshot)

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("argv", report_snapshot.readme_commands(README), ids=" ".join)
def test_every_readme_command_runs(capsys, argv):
    assert run(argv + ["--json"]) == 0


def test_the_readme_library_sketch_runs():
    sketch = README.read_text(encoding="utf-8").split("## Library sketch\n", 1)[1]
    code = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README}: Library sketch", "exec"), {})


def test_a_snapshot_refuses_a_workdir_another_snapshot_holds(tmp_path, capsys):
    # the lock is taken before any chart file is written, so the snapshot
    # that holds the workdir keeps its files
    out = tmp_path / "out.json"
    with open(tmp_path / "snapshot.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        code = report_snapshot.main([str(out), "--workdir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: workdir {tmp_path} is in use by another snapshot\n")
    assert [p.name for p in tmp_path.iterdir()] == ["snapshot.lock"]


def test_a_diff_whose_reader_closes_early_keeps_its_exit_code(tmp_path):
    # the reader closes stdout before the diff is written: no traceback, and
    # the exit code is the diff's, 1 since the one report differs
    report = {"argv": ["catalog"], "code": 0, "stdout": "", "stderr": ""}
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, code in zip(paths, (0, 2)):
        path.write_text(json.dumps({"q": {**report, "code": code}}), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(_path), "--diff", *map(str, paths)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")
