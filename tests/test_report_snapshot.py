import fcntl
import importlib.util
from pathlib import Path

_path = Path(__file__).resolve().parent.parent / "tools" / "report_snapshot.py"
_spec = importlib.util.spec_from_file_location("report_snapshot", _path)
report_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_snapshot)


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
