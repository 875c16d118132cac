import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = [{"name": "queries_per_s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]


def canned(qps, rss):
    return {"queries_per_s": qps, "peak_rss_mb": rss}


def test_the_summary_of_canned_pairs():
    pairs = [(canned(300, 40.0), canned(360, 41.0)),
             (canned(320, 40.0), canned(380, 42.5)),
             (canned(310, 40.2), canned(300, 40.1)),
             (canned(330, 40.4), canned(390, 41.9))]
    qps, rss = ab_pairs.summarize(pairs, METRICS)
    # medians and quartiles of each side; wins in the metric's direction
    assert qps["parent"] == pytest.approx((307.5, 315.0, 322.5))
    assert qps["change"][1] == pytest.approx(370.0)
    assert (qps["wins"], qps["pairs"]) == (3, 4)
    assert qps["within_bound"] and qps["beats_parent_iqr"]
    # 41.45 against 40.1: 3.4% worse, inside the 5% bound, and no gain
    assert rss["change"][1] == pytest.approx(41.45)
    assert rss["wins"] == 1
    assert rss["within_bound"] and not rss["beats_parent_iqr"]
    # a change 6% worse in memory leaves the bound
    worse = [(p, dict(c, peak_rss_mb=p["peak_rss_mb"] * 1.06)) for p, c in pairs]
    assert not ab_pairs.summarize(worse, METRICS)[1]["within_bound"]
    text = ab_pairs.format_rows([qps, rss])
    assert "queries_per_s" in text and "3/4" in text


def test_pairs_alternate_and_take_consecutive_seeds(monkeypatch, tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append((checkout.name, workload, seed, seconds))
        return canned(300 + 10 * (checkout.name == "change"), 40.0), 0

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    code = ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                          "--workload", "kernel", "--pairs", "3", "--seconds", "2",
                          "--seed", "7"])
    assert code == 0
    assert runs == [("parent", "kernel", 7, 2), ("change", "kernel", 7, 2),
                    ("change", "kernel", 8, 2), ("parent", "kernel", 8, 2),
                    ("parent", "kernel", 9, 2), ("change", "kernel", 9, 2)]
    assert "3/3" in capsys.readouterr().out
