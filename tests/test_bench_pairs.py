"""The summary arithmetic of ``tools/bench_pairs.py`` on fixed numbers."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [100.0, 104.0, 98.0, 102.0, 96.0]
CHANGE = [120.0, 104.0, 125.0, 118.0, 122.0]


def test_seed_ranges():
    assert bench_pairs.parse_seeds("4001-4004") == [4001, 4002, 4003, 4004]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("9-3")


def test_summary_of_a_higher_is_better_metric():
    s = bench_pairs.summarize(PARENT, CHANGE, "higher", 0.25)
    # inclusive quartiles of 96 98 100 102 104 and 104 118 120 122 125
    assert s["parent"] == {"q1": 98.0, "median": 100.0, "q3": 102.0}
    assert s["change"] == {"q1": 118.0, "median": 120.0, "q3": 122.0}
    assert s["ratio_of_medians"] == 1.2
    assert s["change_better_pairs"] == 4  # the 104/104 tie counts for neither
    assert s["median_gap"] == 20.0
    assert s["parent_iqr"] == 4.0
    assert (s["worse_by"], s["within_bound"]) == (-0.2, True)
    assert s["runs"] == {"parent": PARENT, "change": CHANGE}


def test_summary_of_a_lower_is_better_metric():
    s = bench_pairs.summarize(PARENT, CHANGE, "lower", 0.25)
    assert s["change_better_pairs"] == 0
    assert s["median_gap"] == -20.0
    s = bench_pairs.summarize(CHANGE, PARENT, "lower", 0.25)
    assert (s["change_better_pairs"], s["median_gap"]) == (4, 20.0)
    assert s["ratio_of_medians"] == round(100 / 120, 4)


@pytest.mark.parametrize("better, parent, change, bound, worse_by, within", [
    # higher is better: 100 -> 80 is 20 % worse
    ("higher", [100.0, 90.0, 110.0], [80.0, 70.0, 90.0], 0.25, 0.2, True),
    ("higher", [100.0, 90.0, 110.0], [80.0, 70.0, 90.0], 0.1, 0.2, False),
    # lower is better: 10 -> 13 is 30 % worse, 10 -> 8 is 20 % better
    ("lower", [10.0, 9.0, 11.0], [13.0, 12.0, 14.0], 0.25, 0.3, False),
    ("lower", [10.0, 9.0, 11.0], [8.0, 7.0, 9.0], 0.1, -0.2, True),
    # a change exactly at the bound is within it; no change is 0, not -0
    ("lower", [20.0], [25.0], 0.25, 0.25, True),
    ("lower", [20.0], [20.0], 0.0, 0.0, True),
    ("higher", [20.0], [20.0], 0.0, 0.0, True),
])
def test_worse_by_and_within_bound(better, parent, change, bound, worse_by,
                                   within):
    s = bench_pairs.summarize(parent, change, better, bound)
    assert s["worse_by"] == worse_by
    assert json.dumps(s["worse_by"]) == json.dumps(worse_by)
    assert s["within_bound"] is within


def test_verdict_needs_ratio_wins_and_a_gap_beyond_the_parent_iqr():
    s = bench_pairs.summarize(PARENT, CHANGE, "higher", 0.25)
    v = bench_pairs.verdict(s, "ops_per_s", 1.15, "higher")
    # 4 wins of 5 pairs is fewer than 9 of 10
    assert v == {"metric": "ops_per_s", "claimed_ratio": 1.15,
                 "gain_of_medians": 1.2, "change_better_pairs": "4 of 5",
                 "median_gap": 20.0, "parent_iqr": 4.0, "claim_met": False}
    won = bench_pairs.summarize(PARENT, [120.0, 110.0, 125.0, 118.0, 122.0],
                                "higher", 0.25)
    assert bench_pairs.verdict(won, "ops_per_s", 1.15, "higher")["claim_met"]
    assert not bench_pairs.verdict(won, "ops_per_s", 1.25,
                                   "higher")["claim_met"]
    lat = bench_pairs.summarize([10.0, 10.5, 9.5], [8.0, 8.2, 7.9], "lower",
                                0.25)
    v = bench_pairs.verdict(lat, "op_p50_ms", 1.2, "lower")
    assert (v["gain_of_medians"], v["claim_met"]) == (1.25, True)


def fake_checkouts(tmp_path, end_to_end=()):
    """Two directories that pass for checkouts: a ``BENCHMARK.json`` with
    the ``end_to_end`` metrics given as (name, better, bound), and a
    ``bench/run.py`` that does nothing."""
    dirs = {}
    for name in ("parent", "change"):
        root = tmp_path / name
        (root / "bench").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": m, "better": better, "bound": bound}
            for m, better, bound in end_to_end]}),
            encoding="utf-8")
        (root / "bench" / "run.py").write_text("", encoding="utf-8")
        dirs[name] = root
    return dirs


@pytest.mark.parametrize("missing", ["BENCHMARK.json", "bench/run.py"])
@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_directory_that_is_not_a_checkout_is_a_one_line_error(
        tmp_path, capsys, missing, side):
    dirs = fake_checkouts(tmp_path)
    (dirs[side] / missing).unlink()
    argv = [str(dirs["parent"]), str(dirs["change"]), "--workload", "w",
            "--seeds", "1"]
    assert bench_pairs.main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: {dirs[side]} is not a checkout: it has no "
            f"{os.path.join(*missing.split('/'))}\n")


@pytest.mark.parametrize("claim, message", [
    ("ops_per_sec:1.07", "--claim metric 'ops_per_sec' is not an end-to-end "
                         "metric; use one of ops_per_s, op_p50_ms"),
    ("ops_per_s", "--claim ratio must be a positive number, got ''"),
    ("ops_per_s:fast", "--claim ratio must be a positive number, got 'fast'"),
    ("ops_per_s:0", "--claim ratio must be a positive number, got '0'"),
    ("ops_per_s:nan", "--claim ratio must be a positive number, got 'nan'"),
])
def test_a_bad_claim_is_refused_before_any_pair_runs(tmp_path, capsys,
                                                     monkeypatch, claim,
                                                     message):
    dirs = fake_checkouts(tmp_path, [("ops_per_s", "higher", 0.25),
                                     ("op_p50_ms", "lower", 0.25)])
    ran = []
    monkeypatch.setattr(bench_pairs, "run_side",
                        lambda *args: ran.append(args))
    argv = [str(dirs["parent"]), str(dirs["change"]), "--workload", "w",
            "--seeds", "1-10", "--claim", claim]
    assert bench_pairs.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert ran == []


def test_each_metric_is_judged_against_its_own_bound(tmp_path, capsys,
                                                      monkeypatch):
    # both metrics read 20 % worse in every pair: inside a 25 % bound, not
    # inside a 10 % one
    dirs = fake_checkouts(tmp_path, [("ops_per_s", "higher", 0.25),
                                     ("peak_rss_mb", "lower", 0.1)])
    sides = {str(dirs["parent"]): {"ops_per_s": 100.0, "peak_rss_mb": 20.0},
             str(dirs["change"]): {"ops_per_s": 80.0, "peak_rss_mb": 24.0}}

    def run_side(root, workload, seed, seconds):
        return {"attempted": 1, "failed": 0, "correct": 1, "host": "h",
                "host_speed": 1.0, "metrics": sides[root]}

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    argv = [str(dirs["parent"]), str(dirs["change"]), "--workload", "w",
            "--seeds", "1-4"]
    assert bench_pairs.main(argv) == 0
    block = json.loads(capsys.readouterr().out)["workloads"]["w"]
    assert [(block[m]["worse_by"], block[m]["within_bound"])
            for m in ("ops_per_s", "peak_rss_mb")] == [(0.2, True),
                                                       (0.2, False)]
