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
    s = bench_pairs.summarize(PARENT, CHANGE, "higher")
    # inclusive quartiles of 96 98 100 102 104 and 104 118 120 122 125
    assert s["parent"] == {"q1": 98.0, "median": 100.0, "q3": 102.0}
    assert s["change"] == {"q1": 118.0, "median": 120.0, "q3": 122.0}
    assert s["ratio_of_medians"] == 1.2
    assert s["change_better_pairs"] == 4  # the 104/104 tie counts for neither
    assert s["median_gap"] == 20.0
    assert s["parent_iqr"] == 4.0
    assert s["runs"] == {"parent": PARENT, "change": CHANGE}


def test_summary_of_a_lower_is_better_metric():
    s = bench_pairs.summarize(PARENT, CHANGE, "lower")
    assert s["change_better_pairs"] == 0
    assert s["median_gap"] == -20.0
    s = bench_pairs.summarize(CHANGE, PARENT, "lower")
    assert (s["change_better_pairs"], s["median_gap"]) == (4, 20.0)
    assert s["ratio_of_medians"] == round(100 / 120, 4)


def test_verdict_needs_ratio_wins_and_a_gap_beyond_the_parent_iqr():
    s = bench_pairs.summarize(PARENT, CHANGE, "higher")
    v = bench_pairs.verdict(s, "ops_per_s", 1.15, "higher")
    # 4 wins of 5 pairs is fewer than 9 of 10
    assert v == {"metric": "ops_per_s", "claimed_ratio": 1.15,
                 "gain_of_medians": 1.2, "change_better_pairs": "4 of 5",
                 "median_gap": 20.0, "parent_iqr": 4.0, "claim_met": False}
    won = bench_pairs.summarize(PARENT, [120.0, 110.0, 125.0, 118.0, 122.0],
                                "higher")
    assert bench_pairs.verdict(won, "ops_per_s", 1.15, "higher")["claim_met"]
    assert not bench_pairs.verdict(won, "ops_per_s", 1.25,
                                   "higher")["claim_met"]
    lat = bench_pairs.summarize([10.0, 10.5, 9.5], [8.0, 8.2, 7.9], "lower")
    v = bench_pairs.verdict(lat, "op_p50_ms", 1.2, "lower")
    assert (v["gain_of_medians"], v["claim_met"]) == (1.25, True)


def fake_checkouts(tmp_path, end_to_end=()):
    """Two directories that pass for checkouts: a ``BENCHMARK.json`` with
    the ``end_to_end`` metrics given as (name, better), and a
    ``bench/run.py`` that does nothing."""
    dirs = {}
    for name in ("parent", "change"):
        root = tmp_path / name
        (root / "bench").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": m, "better": better} for m, better in end_to_end]}),
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
    dirs = fake_checkouts(tmp_path, [("ops_per_s", "higher"),
                                     ("op_p50_ms", "lower")])
    ran = []
    monkeypatch.setattr(bench_pairs, "run_side",
                        lambda *args: ran.append(args))
    argv = [str(dirs["parent"]), str(dirs["change"]), "--workload", "w",
            "--seeds", "1-10", "--claim", claim]
    assert bench_pairs.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert ran == []
