"""Self-tests of the benchmark: hook coverage, no perturbation by tracing,
oracle classification, a reproducible counter profile, and refusal to run
without the program. Run with ``python3 -m pytest bench -q``."""

import json
import os
import shutil
import subprocess
import sys

import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hooks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1

# layer metric -> workloads where it must be nonzero / must be zero
FIRES = {
    "st.runs": ["deal_st"],
    "st.steps": ["deal_st"],
    "shares.mask_draws": ["deal_st", "deal_gmw"],
    "ffi.calls": ["deal_st", "confluence_ds"],
    "ds.runs": ["confluence_ds", "psi_gmw", "deal_gmw"],
    "ds.ticks": ["confluence_ds", "deal_gmw"],
    "ds.machine_step_calls": ["confluence_ds", "deal_gmw"],
    "ds.moves.local": ["confluence_ds", "deal_gmw"],
    "ds.ideal_step_s": ["confluence_ds"],
    "lang.combine_envs_calls": ["confluence_ds", "deal_gmw"],
    "lang.slice_calls": ["confluence_ds", "deal_gmw"],
    "circuit.compiles": ["psi_gmw", "deal_gmw"],
    "circuit.ands": ["psi_gmw", "deal_gmw"],
    "circuit.bind_s": ["deal_gmw"],
    "circuit.decode_s": ["deal_gmw"],
    "gmw.evals": ["psi_gmw", "deal_gmw"],
    "gmw.bits.open": ["psi_gmw", "deal_gmw"],
    "inputs.decode_s": ["psi_gmw"],
    "inputs.encode_s": ["psi_gmw"],
    "sexp.parse_calls": list(run.NAMES),
}
SILENT = {
    "circuit.compiles": ["deal_st", "confluence_ds"],
    "gmw.evals": ["deal_st", "confluence_ds"],
    "gmw_bits_per_op": ["deal_st", "confluence_ds"],
    "ds.runs": ["deal_st"],
    "ds.machine_step_calls": ["deal_st"],
    "st.runs": ["confluence_ds", "psi_gmw", "deal_gmw"],
    "inputs.decode_s": ["deal_st", "confluence_ds", "deal_gmw"],
    "shares.mask_draws": ["psi_gmw"],
    "error_rate": ["confluence_ds", "psi_gmw"],
}


@pytest.fixture
def workdir():
    """A scratch directory under the benchmark's ignored output tree."""
    os.makedirs(run.OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.OUT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name in run.NAMES:
        r = bench("--workload", name, "--seed", str(SEED), "--seconds", "1",
                  "--trace", "1")
        assert r.returncode == 0, r.stderr
        out[name] = json.loads(r.stdout.strip().splitlines()[-1])
    return out


def test_traced_runs_report_every_layer_metric(traced):
    for name, res in traced.items():
        assert res["correct"], name
        assert set(res["metrics"]) == set(run.PER_LAYER), name


@pytest.mark.parametrize("metric", sorted(FIRES))
def test_hook_fires_where_its_layer_runs(traced, metric):
    for name in FIRES[metric]:
        assert traced[name]["metrics"][metric]["value"] > 0, name


@pytest.mark.parametrize("metric", sorted(SILENT))
def test_hook_stays_zero_where_its_layer_is_bypassed(traced, metric):
    for name in SILENT[metric]:
        assert traced[name]["metrics"][metric]["value"] == 0, name


def test_card_fold_defect_is_counted_on_both_dealing_workloads(traced):
    for name in ("deal_st", "deal_gmw"):
        assert traced[name]["failed"] > 0, name
        assert traced[name]["metrics"]["error_rate"]["value"] > 0, name


def test_tracing_changes_no_output_or_counter(workdir):
    for cls in workloads.WORKLOADS.values():
        if cls.name == "deal_st":
            continue  # the longest pass; covered by its traced run above
        wl = cls(SEED, workdir)
        gmw = hooks.GmwCounter()
        gmw.install()
        try:
            plain = workloads.Pass()
            wl.run_pass(plain)
            plain_gmw = gmw.snapshot()
            gmw.reset()
            tracer = hooks.Tracer()
            tracer.install()
            try:
                traced = workloads.Pass(tracer)
                wl.run_pass(traced)
            finally:
                tracer.uninstall()
        finally:
            gmw.uninstall()
        assert traced.outputs == plain.outputs, cls.name
        assert gmw.snapshot() == plain_gmw, cls.name
        assert tracer.spans and None not in tracer.spans, cls.name


def test_deal_oracle_blames_only_the_fold_defect():
    rands = {"a": 50, "b": 1, "c": 1}  # sums to 52: the fold deals 52
    p = workloads.Pass()
    workloads.check_deal(p, rands, [3], 52, [52, 3])
    assert (p.failed, p.known_defect) == (1, 1)
    workloads.check_deal(p, rands, [3], 7, [7, 3])
    assert (p.failed, p.known_defect) == (2, 1)
    workloads.check_deal(p, {"a": 1, "b": 2, "c": 3}, [3], 6, [6, 3])
    assert (p.failed, p.known_defect) == (2, 1)
    workloads.check_deal(p, {"a": 1, "b": 2, "c": 3}, [6], None, [6])
    assert (p.failed, p.known_defect) == (2, 1)


def test_counter_profile_is_reproducible_and_committed():
    code = ("import sys; sys.path[:0] = ['src', 'bench']; import counters; "
            "sys.stdout.buffer.write(counters.profile_bytes())")
    runs = [subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                           capture_output=True, timeout=300, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    with open(os.path.join(HERE, "profile.json"), "rb") as fh:
        assert fh.read() == runs[0]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(workdir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(HERE, os.path.join(workdir, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    r = bench("--workload", "psi_gmw", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=workdir)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
