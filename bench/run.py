"""Benchmark of wysx: end-to-end metrics from an untraced run, per-layer
metrics from a separate traced run.

    python3 bench/run.py --workload deal_st --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--workload`` takes one name, a comma-separated list, or ``all``; each
workload runs in a fresh process. A run builds its inputs from ``--seed``,
repeats the workload's fixed pass of operations for about ``--seconds`` in
one single-threaded closed loop with one caller, and checks every operation
against an independent oracle. It prints every metric with its unit and
sample count, writes them with a host note under ``bench/out/``, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics; its only hook counts GMW
rounds and bits. Its timings are each op's fastest time over the passes,
scaled by the host speed that a fixed probe between the ops measured, so
that slow periods of a shared host cancel out; the unadjusted values are
printed beside them. ``--trace 1`` first repeats the untraced measurement for
half the time, then traces the other half, and reports the per-layer
metrics, the tracing overhead, and the counter profile of every bundled
program. ``correct`` is false when an operation fails other than by the
documented card-52 fold of ``deal_round.wyx`` (counted in ``failed``), or
when passes, or traced and untraced runs, disagree on an output or an
exact counter. The exit status is nonzero, with no JSON line, when the
oracles cannot run at all, for instance without ``src/wysx``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 - set-up time starts before the imports
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

NAMES = ("deal_st", "confluence_ds", "psi_gmw", "deal_gmw")
SETUP_REPEATS = 8  # fresh set-up processes measured besides the run itself
# End-to-end timings are scaled to a host on which workloads.host_probe()
# takes this long; run-long slowdowns of a shared host then cancel out.
PROBE_NOMINAL_S = 0.0008
# Probing time after each set-up that scales it to the nominal host speed.
SETUP_PROBE_S = 0.2
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics: exact counts are per pass (one sweep of the workload's
# op list); times are unadjusted seconds per pass under tracing, medians over
# the traced passes, taken while the host ran at bench.host_speed.
PER_LAYER = {
    "error_rate": "ratio",
    "gmw_bits_per_op": "bits",
    "gmw_rounds_per_op": "rounds",
    "sexp.parse_s": "s",
    "sexp.parse_calls": "count",
    "inputs.decode_s": "s",
    "inputs.encode_s": "s",
    "st.runs": "count",
    "st.run_s": "s",
    "st.steps": "count",
    "st.steps_per_s": "1/s",
    "st.sec_entries": "count",
    "ds.runs": "count",
    "ds.run_s": "s",
    "ds.ticks": "count",
    "ds.machine_step_calls": "count",
    "ds.machine_step_s": "s",
    "ds.moves.local": "count",
    "ds.moves.enter": "count",
    "ds.moves.sec_step": "count",
    "ds.moves.exit": "count",
    "ds.step_use_ratio": "ratio",
    "ds.ideal_step_s": "s",
    "lang.combine_envs_s": "s",
    "lang.combine_envs_calls": "count",
    "lang.slice_s": "s",
    "lang.slice_calls": "count",
    "ffi.calls": "count",
    "ffi.s": "s",
    "shares.mask_draws": "count",
    "shares.mint_s": "s",
    "circuit.compiles": "count",
    "circuit.compile_s": "s",
    "circuit.us_per_gate": "us",
    "circuit.gates": "count",
    "circuit.ands": "count",
    "circuit.and_depth": "count",
    "circuit.bind_s": "s",
    "circuit.decode_s": "s",
    "gmw.evals": "count",
    "gmw.eval_s": "s",
    "gmw.us_per_and": "us",
    "gmw.rounds": "count",
    "gmw.and_rounds": "count",
    "gmw.triples": "count",
    "gmw.bits.input": "bits",
    "gmw.bits.open": "bits",
    "gmw.bits.output": "bits",
    "cli.self_s": "s",
    "apps.self_s": "s",
    "st.self_s": "s",
    "ds.self_s": "s",
    "circuit.self_s": "s",
    "gmw.self_s": "s",
    "inputs.self_s": "s",
    "ffi.self_s": "s",
    "shares.self_s": "s",
    "lang.self_s": "s",
    "bench.ops_per_pass": "count",
    "bench.verify_s": "s",
    "bench.host_speed": "ratio",
    "trace.overhead_pct": "%",
}

# Counters that must repeat exactly from pass to pass.
EXACT = {name for name, unit in PER_LAYER.items()
         if unit in ("count", "bits", "rounds") or name == "error_rate"}


def host_note() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload, a comma-separated list, or all: "
                         + ", ".join(NAMES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement


def measure(wl, budget: float, gmw, tracer=None) -> list:
    """Run whole passes until the next one would end after ``budget``."""
    from workloads import Pass

    passes = []
    t0 = time.perf_counter()
    while True:
        p = Pass(tracer)
        gmw.reset()
        if tracer is not None:
            tracer.reset()
            first_span = len(tracer.spans)
        start = time.perf_counter()
        wl.run_pass(p)
        p.wall = time.perf_counter() - start
        p.gmw = gmw.snapshot()
        if tracer is not None:
            p.layers = layer_tally(tracer, first_span)
        if passes and p.outputs == passes[0].outputs:
            p.outputs = passes[0].outputs  # one copy, so RSS stays flat
        passes.append(p)
        if time.perf_counter() - t0 + p.wall > budget:
            return passes


def layer_tally(tr, first_span: int) -> dict:
    c, t, k = tr.calls, tr.total_s, tr.counts
    gates, ands = k["circuit.gates"], k["circuit.ands"]
    m = {
        "inputs.decode_s": tr.outer_s({"inputs.load_env_file",
                                       "inputs.env_from_json"}, first_span),
        "inputs.encode_s": t["inputs.value_to_json"]
        + t["inputs.trace_to_json"],
        "st.runs": c["st.run"],
        "st.run_s": t["st.run"],
        "st.steps": k["st.steps"],
        "st.steps_per_s": k["st.steps"] / t["st.run"] if t["st.run"] else 0,
        "st.sec_entries": k["st.sec_entries"],
        "ds.runs": c["ds.ds_run"],
        "ds.run_s": t["ds.ds_run"],
        "ds.ticks": k["ds.ticks"],
        "ds.machine_step_calls": c["ds.machine_step"],
        "ds.machine_step_s": t["ds.machine_step"],
        "ds.step_use_ratio": (k["ds.moves.local"] / c["ds.machine_step"]
                              if c["ds.machine_step"] else 0),
        "ds.ideal_step_s": t["ds.st_step"],
        "lang.combine_envs_s": t["lang.combine_envs"],
        "lang.combine_envs_calls": c["lang.combine_envs"],
        "lang.slice_s": t["lang.slice_env"] + t["lang.slice_value"],
        "lang.slice_calls": c["lang.slice_env"] + c["lang.slice_value"],
        "ffi.calls": c["ffi.exec_ffi"],
        "ffi.s": t["ffi.exec_ffi"],
        "shares.mask_draws": c["shares.draw_masks"],
        "shares.mint_s": t["shares.draw_masks"],
        "circuit.compiles": c["circuit.compile_sec_thunk"],
        "circuit.compile_s": t["circuit.compile_sec_thunk"],
        "circuit.us_per_gate": (1e6 * t["circuit.compile_sec_thunk"] / gates
                                if gates else 0),
        "circuit.gates": gates,
        "circuit.ands": ands,
        "circuit.and_depth": k["circuit.and_depth"],
        "circuit.bind_s": t["circuit.bind_inputs"],
        "circuit.decode_s": t["circuit.decode_output"],
        "gmw.evals": c["gmw.gmw_eval"],
        "gmw.eval_s": t["gmw.gmw_eval"],
    }
    for kind in ("local", "enter", "sec_step", "exit"):
        m[f"ds.moves.{kind}"] = k[f"ds.moves.{kind}"]
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            m[name] = 0.0
    for name, s in tr.self_s.items():
        key = name.split(".", 1)[0] + ".self_s"
        if key in m:
            m[key] += s
    return m


def consistency(passes, ref) -> list[str]:
    """Every pass must repeat the reference pass's outputs and counters."""
    errors = []
    for i, p in enumerate(passes):
        if p.outputs != ref.outputs:
            errors.append(f"pass {i}: outputs differ from the first pass")
        if p.gmw != ref.gmw:
            errors.append(f"pass {i}: GMW counters differ: {p.gmw} vs "
                          f"{ref.gmw}")
    return errors


def setup_speed() -> float:
    """Host speed just after a set-up: the nominal probe time over the mean
    probe time during ``SETUP_PROBE_S``. Slow periods of a shared host last
    seconds, so the probes see the host that the set-up saw; a set-up is a
    single shot, so the mean, not the fastest probe, matches it."""
    from workloads import host_probe

    times = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < SETUP_PROBE_S:
        times.append(host_probe())
    return PROBE_NOMINAL_S / statistics.fmean(times)


def setup_samples(name: str, seed: int, first: dict) -> list[dict]:
    """Set-up time and host speed of this run plus ``SETUP_REPEATS`` fresh
    processes."""
    samples = [first]
    for _ in range(SETUP_REPEATS):
        r = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True)
        samples.append(json.loads(r.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# one workload in this process


def run_one(name: str, args) -> int:
    sys.path.insert(0, SRC)
    import wysx
    if os.path.dirname(os.path.abspath(wysx.__file__)) != \
            os.path.join(SRC, "wysx"):
        print(f"error: imported wysx from {wysx.__file__}, not from src/",
              file=sys.stderr)
        return 2
    from wysx import apps

    import hooks
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    gmw = hooks.GmwCounter()
    tracer = hooks.Tracer() if args.trace else None
    try:
        gmw.install()
        if tracer is not None:
            tracer.install()
        for prog in apps.PROGRAM_NAMES:
            apps.load_program(prog)
        wl = workloads.WORKLOADS[name](args.seed, workdir)
        setup = {"setup_s": time.perf_counter() - T0, "speed": setup_speed()}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if tracer is None:
            return report_untraced(name, args, wl, gmw, setup)
        setup_layers = {"sexp.parse_s": tracer.total_s["sexp.parse"],
                        "sexp.parse_calls": tracer.calls["sexp.parse"]}
        tracer.uninstall()
        return report_traced(name, args, wl, gmw, tracer, setup_layers)
    finally:
        if tracer is not None:
            tracer.uninstall()
        gmw.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def gmw_per_op(p) -> tuple[float, float]:
    ops = len(p.lat)
    bits = sum(v for k, v in p.gmw.items() if k.startswith("bits."))
    return bits / ops, p.gmw["rounds"] / ops


def verdicts(passes) -> tuple[int, int]:
    """Attempted and failed ops of the run: those of one pass. Every pass
    repeats the same ops with the same outputs (``consistency`` checks it),
    so the counts depend on the seed alone, not on how many passes fit."""
    return len(passes[0].lat), passes[0].failed


def summary_lines(name, args, passes, errors) -> list[str]:
    attempted, failed = verdicts(passes)
    lines = [
        f"host: {json.dumps(host_note(), sort_keys=True)}",
        f"workload {name} seed {args.seed} trace {args.trace}: "
        f"{len(passes)} passes of {attempted} ops, "
        f"{sum(len(p.lat) for p in passes)} ops timed",
        f"  failed ops per pass: {failed} of {attempted}, "
        f"{passes[0].known_defect} of them from the card-52 fold of "
        f"deal_round.wyx",
    ]
    lines += [f"  unexpected: {e}" for e in errors[:5]]
    return lines


def collect_errors(passes, ref) -> list[str]:
    errors = consistency(passes, ref)
    for p in passes:
        errors.extend(p.unexpected)
    return errors


def emit(name, args, passes, metrics, units, errors, extra_lines=()) -> int:
    attempted, failed = verdicts(passes)
    for line in summary_lines(name, args, passes, errors):
        print(line)
    for line in extra_lines:
        print(line)
    out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    for k, v in out.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    result = {"correct": not errors, "attempted": attempted,
              "failed": failed, "metrics": out}
    record = dict(result, workload=name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, host=host_note(),
                  passes=len(passes), errors=errors[:20])
    path = os.path.join(OUT, f"{name}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def fastest(series) -> list[float]:
    """Each op's (or probe's) fastest time over the run's passes.

    Other tenants slow a shared host by up to 2x within a second and never
    speed it up, so the fastest repeat is the steadiest estimate of a cost.
    Allocation and collection repeat identically in every pass, so their
    cost stays in the minimum."""
    return [min(ts) for ts in zip(*series)]


def host_speed(passes) -> float:
    """How much faster than nominal the host ran during these passes: the
    nominal probe time over the mean fastest probe time. The probes sit
    between the ops, so they see the host the ops saw; slower periods that
    outlast a whole run cancel out of the adjusted timings."""
    return PROBE_NOMINAL_S / statistics.fmean(
        fastest(p.probes for p in passes))


def report_untraced(name, args, wl, gmw, setup) -> int:
    passes = measure(wl, args.seconds, gmw)
    best = fastest(p.lat for p in passes)
    speed = host_speed(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = setup_samples(name, args.seed, setup)
    raw = {
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": 1e3 * statistics.median(best),
        "op_p90_ms": 1e3 * statistics.quantiles(best, n=10)[8],
    }
    metrics = {k: v / speed if k == "ops_per_s" else v * speed
               for k, v in raw.items()}
    raw["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    metrics["setup_s"] = statistics.median(
        s["setup_s"] * s["speed"] for s in setups)
    metrics["peak_rss_mb"] = rss_mb
    attempted, failed = verdicts(passes)
    bits, rounds = gmw_per_op(passes[0])
    notes = [f"  error_rate = {failed / attempted:.6g} ratio",
             f"  gmw_bits_per_op = {bits:.6g} bits",
             f"  gmw_rounds_per_op = {rounds:.6g} rounds",
             f"  op latency samples: {len(best)} ops, each the fastest of "
             f"{len(passes)} passes; {len(best) - int(0.9 * len(best))} "
             f"beyond p90",
             f"  host speed {speed:.4f} x nominal; unadjusted: "
             + json.dumps({k: round(v, 6) for k, v in raw.items()}),
             f"  setup samples: {len(setups)} processes, each scaled by the "
             f"host speed just after it"]
    return emit(name, args, passes, metrics, END_TO_END,
                collect_errors(passes, passes[0]), notes)


def report_traced(name, args, wl, gmw, tracer, setup_layers) -> int:
    import counters

    half = args.seconds / 2
    plain = measure(wl, half, gmw)
    tracer.install()
    try:
        traced = measure(wl, half, gmw, tracer)
    finally:
        tracer.uninstall()
    ref = plain[0]
    errors = collect_errors(plain + traced, ref)
    for i, p in enumerate(traced):
        for k in EXACT & p.layers.keys():
            if p.layers[k] != traced[0].layers[k]:
                errors.append(f"traced pass {i}: {k} differs")

    ops = len(ref.lat)
    bits, rounds = gmw_per_op(ref)
    metrics = dict(setup_layers)
    for k, v in traced[0].layers.items():
        metrics[k] = v if k in EXACT else statistics.median(
            p.layers[k] for p in traced)
    metrics.update({
        "error_rate": ref.failed / ops,
        "gmw_bits_per_op": bits,
        "gmw_rounds_per_op": rounds,
        "gmw.us_per_and": (1e6 * metrics["gmw.eval_s"] / ref.gmw["triples"]
                           if ref.gmw["triples"] else 0),
        "gmw.rounds": ref.gmw["rounds"],
        "gmw.and_rounds": ref.gmw["and_rounds"],
        "gmw.triples": ref.gmw["triples"],
        "gmw.bits.input": ref.gmw["bits.input"],
        "gmw.bits.open": ref.gmw["bits.open"],
        "gmw.bits.output": ref.gmw["bits.output"],
        "bench.ops_per_pass": ops,
        "bench.verify_s": statistics.median(
            p.wall - sum(p.lat) - sum(p.probes) for p in plain),
        "trace.overhead_pct": 100 * (
            sum(fastest(p.lat for p in traced)) * host_speed(traced)
            / (sum(fastest(p.lat for p in plain)) * host_speed(plain)) - 1),
        "bench.host_speed": host_speed(traced),
    })
    metrics = {k: metrics[k] for k in PER_LAYER}

    spans_path = os.path.join(OUT, f"spans-{name}-s{args.seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps(sp) + "\n")
    blob = counters.profile_bytes()
    with open(os.path.join(OUT, "profile.json"), "wb") as fh:
        fh.write(blob)
    try:
        with open(os.path.join(HERE, "profile.json"), "rb") as fh:
            same = fh.read() == blob
    except FileNotFoundError:
        same = False
    notes = [
        f"  traced: {len(traced)} passes, untraced: {len(plain)} passes; "
        f"{len(tracer.spans)} spans in {os.path.relpath(spans_path, ROOT)}",
        f"  counter profile sha256 {hashlib.sha256(blob).hexdigest()[:16]}: "
        + ("identical to" if same else "differs from")
        + " the committed bench/profile.json",
    ]
    return emit(name, args, traced, metrics, PER_LAYER, errors, notes)


# ---------------------------------------------------------------------------
# several workloads, one fresh process each


def run_many(names, args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        r = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 60)
        lines = r.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if r.returncode != 0 or not lines:
            print(f"error: workload {name} exited {r.returncode}",
                  file=sys.stderr)
            status = r.returncode or 1
            continue
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = v
    if status:
        return status
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    names = NAMES if args.workload == "all" else tuple(
        args.workload.split(","))
    unknown = [n for n in names if n not in NAMES]
    if unknown:
        print(f"error: unknown workload {unknown}; choose from {NAMES}",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "wysx", "__init__.py")):
        print("error: no wysx sources at src/wysx; run from the root of a "
              "wysx checkout", file=sys.stderr)
        return 2
    if len(names) > 1:
        return run_many(names, args)
    return run_one(names[0], args)


if __name__ == "__main__":
    sys.exit(main())
