"""Alternating parent/change pairs of ``bench/run.py``, summarised as JSON.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seeds A-B --seconds S [--out FILE] [--claim METRIC:RATIO]

PARENT_DIR and CHANGE_DIR are two checkouts; a directory without
``BENCHMARK.json`` or ``bench/run.py`` is refused with one ``error:`` line
and exit status 2. W is one workload that ``BENCHMARK.json`` of CHANGE_DIR
names; any other W, ``all`` and comma-separated lists included (which
``bench/run.py`` takes), is refused the same way before the first pair
runs. Each seed of A-B is one pair:
``bench/run.py --workload W --seed SEED --seconds S --trace 0`` runs once in
each checkout, each in a fresh process, the parent first on odd pairs (the
first pair is pair 1) and the change first on even ones, so a slow spell of
the host does not always fall on the same side.

For every end-to-end metric that ``BENCHMARK.json`` of CHANGE_DIR declares,
the summary gives each side's quartiles (inclusive method), the ratio of
the medians, ``change_better_pairs`` (pairs where the change reads better;
ties count for neither), ``median_gap`` (how far the change's median is
better than the parent's, negative when worse), ``parent_iqr``,
``worse_by`` (how far the change's median is worse than the parent's, as a
fraction of the parent's, negative when better) and ``within_bound``
(``worse_by`` is at most the metric's ``bound`` there). It also
records each run's attempted, failed and correct verdicts and host speed,
and the host note of the change's first run. With ``--out`` the workload's
block is added to FILE (or replaces the block of the same workload);
without it the document goes to stdout. ``--claim METRIC:RATIO`` adds a
verdict on that metric: met when the ratio of the medians reaches RATIO in
the better direction, the change wins at least 9 of every 10 pairs and the
median gap exceeds the parent's interquartile range. A claim is checked
before the first pair runs: METRIC must be one of the end-to-end metrics
and RATIO a positive number, or it is refused with one ``error:`` line and
exit status 2. A run that exits nonzero, or prints no result, ends the
command with one ``error:`` line that names its pair, seed and side, its
exit status and its last line of stderr, and exit status 1; nothing is
written to FILE then.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys

METHOD = ("pairs of parent and change runs, each side in its own checkout, "
          "alternating which side runs first (the parent on odd pairs); "
          "quartiles are inclusive; change_better_pairs counts the pairs "
          "where the change reads better, ties counting for neither")
_SPEED = re.compile(r"host speed ([0-9.]+) x nominal")


def parse_seeds(text: str) -> list[int]:
    """``"A-B"`` as the seeds A to B, both included; ``"A"`` as one seed."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def parse_claim(text: str, metrics: dict) -> tuple[str, float]:
    """``"METRIC:RATIO"`` as (METRIC, RATIO), METRIC one of ``metrics``."""
    metric, _, ratio = text.partition(":")
    if metric not in metrics:
        raise ValueError(f"--claim metric {metric!r} is not an end-to-end "
                         f"metric; use one of {', '.join(metrics)}")
    try:
        value = float(ratio)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"--claim ratio must be a positive number, "
                         f"got {ratio!r}")
    return metric, value


def quartiles(xs: list[float]) -> dict[str, float]:
    if len(xs) == 1:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(parent: list[float], change: list[float], better: str,
              bound: float) -> dict:
    """One metric over paired runs; ``better`` is "higher" or "lower", and
    ``bound`` the fraction by which the change's median may be worse."""
    sign = 1 if better == "higher" else -1
    p, c = quartiles(parent), quartiles(change)
    worse_by = sign * (p["median"] - c["median"]) / p["median"]
    return {
        "parent": {k: round(v, 4) for k, v in p.items()},
        "change": {k: round(v, 4) for k, v in c.items()},
        "ratio_of_medians": round(c["median"] / p["median"], 4),
        "change_better_pairs": sum(sign * (b - a) > 0
                                   for a, b in zip(parent, change)),
        "median_gap": round(sign * (c["median"] - p["median"]), 4),
        "parent_iqr": round(p["q3"] - p["q1"], 4),
        "worse_by": round(worse_by, 4) + 0.0,  # never -0.0
        "within_bound": worse_by <= bound,
        "runs": {"parent": [round(x, 4) for x in parent],
                 "change": [round(x, 4) for x in change]},
    }


def verdict(block: dict, metric: str, ratio: float, better: str) -> dict:
    """Whether ``block`` (a ``summarize`` result over ``pairs`` pairs) meets
    a claimed gain of ``ratio`` on ``metric``."""
    pairs = len(block["runs"]["parent"])
    gain = block["ratio_of_medians"]
    if better == "lower":
        gain = 1 / gain
    wins = block["change_better_pairs"]
    return {
        "metric": metric,
        "claimed_ratio": ratio,
        "gain_of_medians": round(gain, 4),
        "change_better_pairs": f"{wins} of {pairs}",
        "median_gap": block["median_gap"],
        "parent_iqr": block["parent_iqr"],
        "claim_met": (gain >= ratio and 10 * wins >= 9 * pairs
                      and block["median_gap"] > block["parent_iqr"]),
    }


class RunFailed(Exception):
    """A side's ``bench/run.py`` exited nonzero or printed no result."""


def run_side(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run in checkout ``root``."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True,
                         encoding="utf-8")
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        last = out.stderr.strip().rpartition("\n")[2] or "(no stderr)"
        raise RunFailed(f"bench/run.py in {root} exited with status "
                        f"{out.returncode}: {last}")
    result = json.loads(lines[-1])
    speed = _SPEED.search(out.stdout)
    # the run's own record under bench/out holds its host note
    with open(os.path.join(root, "bench", "out",
                           f"{workload}-s{seed}-t0.json"),
              encoding="utf-8") as fh:
        host = json.load(fh)["host"]
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "host": host,
            "host_speed": float(speed.group(1)) if speed else None,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def measure(parent_dir: str, change_dir: str, workload: str,
            seeds: list[int], seconds: float, metrics: dict) -> dict:
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds, 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            root = parent_dir if side == "parent" else change_dir
            try:
                runs[side].append(run_side(root, workload, seed, seconds))
            except RunFailed as ex:
                raise RunFailed(f"pair {i} seed {seed} {side}: {ex}") from None
            print(f"pair {i} seed {seed} {side}: "
                  f"{runs[side][-1]['metrics']}", file=sys.stderr)
    block = {
        "host": runs["change"][0]["host"],
        "seeds": seeds,
        "pairs": len(seeds),
        "attempted_failed_correct": {
            side: [[seed, r["attempted"], r["failed"], r["correct"]]
                   for seed, r in zip(seeds, rs)]
            for side, rs in runs.items()},
        "host_speed": {side: [r["host_speed"] for r in rs]
                       for side, rs in runs.items()},
    }
    for name, m in metrics.items():
        block[name] = summarize([r["metrics"][name] for r in runs["parent"]],
                                [r["metrics"][name] for r in runs["change"]],
                                m["better"], m["bound"])
    return block


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out")
    ap.add_argument("--claim", help="METRIC:RATIO")
    args = ap.parse_args(argv)
    for root in (args.parent_dir, args.change_dir):
        for need in ("BENCHMARK.json", os.path.join("bench", "run.py")):
            if not os.path.isfile(os.path.join(root, need)):
                print(f"error: {root} is not a checkout: it has no {need}",
                      file=sys.stderr)
                return 2

    declared_in = os.path.join(args.change_dir, "BENCHMARK.json")
    with open(declared_in, encoding="utf-8") as fh:
        declared = json.load(fh)
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    if args.workload not in workloads:
        print(f"error: --workload {args.workload!r} is not a workload of "
              f"{declared_in}; use one of {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    claim = None
    if args.claim:
        try:
            claim = parse_claim(args.claim, metrics)
        except ValueError as ex:
            print(f"error: {ex}", file=sys.stderr)
            return 2
    try:
        block = measure(args.parent_dir, args.change_dir, args.workload,
                        args.seeds, args.seconds, metrics)
    except RunFailed as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    if claim:
        metric, ratio = claim
        block["verdict"] = verdict(block[metric], metric, ratio,
                                   metrics[metric]["better"])
    doc = {}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.update(command="python3 bench/run.py --workload W --seed S "
                       f"--seconds {args.seconds:g} --trace 0",
               method=METHOD, host=block.pop("host"))
    doc.setdefault("workloads", {})[args.workload] = block
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
