"""Command-line driver.

    wysx run [--mode st | --mode ds [--backend ideal|gmw]
             [--sched rr|rand:SEED]] [--width W] [--fuel N]
             PROGRAM --inputs a=a.json b=b.json
    wysx check sim PROGRAM --inputs ...
    wysx check confluence PROGRAM --inputs ... [--schedules N]
    wysx check security --suite median|psi|cards [--domain N]
    wysx dump-circuit PROGRAM --inputs ...

PROGRAM is a .wyx file path or the bare name of a bundled program.  Each
input file is a JSON object mapping variables to that party's view of the
value; the views are merged before running.  Results go to stdout as
canonical JSON, diagnostics to stderr.  Exit status: 0 on success, 1 on
semantic failure (stuck run, failed or vacuous check, bad program or
inputs), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import apps
from .circuit import dump_circuit
from .ds import check_confluence, check_simulation, ds_run, parse_sched
from .inputs import (canonical_json, check_principal, load_env_file,
                     trace_to_json, value_to_json)
from .lang import (CombineConflict, Env, PrinSet, TMsg, WysError,
                   combine_envs, combine_values)
from .sexp import parse
from .st import DEFAULT_FUEL, Runtime, run


class CliError(Exception):
    pass


def _read_program(name: str):
    if os.path.exists(name):
        with open(name, encoding="utf-8") as f:
            return parse(f.read())
    if name in apps.PROGRAM_NAMES:
        return apps.load_program(name)
    raise CliError(f"program file not found: {name}")


def _disagreement(files: list[tuple[str, Env]]) -> Optional[str]:
    """The first variable two input files disagree on, with both files."""
    for j, (path2, env2) in enumerate(files):
        for path1, env1 in files[:j]:
            names1, names2 = env1.names(), env2.names()
            for x in sorted(names1 | names2):
                if x not in names1 or x not in names2:
                    has, lacks = ((path1, path2) if x in names1
                                  else (path2, path1))
                    return f"input {x} is in {has} but not in {lacks}"
                try:
                    combine_values(env1.get(x), env2.get(x))
                except CombineConflict as ex:
                    return (f"input {x} differs between {path1} and "
                            f"{path2}: {ex}")
    return None


def _once(names: list[str], flag: str) -> list[str]:
    """``names``, refused if ``flag`` names one party twice."""
    for i, p in enumerate(names):
        if p in names[:i]:
            raise CliError(f"{flag} names party {p} twice")
    return names


def _gather_env(args) -> tuple[Env, PrinSet]:
    parties = []
    for item in args.inputs:
        party, sep, path = item.partition("=")
        if not sep or not party or not path:
            raise CliError(f"bad --inputs entry {item!r}, expected P=FILE")
        parties.append((check_principal(party, "--inputs"), path))
    names = _once([p for p, _ in parties], "--inputs")
    files = [(path, load_env_file(path)) for _, path in parties]
    if args.prins:
        names = _once([check_principal(p.strip(), "--prins")
                       for p in args.prins.split(",") if p.strip()],
                      "--prins")
    if not names:
        raise CliError("no principals: pass --inputs P=FILE... or --prins a,b")
    ps = PrinSet.of(*names)
    try:
        env = combine_envs([env for _, env in files]) if files else Env()
    except CombineConflict as ex:
        raise CliError(_disagreement(files) or str(ex)) from None
    return env, ps


def _common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("program", help=".wyx file or bundled program name")
    p.add_argument("--inputs", nargs="*", default=[], metavar="P=FILE",
                   help="per-party input files")
    p.add_argument("--prins", default=None,
                   help="comma-separated principals (overrides input names)")
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wysx",
        description="Run and check mixed-mode multi-party programs.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="execute a program")
    _common_args(p)
    p.add_argument("--mode", choices=("st", "ds"), default="st")
    p.add_argument("--backend", choices=("ideal", "gmw"), default=None,
                   help="with --mode ds (default: ideal)")
    p.add_argument("--sched", default=None,
                   help="rr or rand:SEED, with --mode ds (default: rr)")

    c = sub.add_parser("check", help="run a verification suite")
    what = c.add_subparsers(dest="what", required=True)

    p = what.add_parser("sim", help="reference vs distributed agreement")
    _common_args(p)
    p.add_argument("--backend", choices=("ideal", "gmw"), default="ideal")

    p = what.add_parser("confluence", help="schedule independence")
    _common_args(p)
    p.add_argument("--backend", choices=("ideal", "gmw"), default="ideal")
    p.add_argument("--schedules", type=int, default=100)

    p = what.add_parser("security", help="application security suites")
    p.add_argument("--suite", choices=("median", "psi", "cards"),
                   required=True)
    p.add_argument("--domain", type=int, default=None,
                   help="size of the input domain (default: suite-specific)")

    p = sub.add_parser("dump-circuit",
                       help="print the boolean circuits of the joint blocks")
    _common_args(p)

    return ap


def _out_of_fuel(fuel: int, unit: str) -> int:
    print(f"run fuel: no result within {fuel} {unit}", file=sys.stderr)
    return 1


def cmd_run(args) -> int:
    if args.mode == "st":
        for flag, given in (("--backend", args.backend),
                            ("--sched", args.sched)):
            if given is not None:
                raise CliError(f"{flag} needs --mode ds")
    expr = _read_program(args.program)
    env, ps = _gather_env(args)
    rt = Runtime(seed=args.seed, width=args.width)
    if args.mode == "st":
        r = run(expr, env, ps, rt, args.fuel)
        if r.status == "fuel":
            return _out_of_fuel(args.fuel, "steps")
        if r.status != "done":
            print(f"run {r.status}: {r.stuck_rule}: {r.stuck_reason}",
                  file=sys.stderr)
            return 1
        out = {"status": "done",
               "value": value_to_json(r.value),
               "trace": trace_to_json(r.trace)}
        print(canonical_json(out))
        return 0
    sched = parse_sched("rr" if args.sched is None else args.sched)
    res = ds_run(expr, env, ps, rt, sched, args.backend or "ideal",
                 args.fuel)
    if res.status == "fuel":
        return _out_of_fuel(args.fuel, "ticks")
    if res.status != "done":
        print(f"run {res.status}: {res.reason}", file=sys.stderr)
        return 1
    out = {"status": "done",
           "parties": {p: {"value": value_to_json(v),
                           "trace": trace_to_json(t)}
                       for p, (v, t) in res.parties.items()}}
    print(canonical_json(out))
    return 0


def _report(status: str, detail: str) -> int:
    if status == "pass":
        print("PASS")
        return 0
    print(f"{status.upper()}: {detail}" if detail else status.upper())
    return 1


def cmd_check(args) -> int:
    if args.what == "security":
        return cmd_security(args)
    expr = _read_program(args.program)
    env, ps = _gather_env(args)
    if args.what == "sim":
        rep = check_simulation(expr, env, ps, seed=args.seed,
                               width=args.width, backend=args.backend,
                               fuel=args.fuel)
    else:
        rep = check_confluence(expr, env, ps, seed=args.seed,
                               width=args.width,
                               n_schedules=args.schedules,
                               backend=args.backend, fuel=args.fuel)
    return _report(rep.status, rep.detail)


def cmd_security(args) -> int:
    suite = {"median": apps.check_median_security,
             "psi": apps.check_psi_security,
             "cards": apps.check_cards}[args.suite]
    if args.domain is not None and args.domain < 1:
        raise CliError(f"domain must be at least 1, got {args.domain}")
    sized = {} if args.domain is None else {"hi": args.domain}
    rep = suite(**sized)
    if rep.status != "pass":
        return _report(rep.status, rep.detail)
    note = (f"{rep.checked} runs, {rep.groups} groups compared two or more "
            f"input classes")
    if args.suite == "median":
        # a broken oracle must be caught, or the check itself is broken
        def no_scopes(a, b):
            return tuple(ev for ev in apps.opt_trace(a, b)
                         if type(ev) is TMsg)
        if suite(**sized, oracle=no_scopes).status == "pass":
            return _report("fail", "negative control passed; check is inert")
        note += ", negative control caught"
    print(f"  ({note})", file=sys.stderr)
    return _report("pass", "")


def cmd_dump(args) -> int:
    expr = _read_program(args.program)
    env, ps = _gather_env(args)
    rt = Runtime(seed=args.seed, width=args.width)
    res = ds_run(expr, env, ps, rt, parse_sched("rr"), "gmw", args.fuel)
    for label, circ in res.circuits:
        print(f"# joint block {label}")
        print(dump_circuit(circ))
    if res.status == "fuel":
        return _out_of_fuel(args.fuel, "ticks")
    if res.status != "done":
        print(f"run {res.status}: {res.reason}", file=sys.stderr)
        return 1
    if not res.circuits:
        print("# no joint blocks", file=sys.stderr)
    return 0


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:  # built once per process; parsing leaves it as is
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.cmd == "run":
            return cmd_run(args)
        if args.cmd == "check":
            return cmd_check(args)
        return cmd_dump(args)
    except (CliError, WysError, OSError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except RecursionError:
        # values built at run time have no depth bound but the host stack
        print("error: value nested too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
