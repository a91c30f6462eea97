"""Command line driver: run, check, dump-circuit, exit codes."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wysx import apps, cli
from wysx.cli import main
from wysx.ds import RoundRobin, SeededRandom, ds_run
from wysx.inputs import value_to_json
from wysx.lang import slice_value
from wysx.sexp import MAX_NESTING
from wysx.st import CheckReport


def write(tmp_path, name, obj):
    f = tmp_path / name
    f.write_text(json.dumps(obj), encoding="utf-8")
    return str(f)


@pytest.fixture
def median_files(tmp_path):
    a = write(tmp_path, "a.json", {
        "in_a": {"sealed": {"ps": ["a"], "v": {"tuple": [1, 3]}}},
        "in_b": {"sealed": {"ps": ["b"]}},
    })
    b = write(tmp_path, "b.json", {
        "in_a": {"sealed": {"ps": ["a"]}},
        "in_b": {"sealed": {"ps": ["b"], "v": {"tuple": [2, 4]}}},
    })
    return a, b


def test_run_bundled_median(median_files, capsys):
    a, b = median_files
    rc = main(["run", "median", "--inputs", f"a={a}", f"b={b}"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["status"] == "done"
    assert payload["value"] == 2
    assert payload["trace"] == [{"TMsg": 2}]


def test_run_distributed_matches_reference(median_files, capsys):
    a, b = median_files
    assert main(["run", "median", "--inputs", f"a={a}", f"b={b}",
                 "--mode", "ds"]) == 0
    ds = json.loads(capsys.readouterr().out)
    assert ds["status"] == "done"
    assert ds["parties"]["a"]["value"] == 2
    assert ds["parties"]["b"]["trace"] == [{"TMsg": 2}]


def test_run_with_gmw_backend(median_files, capsys):
    a, b = median_files
    assert main(["run", "median_opt", "--inputs", f"a={a}", f"b={b}",
                 "--mode", "ds", "--backend", "gmw"]) == 0
    ds = json.loads(capsys.readouterr().out)
    assert ds["status"] == "done"
    assert ds["parties"]["a"]["value"] == 2


def test_run_program_from_file(tmp_path, capsys):
    prog = tmp_path / "double.wyx"
    prog.write_text("; doubles a public number\n(ffi add pub pub)",
                    encoding="utf-8")
    inp = write(tmp_path, "p.json", {"pub": 21})
    rc = main(["run", str(prog), "--inputs", f"a={inp}", "--prins", "a,b"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["value"] == 42


@pytest.mark.parametrize("src, printed", [
    ("(prin a)", {"prin": "a"}),
    ("(prins b a)", {"prins": ["a", "b"]}),
    ("(lam x x)", {"closure": None}),
    ("o", {"opaque": None}),
])
def test_run_prints_each_kind_of_value(tmp_path, capsys, src, printed):
    prog = tmp_path / "value.wyx"
    prog.write_text(src, encoding="utf-8")
    inp = write(tmp_path, "a.json", {"o": {"opaque": None}})
    assert main(["run", str(prog), "--inputs", f"a={inp}",
                 "--prins", "a,b"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == printed


def test_run_stuck_program_fails(tmp_path, capsys):
    prog = tmp_path / "stuck.wyx"
    prog.write_text("(ffi add 1 true)", encoding="utf-8")
    rc = main(["run", str(prog), "--prins", "a,b"])
    assert rc == 1
    assert "stuck" in capsys.readouterr().err


def test_input_files_are_utf8_whatever_the_locale(tmp_path):
    prog = tmp_path / "s.wyx"
    prog.write_text("s", encoding="utf-8")
    inp = tmp_path / "a.json"
    # the accent is two bytes of UTF-8, which an ASCII locale cannot read
    inp.write_text('{"s": "caf\u00e9"}', encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "wysx.cli", "run", str(prog),
                          "--inputs", f"a={inp}"], capture_output=True,
                         encoding="utf-8", env=env)
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout)["value"] == "caf\u00e9"


def test_missing_program_is_an_error(capsys):
    rc = main(["run", "no_such_program"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["/no/such/dir/median.wyx", "median.wyx",
                                  "programs/median"])
def test_only_a_bare_name_runs_a_bundled_program(name, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", name, "--prins", "a,b"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: program file not found: {name}\n"


@pytest.mark.parametrize("entry", ["a", "=a.json", "a="])
def test_a_malformed_inputs_entry_is_a_one_line_error(capsys, entry):
    assert main(["run", "median", "--inputs", entry]) == 1
    assert one_error_line(capsys) == \
        f"error: bad --inputs entry {entry!r}, expected P=FILE\n"


def test_bad_input_file_is_an_error(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text("{oops", encoding="utf-8")
    rc = main(["run", "median", "--inputs", f"a={f}"])
    assert rc == 1


@pytest.mark.parametrize("backend", ["ideal", "gmw"])
def test_bad_share_handles_are_one_line_errors(tmp_path, capsys, backend):
    from test_inputs import BAD_SHARES
    prog = tmp_path / "comb.wyx"
    prog.write_text("(as_sec (prins a b) (lam _ (ffi comb_sh h)))",
                    encoding="utf-8")
    for i, share in enumerate(BAD_SHARES):
        inp = write(tmp_path, f"h{i}.json", {"h": share})
        assert main(["run", str(prog), "--prins", "a,b", "--inputs",
                     f"a={inp}", "--mode", "ds", "--backend", backend]) == 1
        captured = capsys.readouterr()
        assert captured.out == "", share
        assert captured.err.startswith(f"error: {inp}.h."), share
        assert captured.err.count("\n") == 1 and captured.err[-1] == "\n"


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as ex:
        main(["run"])  # missing program
    assert ex.value.code == 2
    with pytest.raises(SystemExit) as ex:
        main(["frobnicate"])
    assert ex.value.code == 2


def test_parser_is_built_once_and_reused(median_files, capsys, monkeypatch):
    import wysx.cli as cli
    built = []
    orig = cli.build_parser

    def counting():
        built.append(1)
        return orig()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    a, b = median_files
    runs = [["run", "median", "--inputs", f"a={a}", f"b={b}"],
            ["run", "median", "--mode", "ds", "--inputs", f"a={a}", f"b={b}"]]
    outs = []
    for argv in runs + runs:
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    with pytest.raises(SystemExit):
        main(["run"])
    # nothing one call parses carries over into the next
    assert outs[0] == outs[2] and outs[1] == outs[3]
    assert len(built) == 1


def test_check_sim(median_files, capsys):
    a, b = median_files
    rc = main(["check", "sim", "median", "--inputs", f"a={a}", f"b={b}"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


def test_check_sim_gmw(median_files, capsys):
    a, b = median_files
    rc = main(["check", "sim", "median_opt", "--inputs", f"a={a}", f"b={b}",
               "--backend", "gmw"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_check_confluence(median_files, capsys):
    a, b = median_files
    rc = main(["check", "confluence", "median_opt", "--inputs",
               f"a={a}", f"b={b}", "--schedules", "12"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_check_vacuous_reports_failure(tmp_path, capsys):
    prog = tmp_path / "stuck.wyx"
    prog.write_text("(ffi add 1 true)", encoding="utf-8")
    rc = main(["check", "sim", str(prog), "--prins", "a,b"])
    assert rc == 1
    assert "VACUOUS" in capsys.readouterr().out


def test_check_confluence_is_vacuous_when_every_schedule_sticks(capsys):
    # median_opt without input files sticks under every schedule
    rc = main(["check", "confluence", "median_opt", "--prins", "a,b",
               "--schedules", "3"])
    assert rc == 1
    assert capsys.readouterr().out == (
        "VACUOUS: all 4 schedules stuck; [rr] joint block {a,b} stuck at "
        "var: unbound variable in_a\n")


@pytest.mark.parametrize("backend", ["ideal", "gmw"])
def test_parties_that_disagree_on_a_block_are_a_stuck_run(tmp_path, capsys,
                                                          backend):
    from test_ds import DISAGREE
    prog = tmp_path / "env.wyx"
    prog.write_text(DISAGREE["environment"], encoding="utf-8")
    reason = "joint block {a,b}: parties disagree on the block's environment"
    assert main(["run", str(prog), "--prins", "a,b", "--mode", "ds",
                 "--backend", backend]) == 1
    assert capsys.readouterr().err == f"run stuck: {reason}\n"
    assert main(["check", "confluence", str(prog), "--prins", "a,b",
                 "--schedules", "3", "--backend", backend]) == 1
    assert capsys.readouterr().out == \
        f"VACUOUS: all 4 schedules stuck; [rr] {reason}\n"


def test_security_median_suite(capsys):
    rc = main(["check", "security", "--suite", "median", "--domain", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "PASS\n"
    # the suite must prove its own teeth on a broken reference
    assert captured.err == ("  (30 runs, 20 groups compared two or more "
                            "input classes, negative control caught)\n")


def test_security_psi_suite(capsys):
    rc = main(["check", "security", "--suite", "psi", "--domain", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "PASS\n"
    assert captured.err == ("  (75 runs, 6 groups compared two or more "
                            "input classes)\n")


def test_security_cards_suite(capsys):
    rc = main(["check", "security", "--suite", "cards", "--domain", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "PASS\n"
    assert captured.err == ("  (40 runs, 30 groups compared two or more "
                            "input classes)\n")


@pytest.mark.parametrize("flag, value, error", [
    ("--domain", "0", "domain must be at least 1, got 0"),
    ("--domain", "-2", "domain must be at least 1, got -2"),
])
def test_security_bounds_below_range_are_one_line_errors(capsys, flag, value,
                                                          error):
    assert main(["check", "security", "--suite", "psi", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_security_suite_that_checks_nothing_is_vacuous(capsys):
    # the median suite needs two distinct values on each side
    rc = main(["check", "security", "--suite", "median", "--domain", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == "VACUOUS: the suite checked no cases\n"
    assert captured.err == ""


def test_an_inert_negative_control_fails_the_median_suite(capsys,
                                                          monkeypatch):
    # a suite that passes even against the scopeless oracle checks nothing
    monkeypatch.setattr(apps, "check_median_security",
                        lambda **kw: CheckReport("pass", checked=1, groups=1))
    assert main(["check", "security", "--suite", "median"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "FAIL: negative control passed; check is inert\n"
    assert captured.err == ""


def test_dump_circuit(median_files, capsys):
    a, b = median_files
    rc = main(["dump-circuit", "median", "--inputs", f"a={a}", f"b={b}"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "joint block" in out
    assert "AND" in out


def test_dump_circuit_out_of_fuel_names_the_limit(capsys):
    assert main(["dump-circuit", "median_opt", "--prins", "a,b",
                 "--fuel", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "run fuel: no result within 5 ticks\n"


def test_dump_circuit_says_when_there_are_no_joint_blocks(tmp_path, capsys):
    prog = tmp_path / "add.wyx"
    prog.write_text("(ffi add 1 2)", encoding="utf-8")
    assert main(["dump-circuit", str(prog), "--prins", "a"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "# no joint blocks\n"


def test_run_respects_width(tmp_path, capsys):
    prog = tmp_path / "wide.wyx"
    prog.write_text("(as_sec (prins a b) (lam _ (ffi comb_sh (ffi mk_sh 200))))",
                    encoding="utf-8")
    assert main(["run", str(prog), "--prins", "a,b", "--width", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == -56
    assert main(["run", str(prog), "--prins", "a,b", "--width", "16"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 200


def nested_program(depth):
    body = "1"
    for _ in range(depth):
        body = f"(ffi add 1 {body})"
    return body


def test_unbounded_unrolling_under_gmw_is_a_one_line_stuck_run(tmp_path,
                                                                capsys):
    from test_circuit import DEPTH_REASON, PRIVATE_STOP
    prog = tmp_path / "private_stop.wyx"
    prog.write_text(PRIVATE_STOP, encoding="utf-8")
    a = write(tmp_path, "a.json", {"xa": {"sealed": {"ps": ["a"], "v": 11}}})
    b = write(tmp_path, "b.json", {"xa": {"sealed": {"ps": ["a"]}}})
    argv = ["run", str(prog), "--prins", "a,b", "--inputs", f"a={a}", f"b={b}",
            "--mode", "ds"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["parties"]["a"]["value"] == 16
    assert main([*argv, "--backend", "gmw"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"run stuck: {DEPTH_REASON}\n"


def test_a_unicode_digit_is_an_unbound_variable(tmp_path, capsys):
    prog = tmp_path / "square.wyx"
    prog.write_text("(ffi add \u00b2 1)", encoding="utf-8")
    assert main(["run", str(prog), "--prins", "a"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "run stuck: var: unbound variable \u00b2\n"


@pytest.mark.parametrize("mode", ["st", "ds"])
def test_nesting_past_the_limit_is_a_one_line_error(tmp_path, capsys, mode):
    at_limit = tmp_path / "at_limit.wyx"
    at_limit.write_text(nested_program(MAX_NESTING), encoding="utf-8")
    assert main(["run", str(at_limit), "--prins", "a", "--mode", mode]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "done"
    past = tmp_path / "past.wyx"
    past.write_text(nested_program(MAX_NESTING + 1), encoding="utf-8")
    assert main(["run", str(past), "--prins", "a", "--mode", mode]) == 1
    err = capsys.readouterr().err
    # the offending "(" opens the (MAX_NESTING + 1)-th "(ffi add 1 " chunk
    assert err == (f"error: 1:{1 + 11 * MAX_NESTING}: nesting deeper than "
                   f"{MAX_NESTING}\n")


def test_deeply_nested_input_is_a_one_line_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"x": ' + "[" * 100000 + "]" * 100000 + "}",
                    encoding="utf-8")
    assert main(["run", "median", "--inputs", f"a={deep}"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {deep}: input nested too deeply\n"


@pytest.mark.parametrize("mode,depth", [("st", 2000), ("ds", 2000),
                                        ("ds", 900)])
def test_deep_runtime_value_is_a_one_line_error(tmp_path, capsys, mode,
                                                depth):
    # 2000 overflows in the host calls that build the value, 900 only in
    # writing the result as JSON
    prog = tmp_path / "deep.wyx"
    prog.write_text("((fix f n (if (ffi eq n 0) 0 "
                    f"(ffi pair n (f (ffi sub n 1))))) {depth})",
                    encoding="utf-8")
    assert main(["run", str(prog), "--prins", "a", "--mode", mode]) == 1
    assert capsys.readouterr().err == "error: value nested too deeply\n"


@pytest.mark.parametrize("mode", [["--mode", "st"],
                                  ["--mode", "ds", "--backend", "gmw"]],
                         ids=["st", "gmw"])
@pytest.mark.parametrize("width", [0, -1, 65, 100])
def test_width_outside_1_to_64_is_a_one_line_error(tmp_path, capsys, mode,
                                                   width):
    prog = tmp_path / "gt.wyx"
    prog.write_text("(as_sec (prins a b) (lam _ (ffi gt 2 1)))",
                    encoding="utf-8")
    assert main(["run", str(prog), "--prins", "a,b", "--width", str(width),
                 *mode]) == 1
    assert capsys.readouterr().err == \
        f"error: width must be from 1 to 64, got {width}\n"


@pytest.mark.parametrize("cmd", [["run", "--mode", "ds"], ["check", "sim"],
                                 ["check", "confluence"]],
                         ids=["run-ds", "check-sim", "check-confluence"])
def test_prins_naming_nobody_is_a_one_line_error(tmp_path, capsys, cmd):
    prog = tmp_path / "one.wyx"
    prog.write_text("(ffi add 1 2)", encoding="utf-8")
    assert main([*cmd, str(prog), "--prins", ","]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: no principals: pass --inputs "
                              "P=FILE... or --prins a,b\n")


@pytest.mark.parametrize("twice", ["same-file", "two-files", "prins"])
def test_a_party_named_twice_is_a_one_line_error(median_files, capsys,
                                                 twice):
    # one party's files must not merge into a run under that party alone
    a, b = median_files
    argv = ["run", "median", "--mode", "ds", "--inputs", f"a={a}"]
    if twice == "prins":
        argv += [f"b={b}", "--prins", "a, b,a"]
    else:
        argv += [f"a={a if twice == 'same-file' else b}"]
    flag = "--prins" if twice == "prins" else "--inputs"
    assert main(argv) == 1
    assert one_error_line(capsys) == f"error: {flag} names party a twice\n"


def test_a_party_named_twice_is_refused_before_any_file_is_read(tmp_path,
                                                                capsys):
    inp = write(tmp_path, "a.json", {})
    missing = str(tmp_path / "missing.json")
    assert main(["run", "median", "--inputs", f"a={inp}",
                 f"a={missing}"]) == 1
    assert one_error_line(capsys) == "error: --inputs names party a twice\n"


@pytest.mark.parametrize("flag", [["--backend", "gmw"], ["--sched", "rand:3"],
                                  ["--backend", "ideal"], ["--sched", "rr"]])
def test_a_distributed_flag_without_mode_ds_is_refused(tmp_path, capsys,
                                                       flag):
    # the reference machine has no backend or schedule to honour, and the
    # flag is refused before any input file is read
    missing = str(tmp_path / "missing.json")
    assert main(["run", "median_opt", "--inputs", f"a={missing}",
                 f"b={missing}", *flag]) == 1
    assert one_error_line(capsys) == f"error: {flag[0]} needs --mode ds\n"
    assert main(["run", "median_opt", "--mode", "st", "--prins", "a,b",
                 *flag]) == 1
    assert one_error_line(capsys) == f"error: {flag[0]} needs --mode ds\n"


def test_mode_ds_defaults_to_the_ideal_backend_and_round_robin(
        median_files, capsys, monkeypatch):
    calls = []

    def recorded(e, env, ps, rt, sched, backend, fuel):
        calls.append((type(sched), backend))
        return ds_run(e, env, ps, rt, sched, backend, fuel)

    monkeypatch.setattr(cli, "ds_run", recorded)
    a, b = median_files
    argv = ["run", "median_opt", "--inputs", f"a={a}", f"b={b}", "--mode",
            "ds"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main([*argv, "--backend", "ideal", "--sched", "rr"]) == 0
    assert capsys.readouterr() == plain
    assert main([*argv, "--backend", "gmw", "--sched", "rand:3"]) == 0
    assert calls == [(RoundRobin, "ideal"), (RoundRobin, "ideal"),
                     (SeededRandom, "gmw")]


@pytest.mark.parametrize("name", ["1", "(x", "if", "a b", "x;"])
@pytest.mark.parametrize("via", ["prins", "inputs"])
def test_a_principal_name_must_read_as_a_variable(tmp_path, capsys, name,
                                                   via):
    # the parser's ``(prin ...)`` takes the same names as a variable, so no
    # program could name any other principal
    prog = tmp_path / "one.wyx"
    prog.write_text("(ffi add 1 2)", encoding="utf-8")
    inp = write(tmp_path, "e.json", {})
    argv = ["run", str(prog), "--inputs", f"a={inp}"]
    argv += ["--prins", f"a,{name}"] if via == "prins" else [f"{name}={inp}"]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: --{via}: {name!r} cannot name a principal\n")


@pytest.mark.parametrize("name", ["b", "-", "x-3", "_"])
def test_every_name_the_parser_reads_can_name_a_principal(tmp_path, capsys,
                                                         name):
    prog = tmp_path / "one.wyx"
    prog.write_text(f"(as_par (prins {name}) (lam _ 1))", encoding="utf-8")
    assert main(["run", str(prog), "--prins", f" {name} ,a"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == {
        "sealed": {"ps": [name], "v": 1}}


@pytest.mark.parametrize("mode,unit", [("st", "steps"), ("ds", "ticks")])
def test_out_of_fuel_names_the_limit(tmp_path, capsys, mode, unit):
    prog = tmp_path / "loop.wyx"
    prog.write_text("((fix f x (f x)) 1)", encoding="utf-8")
    assert main(["run", str(prog), "--prins", "a,b", "--fuel", "3",
                 "--mode", mode]) == 1
    assert capsys.readouterr().err == \
        f"run fuel: no result within 3 {unit}\n"


def test_check_sim_out_of_ticks_is_inconclusive(tmp_path, capsys):
    # the reference run needs 19 steps; three parties need 57 ticks
    prog = tmp_path / "lets.wyx"
    prog.write_text("(let x (ffi add 1 2) (let y (ffi add x 3) (ffi add y x)))",
                    encoding="utf-8")
    assert main(["check", "sim", str(prog), "--prins", "a,b,c",
                 "--fuel", "20"]) == 1
    assert capsys.readouterr().out == (
        "INCONCLUSIVE: [rr] distributed run ran out of fuel: "
        "no result within 20 ticks\n")
    # the label replays the schedule
    assert main(["run", str(prog), "--prins", "a,b,c", "--mode", "ds",
                 "--sched", "rr", "--fuel", "20"]) == 1
    assert capsys.readouterr().err == "run fuel: no result within 20 ticks\n"


@pytest.mark.parametrize("mode,fuel", [("st", 19), ("ds", 57)])
def test_fuel_is_enough_for_exactly_the_run(tmp_path, capsys, mode, fuel):
    # the reference run takes 19 steps, the distributed one 57 ticks
    prog = tmp_path / "lets.wyx"
    prog.write_text("(let x (ffi add 1 2) (let y (ffi add x 3) (ffi add y x)))",
                    encoding="utf-8")
    argv = ["run", str(prog), "--prins", "a,b,c", "--mode", mode]
    assert main([*argv, "--fuel", str(fuel)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "done"
    unit = {"st": "steps", "ds": "ticks"}[mode]
    assert main([*argv, "--fuel", str(fuel - 1)]) == 1
    assert capsys.readouterr().err == \
        f"run fuel: no result within {fuel - 1} {unit}\n"
    if mode == "ds":
        assert main(["check", "sim", str(prog), "--prins", "a,b,c",
                     "--fuel", str(fuel)]) == 0
        assert capsys.readouterr().out == "PASS\n"


@pytest.mark.parametrize("schedules", [0, -3])
def test_confluence_without_schedules_is_a_one_line_error(tmp_path, capsys,
                                                          schedules):
    # a check that replays no schedule beside the baseline proves nothing
    prog = tmp_path / "add.wyx"
    prog.write_text("(ffi add 1 2)", encoding="utf-8")
    assert main(["check", "confluence", str(prog), "--prins", "a,b",
                 "--schedules", str(schedules)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: schedules must be at least 1, got {schedules}\n"


@pytest.mark.parametrize("mode", ["st", "ds"])
def test_negative_fuel_is_a_one_line_error(tmp_path, capsys, mode):
    prog = tmp_path / "add.wyx"
    prog.write_text("(ffi add 1 2)", encoding="utf-8")
    assert main(["run", str(prog), "--prins", "a,b", "--fuel", "-1",
                 "--mode", mode]) == 1
    assert capsys.readouterr().err == \
        "error: fuel must be at least 0, got -1\n"


@pytest.mark.parametrize("sched", ["rand:x", "rand:", "rr:1", "bogus", ""])
def test_bad_scheduler_names_the_expected_forms(tmp_path, capsys, sched):
    prog = tmp_path / "add.wyx"
    prog.write_text("(ffi add 1 2)", encoding="utf-8")
    assert main(["run", str(prog), "--prins", "a,b", "--mode", "ds",
                 "--sched", sched]) == 1
    assert capsys.readouterr().err == \
        f"error: unknown scheduler {sched!r} (use rr or rand:SEED)\n"


def one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.err.startswith("error: ")
    return captured.err


def test_integers_past_64_bits_are_one_line_errors(tmp_path, capsys):
    # host arithmetic wraps at 64 bits, so 2**64 would equal 0 in the run
    prog = tmp_path / "big.wyx"
    prog.write_text("(ffi eq 18446744073709551616 (ffi add 18446744073709551616 0))",
                    encoding="utf-8")
    assert main(["run", str(prog), "--prins", "a"]) == 1
    assert one_error_line(capsys) == \
        "error: 1:9: integer 18446744073709551616 does not fit 64 bits\n"
    prog.write_text("(ffi eq x (ffi add x 0))", encoding="utf-8")
    inp = write(tmp_path, "a.json", {"x": 2 ** 64})
    assert main(["run", str(prog), "--inputs", f"a={inp}"]) == 1
    assert one_error_line(capsys) == (
        f"error: {inp}.x: an integer is from -2**63 to 2**63 - 1, "
        f"got {2 ** 64}\n")


def test_disagreeing_input_files_name_the_variable_and_both_files(
        tmp_path, capsys):
    one = write(tmp_path, "one.json", {"x": 1})
    two = write(tmp_path, "two.json", {"x": 2})
    assert main(["run", "median", "--inputs", f"a={one}", f"b={two}"]) == 1
    assert one_error_line(capsys) == (
        f"error: input x differs between {one} and {two}: "
        f"FfiInt(n=1) vs FfiInt(n=2)\n")


def test_an_input_missing_from_one_file_names_both_files(tmp_path, capsys):
    one = write(tmp_path, "one.json", {"x": 1})
    empty = write(tmp_path, "empty.json", {})
    for order in ((one, empty), (empty, one)):
        assert main(["run", "median", "--inputs", f"a={order[0]}",
                     f"b={order[1]}"]) == 1
        assert one_error_line(capsys) == \
            f"error: input x is in {one} but not in {empty}\n"


# Seeded fuzzing: mutated bundled programs and malformed inputs. Every run
# either succeeds or exits 1 with one line on stderr, and never raises.

FUZZ_TOKENS = re.compile(r';[^\n]*|"(?:[^"\\\n]|\\.)*"|[()]|[^\s()";]+')
# replacements for an atom: atoms, keywords and balanced snippets
FUZZ_CODE = ["0", "-1", "9223372036854775808", "true", '"s"', "lam", "if",
             "x", "_", "a", "reveal", "(prins a)", "(prins a b c)",
             "(ffi mk_sh 1)", "(ffi comb_sh x)", "(ffi add 1)",
             "(as_sec (prins a b) (lam _ 1))", "(reveal x)"]
FUZZ_JSON = [2 ** 64, -2 ** 63, 1.5, None, "", "opaque", True, [], [[[]]],
             {}, {"sealed": {"ps": []}}, {"sealed": {"ps": ["a"], "v": 1}},
             {"sealed": {"ps": ["z"]}}, {"map": 3}, {"map": {"a": [1]}},
             {"tuple": [1]}, {"prin": 3}, {"prins": ["a", "a"]},
             {"unit": None}, {"opaque": None}, {"nope": 1},
             {"share": {"ps": ["a", "b"], "words": {"a": 1, "b": 2},
                        "width": 8}},
             {"share": {"ps": ["a"], "words": {"a": 1}, "width": 65}},
             {"share": {"ps": ["a", "b"], "words": {"c": 1}, "width": 8}}]
FUZZ_MODES = [["run", "--mode", "st"], ["run", "--mode", "ds"],
              ["run", "--mode", "ds", "--backend", "gmw"], ["dump-circuit"]]


def mutate_program(rng, src):
    """``src`` with one to three atoms replaced, swapped or copied, and now
    and then a token dropped or the text cut short."""
    toks = [t for t in FUZZ_TOKENS.findall(src) if not t.startswith(";")]
    atoms = [i for i, t in enumerate(toks) if t not in ("(", ")")]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.choice(atoms), rng.choice(atoms)
        op = rng.randrange(3)
        if op == 0:
            toks[i] = rng.choice(FUZZ_CODE)
        elif op == 1:
            toks[i], toks[j] = toks[j], toks[i]
        else:
            toks[i] = toks[j]
    if rng.random() < 0.1:
        del toks[rng.randrange(len(toks))]
    elif rng.random() < 0.1:
        toks = toks[:rng.randrange(len(toks))]
    return " ".join(toks)


def mutate_json(rng, obj):
    """``obj`` with one value replaced, or its text cut or spliced."""
    if rng.random() < 0.3:
        text = json.dumps(obj)
        i = rng.randrange(len(text) + 1)
        return rng.choice((text[:i], text[:i] + text[i + 1:],
                           text[:i] + rng.choice('{}[]",:-0e') + text[i:]))
    root = holder = {"top": obj}
    key = "top"
    while isinstance(holder[key], (dict, list)) and holder[key] \
            and rng.random() < 0.7:
        holder = holder[key]
        key = rng.choice(list(holder) if isinstance(holder, dict)
                         else range(len(holder)))
    holder[key] = rng.choice(FUZZ_JSON)
    return json.dumps(root["top"])


def test_seeded_cli_fuzz_ends_in_a_result_or_one_line(tmp_path, capsys):
    cells = apps.corpus()
    for case in range(500):
        rng = random.Random(f"cli-fuzz|{case}")
        cell = rng.choice(cells)
        src = apps.program_source(cell.program)
        views = {p: {x: value_to_json(slice_value(p, v))
                     for x, v in cell.env.items()} for p in cell.ps}
        what = rng.randrange(3)  # 0: program, 1: inputs, 2: both
        if what != 1:
            src = mutate_program(rng, src)
        texts = {p: json.dumps(view) for p, view in views.items()}
        if what != 0:
            p = rng.choice(cell.ps.names)
            texts[p] = mutate_json(rng, views[p])
        prog = tmp_path / "fuzz.wyx"
        prog.write_text(src, encoding="utf-8")
        argv = [*rng.choice(FUZZ_MODES), str(prog), "--fuel", "5000",
                "--width", rng.choice(("32", "9", "4")), "--inputs"]
        for p, text in texts.items():
            (tmp_path / f"{p}.json").write_text(text, encoding="utf-8")
            argv.append(f"{p}={tmp_path / p}.json")
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 0 or (rc == 1 and err.count("\n") == 1 and
                           err.startswith(("error: ", "run "))), (case, err)
