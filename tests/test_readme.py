"""The README's quick tour runs as written: its input files, its commands and
the output it shows."""

import re
import shlex
from pathlib import Path

import pytest

from wysx.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def block_after(heading: str) -> str:
    """The body of the first fenced block that follows ``heading``."""
    m = re.search(re.escape(heading) + r"\n\n```\w*\n(.*?)```", README, re.S)
    assert m, f"no fenced block after {heading!r}"
    return m.group(1)


def shown_output(command: str) -> str:
    """What the README shows after ``$ wysx <command>``, up to the end of
    its fenced block or a ``...`` line."""
    m = re.search(r"^\$ wysx " + re.escape(command) + r"\n(.*?)^(?:```|\.\.\.)",
                  README, re.S | re.M)
    assert m, f"README shows no output for {command!r}"
    return m.group(1)


@pytest.fixture
def tour(tmp_path, monkeypatch):
    for name in ("alice.json", "bob.json"):
        (tmp_path / name).write_text(block_after(f"`{name}`:"),
                                     encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("command", [
    "run median_opt --inputs a=alice.json b=bob.json",
    "run median_opt --inputs a=alice.json b=bob.json --mode ds --backend gmw",
    "check sim median_opt --inputs a=alice.json b=bob.json",
])
def test_quick_tour_command(tour, capsys, command):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == shown_output(command)


def test_quick_tour_dump_circuit_head(tour, capsys):
    command = "dump-circuit median_opt --inputs a=alice.json b=bob.json"
    assert main(shlex.split(command)) == 0
    shown = shown_output(command).splitlines()
    out = capsys.readouterr().out.splitlines()[:len(shown)]
    # a line the README cuts short with "..." matches as a prefix
    assert [o[:len(s) - 3] if s.endswith("...") else o
            for s, o in zip(shown, out)] == [s.removesuffix("...")
                                             for s in shown]


def test_quick_tour_replays_the_schedule_a_check_names(tour, capsys):
    check = "check sim median_opt --inputs a=alice.json b=bob.json --fuel 80"
    assert main(shlex.split(check)) == 1
    out = capsys.readouterr().out
    assert out == shown_output(check)
    label = re.match(r"INCONCLUSIVE: \[(\S+)\] ", out).group(1)
    replay = ("run median_opt --inputs a=alice.json b=bob.json --mode ds "
              f"--sched {label} --fuel 80")
    assert main(shlex.split(replay)) == 1
    assert capsys.readouterr().err == shown_output(replay)


def test_library_use_prints_what_its_comments_say(tour, capsys):
    code = block_after("### Library use")
    shown = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert shown == ["FfiInt(n=5)"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown
