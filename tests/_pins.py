"""Digest pins split by what they pin.

A pin is a table ``{case: {aspect: digest}}``. Each aspect of a case is the
sha256 of the ``repr`` of every part fed to it, in order, cut to 16 hex
digits. The aspects are:

- ``result``: status, values and traces;
- ``reason``: the stuck reason;
- ``cost``: ticks;
- ``schedule``: the picked and offered moves.

A change that means to alter one aspect re-pins that aspect's rows only,
and a failing pin names each (case, aspect) that differs.
"""

import hashlib

ASPECTS = ("result", "reason", "cost", "schedule")


class Digests:
    """The running digests of one case, one per aspect."""

    def __init__(self):
        self._h = {}

    def update(self, aspect: str, part) -> None:
        if aspect not in ASPECTS:
            raise ValueError(f"unknown aspect {aspect!r}")
        self._h.setdefault(aspect, hashlib.sha256()).update(
            repr(part).encode())

    def table(self) -> dict[str, str]:
        return {aspect: h.hexdigest()[:16] for aspect, h in self._h.items()}


def table_text(table: dict) -> str:
    """``table`` as the source of a pin, two aspects a line."""
    lines = ["{"]
    for case, row in table.items():
        lines.append(f'    "{case}": {{')
        items = [f'"{aspect}": "{row[aspect]}"'
                 for aspect in ASPECTS if aspect in row]
        for i in range(0, len(items), 2):
            lines.append("        " + ", ".join(items[i:i + 2]) + ",")
        lines[-1] = lines[-1][:-1] + "},"
    return "\n".join(lines + ["}"])


def assert_pinned(got: dict, want: dict) -> None:
    """Every (case, aspect) of ``got`` equals ``want``'s; the failure lists
    those that differ and prints the whole new table, ready to paste in."""
    changed = [(case, aspect)
               for case in sorted(got.keys() | want.keys())
               for aspect in ASPECTS
               if got.get(case, {}).get(aspect)
               != want.get(case, {}).get(aspect)]
    assert not changed, (f"changed (case, aspect): {changed}\nnew table:\n"
                         + table_text(got))
