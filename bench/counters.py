"""Deterministic counter profile of every bundled program.

For each program in ``apps.PROGRAM_NAMES`` on its ``apps.corpus()`` cells
(``median_opt_leak`` on the ``median_opt`` cells' inputs): reference-machine
steps and joint-block entries, distributed ticks under round robin with the
ideal backend, and, per joint block under the GMW backend at width 32,
gates, ANDs, AND-depth, rounds, triples and bits sent by kind.

Every number is exact and independent of the host, so two computations give
the same bytes; later changes to the compiler or protocol diff against it.
"""

from __future__ import annotations

import json

from wysx import apps, ds
from wysx.st import Runtime, run as st_run

from hooks import GmwCounter

WIDTH = 32


def _cells():
    cells = apps.corpus(WIDTH)
    for name in apps.PROGRAM_NAMES:
        source = "median_opt" if name == "median_opt_leak" else name
        for cell in cells:
            if cell.program == source:
                label = cell.name.replace(source, name, 1)
                yield name, label, cell


def _gmw_blocks(expr, cell) -> tuple[str, list]:
    """Run the cell under the GMW backend with per-block protocol counters
    read through the benchmark's ``gmw_eval`` hook."""
    counter = GmwCounter(keep_blocks=True)
    counter.install()
    try:
        res = ds.ds_run(expr, cell.env, cell.ps, Runtime(0, WIDTH),
                        ds.RoundRobin(), "gmw")
    finally:
        counter.uninstall()
    blocks = []
    for label, circ in res.circuits:
        block = {"block": label, "gates": len(circ.gates),
                 "ands": circ.and_count, "and_depth": circ.and_depth}
        block.update(counter.blocks.get(id(circ), {}))
        blocks.append(block)
    return res.status, blocks


def profile() -> dict:
    out: dict = {}
    for name, label, cell in _cells():
        expr = apps.load_program(name)
        r = st_run(expr, cell.env, cell.ps, Runtime(0, WIDTH))
        d = ds.ds_run(expr, cell.env, cell.ps, Runtime(0, WIDTH),
                      ds.RoundRobin(), "ideal")
        gmw_status, blocks = _gmw_blocks(expr, cell)
        out.setdefault(name, {})[label] = {
            "st": {"status": r.status, "steps": r.steps,
                   "sec_entries": r.sec_entries},
            "ds_rr": {"status": d.status, "ticks": d.ticks},
            "gmw": {"status": gmw_status, "blocks": blocks},
        }
    return out


def profile_bytes() -> bytes:
    return (json.dumps(profile(), sort_keys=True, indent=1) + "\n").encode()
