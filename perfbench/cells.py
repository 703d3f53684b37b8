"""Workload definitions: each workload is a fixed list of CLI argv cells.

A cell is a list of strings passed to ``planegraphs.cli.main``.  Cells
that write an artifact carry the placeholder ``OUT`` where the output path
goes; the runner substitutes a file in its work directory.  ``cell_key``
names a cell independently of that path, so outcomes can be compared
across passes, runs and cell orders.
"""

from __future__ import annotations

import random

OUT = "{out}"

WORKLOADS = ("tables_composite", "tables_prime", "oracle_small", "certs_sweep")

# tables_composite: orders p^a with a > 1, one even and one odd, so the
# polynomial path of the field layer does most of the work.
COMPOSITE_ORDERS = (8, 9)
# tables_prime: prime orders use native modular arithmetic, so plane
# incidence and the verifier dominate instead.
PRIME_ORDERS = (11, 13, 17)
# oracle_small: every plane small enough for exhaustive search.
ORACLE_CYCLE_PLANES = ("pg:2", "pg:3", "pg:4", "cyclic:3", "cyclic:4", "ag:3", "ag:4", "ag:5")
ORACLE_WHEEL_PLANES = ("pg:2", "pg:3", "pg:4", "cyclic:3", "cyclic:4")
# certs_sweep: every prime power in [3, 2^18], in contiguous chunks.
CERT_MAX = 1 << 18
CERT_CHUNKS = 200


def _table_cells(orders) -> list:
    cells = []
    for q in orders:
        for k in range(3, q * q + 1):
            cells.append(["cycle", "--q", str(q), "--k", str(k), "--plane", "ag", "--out", OUT])
        for k in range(3, q * q + q + 2):
            cells.append(["cycle", "--q", str(q), "--k", str(k), "--plane", "pg", "--out", OUT])
        for n in range(3, q + 2):
            cells.append(["wheel", "--q", str(q), "--n", str(n), "--out", OUT])
            cells.append(["gear", "--q", str(q), "--n", str(n), "--out", OUT])
    return cells


def _plane_size(ref: str) -> tuple:
    model, q = ref.split(":")
    q = int(q)
    return q, (q * q if model == "ag" else q * q + q + 1)


def _oracle_cells() -> list:
    cells = []
    for ref in ORACLE_CYCLE_PLANES:
        _, n_points = _plane_size(ref)
        for k in range(3, n_points + 1):
            cells.append(["oracle", "--graph", f"cycle:{k}", "--plane", ref, "--out", OUT])
    for ref in ORACLE_WHEEL_PLANES:
        q, _ = _plane_size(ref)
        for n in range(3, q + 2):
            for kind in ("wheel", "gear"):
                cells.append(["oracle", "--graph", f"{kind}:{n}", "--plane", ref, "--out", OUT])
    return cells


def _cert_cells() -> list:
    from planegraphs.gf import prime_powers_in

    qs = prime_powers_in(3, CERT_MAX)
    cells = []
    for c in range(CERT_CHUNKS):
        lo = qs[c * len(qs) // CERT_CHUNKS]
        hi = qs[(c + 1) * len(qs) // CERT_CHUNKS - 1]
        cells.append(["hypj", "sweep", "--min", str(lo), "--max", str(hi), "--jobs", "1", "--out", OUT])
    return cells


def workload_cells(workload: str) -> list:
    """The workload's cells in canonical order."""
    if workload == "tables_composite":
        return _table_cells(COMPOSITE_ORDERS)
    if workload == "tables_prime":
        return _table_cells(PRIME_ORDERS)
    if workload == "oracle_small":
        return _oracle_cells()
    if workload == "certs_sweep":
        return _cert_cells()
    if workload == "smoke":
        return [list(c) for c in SMOKE_CELLS]
    raise ValueError(f"unknown workload {workload!r}")


# One small cell per workload, for the harness self-test.
SMOKE_CELLS = (
    ["cycle", "--q", "4", "--k", "5", "--plane", "pg", "--out", OUT],
    ["gear", "--q", "5", "--n", "5", "--out", OUT],
    ["oracle", "--graph", "wheel:4", "--plane", "pg:3", "--out", OUT],
    ["hypj", "sweep", "--min", "3", "--max", "100", "--jobs", "1", "--out", OUT],
)


def cell_key(argv) -> str:
    """The cell's argv without its output path."""
    out = []
    skip = False
    for a in argv:
        if skip:
            skip = False
        elif a == "--out":
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def ordered(cells: list, seed: int) -> list:
    """The cells permuted by the benchmark's own PRNG; the seed fixes the order."""
    cells = list(cells)
    random.Random(seed).shuffle(cells)
    return cells


def bind(argv, out_path: str) -> list:
    return [out_path if a == OUT else a for a in argv]
