"""Error norms, observed convergence orders, and the CSV table format."""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field as dc_field
from typing import TextIO

import numpy as np

from .grids import GridField


def error_norms(u: GridField, exact) -> tuple[float, float]:
    """(Linf, L1) of u minus exact node values; L1 is cell-area weighted.

    All stored nodes participate, boundaries included; no excision near
    singularities.
    """
    exact = np.asarray(exact, dtype=np.float64)
    if exact.shape != u.values.shape:
        raise ValueError("exact values shaped differently from the field")
    e = np.abs(u.values - exact)
    if u.ndim == 1:
        weight = u.grid.dx
    else:
        weight = u.grid.dx * u.grid.dy
    return float(e.max()), float(weight * e.sum())


def observed_order(err_coarse: float, err_fine: float) -> float:
    """log2 error ratio under exact grid halving."""
    if err_coarse < 0 or err_fine < 0:
        raise ValueError("errors must be nonnegative")
    if err_fine == 0 or err_coarse == 0:
        return math.inf if err_coarse > 0 else 0.0
    return math.log2(err_coarse / err_fine)


def write_table(out: TextIO, header, rows) -> None:
    """Every CSV table: the column names, then a line per row of values, a
    float to 17 significant digits, None empty, an int as it prints."""
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join("" if v is None else f"{v:.17g}" if isinstance(v, float)
                           else f"{v}" for v in row) + "\n")


@dataclass(frozen=True)
class RunRow:
    nx: int
    nt: int
    err_linf: float
    ord_linf: float | None
    err_l1: float
    ord_l1: float | None
    cpu_seconds: float


@dataclass
class RunReport:
    """Refinement table; orders are defined from the second row on."""

    rows: list[RunRow] = dc_field(default_factory=list)
    # the columns of table.csv, RunRow's fields in order
    HEADER = ("N_x", "N_t", "err_Linf", "ord_Linf", "err_L1", "ord_L1",
              "cpu_seconds")

    def append_level(self, nx: int, nt: int, err_linf: float, err_l1: float,
                     cpu_seconds: float) -> RunRow:
        prev = self.rows[-1] if self.rows else None
        row = RunRow(
            nx=nx, nt=nt, err_linf=err_linf,
            ord_linf=None if prev is None else observed_order(prev.err_linf, err_linf),
            err_l1=err_l1,
            ord_l1=None if prev is None else observed_order(prev.err_l1, err_l1),
            cpu_seconds=cpu_seconds)
        self.rows.append(row)
        return row

    def write_csv(self, out: TextIO) -> None:
        write_table(out, self.HEADER, map(astuple, self.rows))


def parse_report_csv(lines) -> RunReport:
    """Inverse of RunReport.write_csv (header required)."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    it = iter(lines)
    header = next(it).strip()
    if header != ",".join(RunReport.HEADER):
        raise ValueError(f"unexpected header {header!r}")
    report = RunReport()
    for line in it:
        line = line.strip()
        if not line:
            continue
        nx, nt, el, ol, e1, o1, cpu = line.split(",")
        report.rows.append(RunRow(
            nx=int(nx), nt=int(nt), err_linf=float(el),
            ord_linf=None if ol == "" else float(ol),
            err_l1=float(e1), ord_l1=None if o1 == "" else float(o1),
            cpu_seconds=float(cpu)))
    return report
