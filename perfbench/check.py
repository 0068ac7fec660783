"""Output check: compare a sweep CSV with its checked-in reference.

An operation is one (run, metric, SNR point), i.e. the consecutive rows one
SNR point of one run contributes. It fails if its rows are missing, if the
schema or row keys differ from the reference, if ``analytic_value`` differs
from the reference by more than a relative ``ANALYTIC_RTOL``, or if
``sim_value`` lies more than ``SIM_Z`` combined confidence half-widths from the
reference value.

Simulated values are compared statistically, never byte for byte, because the
reference was produced at one seed and a change to the random streams is
allowed to move every simulated value within its confidence interval.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

COLUMNS = ["snr_db", "user", "scheme", "sim_value", "ci_halfwidth",
           "analytic_value", "n_trials"]
ANALYTIC_RTOL = 1e-9
# Two independent estimates with 95% half-widths h1 and h2 have a difference
# with standard deviation hypot(h1, h2) / 1.96, so SIM_Z = 3 sets the limit at
# 5.9 standard deviations when both intervals are accurate. The slack covers
# Wilson intervals that treat every bit as independent (they understate the
# BER spread by up to 13% where SIC errors cluster) and the thousands of
# points a series of seeds compares. A shift of 10 half-widths of one
# estimate is 7.1 combined half-widths and is flagged.
SIM_Z = 3.0
# Floor for points whose half-width rounds to zero (a rate that is constant
# across draws up to floating-point summation order).
SIM_RTOL_FLOOR = 1e-9


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    trials: int = 0
    max_z: float = 0.0
    problems: list = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.trials += other.trials
        self.max_z = max(self.max_z, other.max_z)
        self.problems.extend(other.problems)


def read_rows(path: Path):
    """Header and rows of a CSV, or (None, []) if it does not exist."""
    if not path.is_file():
        return None, []
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else (None, [])


def _row_problem(row, ref, result: CheckResult) -> str | None:
    if len(row) != len(COLUMNS):
        return f"row has {len(row)} fields"
    got, want = dict(zip(COLUMNS, row)), dict(zip(COLUMNS, ref))
    for key in ("snr_db", "user", "scheme"):
        if got[key] != want[key]:
            return f"{key} {got[key]!r} != reference {want[key]!r}"
    try:
        n_trials = int(got["n_trials"])
        value, hw = float(got["sim_value"]), float(got["ci_halfwidth"])
        analytic = float(got["analytic_value"]) if got["analytic_value"] else None
    except ValueError as exc:
        return f"unparsable row: {exc}"
    if n_trials <= 0 or not math.isfinite(value) or not hw >= 0:
        return f"invalid estimate {got}"
    ref_analytic = float(want["analytic_value"]) if want["analytic_value"] else None
    if (analytic is None) != (ref_analytic is None):
        return f"analytic_value {got['analytic_value']!r} != reference {want['analytic_value']!r}"
    if analytic is not None and not math.isclose(analytic, ref_analytic,
                                                 rel_tol=ANALYTIC_RTOL, abs_tol=0.0):
        return f"analytic_value {analytic!r} != reference {ref_analytic!r}"
    ref_value, ref_hw = float(want["sim_value"]), float(want["ci_halfwidth"])
    spread = math.hypot(hw, ref_hw)
    diff = abs(value - ref_value)
    if spread > 0:
        result.max_z = max(result.max_z, diff / spread)
    if diff > SIM_Z * spread + SIM_RTOL_FLOOR * abs(ref_value):
        return (f"sim_value {value!r} is {diff / max(spread, 1e-300):.1f} "
                f"half-widths from reference {ref_value!r}")
    return None


def check_csv(produced: Path, reference: Path, op_sizes, label: str = "") -> CheckResult:
    """Check ``produced`` against ``reference``; ``op_sizes`` lists the row
    count of each operation in output order."""
    result = CheckResult(attempted=len(op_sizes))
    ref_header, ref_rows = read_rows(reference)
    if ref_header != COLUMNS or len(ref_rows) != sum(op_sizes):
        raise ValueError(f"reference {reference} does not match its workload")
    header, rows = read_rows(produced)
    if header != COLUMNS:
        result.failed = len(op_sizes)
        result.problems.append(f"{label}: header {header!r} != {COLUMNS!r}")
        return result
    start = 0
    for op, size in enumerate(op_sizes):
        stop = start + size
        problem = None
        if len(rows) < stop:
            problem = "rows missing"
        else:
            for row, ref in zip(rows[start:stop], ref_rows[start:stop]):
                problem = _row_problem(row, ref, result)
                if problem:
                    break
            if not problem and op == len(op_sizes) - 1 and len(rows) > stop:
                problem = f"{len(rows) - stop} unexpected extra rows"
        if problem:
            result.failed += 1
            result.problems.append(f"{label} operation {op} (rows {start}..{stop - 1}): {problem}")
        elif rows:
            result.trials += int(rows[start][COLUMNS.index("n_trials")])
        start = stop
    return result
