"""Golden-output tests: small fixed sweeps through ``cli.main`` must
reproduce the checked-in CSVs under ``tests/golden/`` byte for byte, and one
block of the engine's per-trial arrays and analytic companions must reproduce
``tests/golden/pins.json`` to the last bit, which the CSVs' 11 printed
digits cannot show.

Regenerate the files (only for a deliberate change of the random streams or
of the computed values) with ``PYTHONPATH=src python tests/test_golden.py``.
With ``--compare`` it writes nothing and reports how the regenerated files
differ from the checked-in ones: each sweep CSV row by row, in combined 95%
half-widths (the row check of ``perfbench/check.py``), with the worst z per
file, and every pin that changed: a float pin as its old and new value and
the count of doubles between them (ulps), a hash pin as changed. It exits with status 1 if a regenerated
sweep row fails that check or a changed file cannot be compared row by row,
else 0: changed pins alone, as any stream change brings, do not fail it.
"""

import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ssknoma import cli
from ssknoma import montecarlo as mc
from ssknoma.constellation import enumerate_sc_alphabet

GOLDEN = Path(__file__).resolve().parent / "golden"

SHARED = {"snr_grid_db": [0, 20], "seed": 5, "max_trials": 10_000}
L3_PAIR = [
    {"scheme": "ssk-noma", "n_users": 3, "n_r": 2, "target_rates": [1, 1, 2]},
    {"scheme": "noma-baseline", "n_users": 3, "n_r": 2, "target_rates": [1, 1, 2]},
]
CASES = {
    # case: (command, config document or preset name, CSV the command writes,
    #        golden file)
    # L=4 and L=5 SSK-NOMA cover M_T = 64 and 256 and the union bound
    "ber": ("ber", {**SHARED, "runs": L3_PAIR + [{"scheme": "ssk-noma", "n_users": 4, "n_r": 2},
                                                 {"scheme": "ssk-noma", "n_users": 5, "n_r": 2}]},
            "ber.csv", "ber.csv"),
    "capacity": ("capacity", {**SHARED, "runs": L3_PAIR}, "rate.csv", "rate.csv"),
    "outage": ("outage", {**SHARED, "runs": L3_PAIR}, "outage.csv", "outage.csv"),
    # the power-allocation study, closed forms only
    "pa-sweep-fig8": ("pa-sweep", "fig8", "pa_sweep.csv", "pa_sweep_fig8.csv"),
    "pa-sweep-fig9": ("pa-sweep", "fig9", "pa_sweep.csv", "pa_sweep_fig9.csv"),
}


def _run(case: str, out_dir: Path) -> Path:
    command, source, csv_name, _ = CASES[case]
    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(source, str):
        config = ["--preset", source]
    else:
        path = out_dir / "config.json"
        path.write_text(json.dumps(source))
        config = ["--config", str(path)]
    assert cli.main([command, *config, "--out", str(out_dir), "--quiet"]) == 0
    return out_dir / csv_name


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_matches_golden_csv(case, tmp_path):
    produced = _run(case, tmp_path)
    assert produced.read_bytes() == (GOLDEN / CASES[case][3]).read_bytes()


PINS = GOLDEN / "pins.json"
PIN_SNRS_DB = (0.0, 15.0, 30.0)
PIN_SHARED = {"snr_grid_db": list(PIN_SNRS_DB), "seed": 11}
PIN_CONFIGS = {
    # name: run keys; together they cover QPSK at L = 3, 4, 5, square QAM up
    # to 64 points, M-PSK without a nearest-point grid, N_t up to 16, a lone
    # power user and the baseline
    "qpsk-L3": {"n_users": 3, "n_r": 2, "target_rates": [0.5, 1.0, 1.5]},
    "qpsk-L4": {"n_users": 4, "n_r": 2, "target_rates": [0.5, 0.5, 0.5, 0.5]},
    "qpsk-L5": {"n_users": 5, "n_r": 2, "target_rates": [0.5, 0.25, 0.25, 0.25, 0.25]},
    "qam16-qpsk": {"n_users": 3, "n_r": 2, "modulations": [16, 4],
                   "target_rates": [0.5, 1.0, 1.5]},
    "psk8-bpsk-nt8": {"n_users": 3, "n_r": 2, "n_t": 8, "modulations": [8, 2],
                      "target_rates": [1.0, 1.0, 0.5]},
    "baseline": {"scheme": "noma-baseline", "n_users": 3, "n_r": 2,
                 "target_rates": [0.5, 1.0, 1.5]},
    "qam64-qpsk": {"n_users": 3, "n_r": 4, "modulations": [64, 4],
                   "target_rates": [0.5, 1.0, 1.5]},
    "psk32-nt16": {"n_users": 2, "n_r": 2, "n_t": 16, "modulations": [32], "pa": [1.0],
                   "target_rates": [2.0, 1.0]},
}


def _digest(values) -> str:
    """An array's dtype and the sha256 of its bytes."""
    values = np.ascontiguousarray(values)
    return f"{values.dtype.str} {hashlib.sha256(values.tobytes()).hexdigest()}"


def _companions(cfg, metric, rho):
    """Every user's companion, and for the rate the sum's (user 0) last,
    summed in user order as ``run_sweep`` sums it."""
    values = [mc.companion(cfg, metric, user, rho) for user in range(1, cfg.n_users + 1)]
    if metric == "rate":
        values.append(None if None in values else sum(values))
    return [None if value is None else float(value).hex() for value in values]


def _pins(name: str) -> dict:
    """The tables, then per SNR point block 0's per-trial arrays of every
    metric (one block evaluated at every point) and every user's
    companions, of config ``name``."""
    cfg = mc.make_config(**PIN_SHARED, **PIN_CONFIGS[name])
    tables = cfg.tables
    pins = {"points": [_digest(c.points) for c in tables.consts],
            "alphabet": None if cfg.first_power_user == 1
            else _digest(enumerate_sc_alphabet(tables.consts, cfg.pa))}
    trials = {metric: list(fn(cfg, PIN_SNRS_DB, 0)) for metric, fn in mc._TRIALS_FN.items()}
    for i, snr_db in enumerate(PIN_SNRS_DB):
        rho = 10.0 ** (snr_db / 10.0)
        pins[f"{snr_db:g} dB"] = {
            "trials": {metric: [_digest(t) for t in points[i]]
                       for metric, points in trials.items()},
            "companions": {metric: _companions(cfg, metric, rho)
                           for metric in ("ber", "rate", "outage")},
        }
    return pins


@pytest.mark.parametrize("name", sorted(PIN_CONFIGS))
def test_engine_outputs_match_golden_pins(name):
    assert _pins(name) == json.loads(PINS.read_text())[name]


def _compare_csv(produced: Path, golden: Path) -> bool:
    """Print whether ``produced`` equals ``golden`` and, for a sweep CSV that
    does not, every row that fails perfbench's row check and the worst
    distance in combined half-widths. True if the file is unchanged or every
    row passes; False if a row fails or the file cannot be compared row by
    row."""
    sys.path.insert(0, str(GOLDEN.parents[1] / "perfbench"))
    import check

    if produced.read_bytes() == golden.read_bytes():
        print(f"{golden.name}: unchanged")
        return True
    header, rows = check.read_rows(produced)
    ref_header, ref_rows = check.read_rows(golden)
    if header != check.COLUMNS or ref_header != header or len(rows) != len(ref_rows):
        print(f"{golden.name}: changed, not comparable row by row")
        return False
    result = check.CheckResult()
    passed = True
    for i, (row, ref) in enumerate(zip(rows, ref_rows), start=2):
        problem = check._row_problem(row, ref, result)
        if problem:
            print(f"{golden.name} line {i}: {problem}")
            passed = False
    print(f"{golden.name}: changed; worst z {result.max_z:.2f} combined half-widths "
          f"over {len(rows)} rows (limit {check.SIM_Z:g})")
    return passed


def test_compare_fails_a_row_moved_beyond_the_row_check(tmp_path):
    """``--compare``'s file check passes an unchanged sweep CSV and one whose
    sim_value moved by one combined half-width, and fails one moved by 10
    and a CSV short of a row, which cannot be compared row by row."""
    golden = GOLDEN / "ber.csv"
    with golden.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    i = next(i for i, row in enumerate(rows) if float(row[4]) > 0.0)
    value, hw = float(rows[i][3]), float(rows[i][4])

    def written(rows, name):
        path = tmp_path / name
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows([header, *rows])
        return path

    assert _compare_csv(written(rows, "same.csv"), golden)
    for z, passes in ((1.0, True), (10.0, False)):
        moved = [list(row) for row in rows]
        moved[i][3] = f"{value + z * np.hypot(hw, hw):.10e}"
        assert _compare_csv(written(moved, f"moved{z:g}.csv"), golden) is passes
    assert not _compare_csv(written(rows[:-1], "short.csv"), golden)


def _changed_pins(new, old, path):
    """(path, new, old) of each pin that differs between two pin trees."""
    if isinstance(new, dict) and isinstance(old, dict):
        return [p for key in new.keys() | old.keys()
                for p in _changed_pins(new.get(key), old.get(key), f"{path} / {key}")]
    if isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        return [p for i, (a, b) in enumerate(zip(new, old))
                for p in _changed_pins(a, b, f"{path} [{i}]")]
    return [] if new == old else [(path, new, old)]


def _float_pin(pin):
    """The double a float pin (``float.hex``) holds; None for any other pin."""
    try:
        return float.fromhex(pin)
    except (TypeError, ValueError):
        return None


def _ulps(a: float, b: float) -> int:
    """The count of doubles from ``a`` to ``b``: their bit patterns, mapped
    to integers that sort as the values do (-0.0 and 0.0 to 0), differenced."""
    def ordered(x):
        bits = int(np.float64(x).view(np.int64))
        return bits if bits >= 0 else -(bits & (2**63 - 1))
    return abs(ordered(a) - ordered(b))


def _pin_change(path, new, old) -> str:
    """One line of ``--compare``'s pin report: a float pin's old and new value
    and the ulps between them, any other pin as changed."""
    a, b = _float_pin(old), _float_pin(new)
    if a is None or b is None:
        return f"changed: {path}"
    return f"changed: {path}: {old} -> {new} ({_ulps(a, b)} ulps)"


def test_compare_reports_a_float_pin_moved_by_2_ulps():
    """Two pin trees that differ in one companion by 2 ulps and in one hash
    pin: the companion's line gives both values and 2 ulps, the hash pin's
    only its path; the unchanged pins are not listed."""
    value = float.fromhex("0x1.09234e9c7a556p-10")
    moved = np.nextafter(np.nextafter(value, 1.0), 1.0)
    old = {"c": {"trials": {"rate": ["<f8 00", "<f8 11"]},
                 "companions": {"outage": [value.hex(), None, "0x1.8p-1"]}}}
    new = {"c": {"trials": {"rate": ["<f8 00", "<f8 22"]},
                 "companions": {"outage": [float(moved).hex(), None, "0x1.8p-1"]}}}
    lines = sorted(_pin_change(*change) for change in _changed_pins(new, old, "pins.json"))
    assert lines == [
        "changed: pins.json / c / companions / outage [0]: "
        "0x1.09234e9c7a556p-10 -> 0x1.09234e9c7a558p-10 (2 ulps)",
        "changed: pins.json / c / trials / rate [1]",
    ]
    assert _ulps(-0.0, 0.0) == 0
    assert _ulps(-np.nextafter(0.0, 1.0), np.nextafter(0.0, 1.0)) == 2


if __name__ == "__main__":
    import argparse
    import shutil
    import tempfile

    parser = argparse.ArgumentParser(description="Regenerate the golden files.")
    parser.add_argument("--compare", action="store_true",
                        help="write nothing; report how the regenerated files differ")
    compare = parser.parse_args().compare
    passed = True
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            golden = GOLDEN / CASES[case][3]
            produced = _run(case, Path(tmp) / case)
            if compare:
                passed &= _compare_csv(produced, golden)
            else:
                shutil.copyfile(produced, golden)
                print(f"wrote {golden}", file=sys.stderr)
    pins = {name: _pins(name) for name in PIN_CONFIGS}
    if compare:
        changed = _changed_pins(pins, json.loads(PINS.read_text()), PINS.name)
        for change in sorted(changed, key=lambda change: change[0]):
            print(_pin_change(*change))
        print(f"{PINS.name}: {len(changed)} pins changed")
        # pins change with any stream change; only a failed row check fails
        sys.exit(0 if passed else 1)
    else:
        PINS.write_text(json.dumps(pins, indent=1) + "\n")
        print(f"wrote {PINS}", file=sys.stderr)
