"""Golden-output tests: small fixed sweeps through ``cli.main`` must
reproduce the checked-in CSVs under ``tests/golden/`` byte for byte, and one
block of the engine's per-trial arrays and analytic companions must reproduce
``tests/golden/pins.json`` to the last bit, which the CSVs' 11 printed
digits cannot show.

Regenerate the files (only for a deliberate change of the random streams or
of the computed values) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

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


def _companion(cfg, metric, user, rho):
    value = mc.companion(cfg, metric, user, rho)
    return None if value is None else float(value).hex()


def _pins(name: str) -> dict:
    """The tables, then per SNR point block 0's per-trial arrays of every
    metric (one block evaluated at every point) and every user's
    companions, of config ``name``."""
    cfg = mc.make_config(**PIN_SHARED, **PIN_CONFIGS[name])
    tables = cfg.tables
    pins = {"points": [_digest(c.points) for c in tables.consts],
            "alphabet": None if cfg.first_power_user == 1
            else _digest(enumerate_sc_alphabet(tables.consts, cfg.pa))}
    users = range(1, cfg.n_users + 1)
    trials = {metric: list(fn(cfg, PIN_SNRS_DB, 0)) for metric, fn in mc._TRIALS_FN.items()}
    for i, snr_db in enumerate(PIN_SNRS_DB):
        rho = 10.0 ** (snr_db / 10.0)
        pins[f"{snr_db:g} dB"] = {
            "trials": {metric: [_digest(t) for t in points[i]]
                       for metric, points in trials.items()},
            "companions": {metric: [_companion(cfg, metric, user, rho)
                                    for user in (*users, 0) if metric == "rate" or user]
                           for metric in ("ber", "rate", "outage")},
        }
    return pins


@pytest.mark.parametrize("name", sorted(PIN_CONFIGS))
def test_engine_outputs_match_golden_pins(name):
    assert _pins(name) == json.loads(PINS.read_text())[name]


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            golden = GOLDEN / CASES[case][3]
            shutil.copyfile(_run(case, Path(tmp) / case), golden)
            print(f"wrote {golden}", file=sys.stderr)
    PINS.write_text(json.dumps({name: _pins(name) for name in PIN_CONFIGS}, indent=1) + "\n")
    print(f"wrote {PINS}", file=sys.stderr)
