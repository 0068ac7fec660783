"""Golden-output tests: small fixed sweeps through ``cli.main`` must
reproduce the checked-in CSVs under ``tests/golden/`` byte for byte.

Regenerate the files (only for a deliberate change of the random streams or
of the printed values) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from ssknoma import cli

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


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            golden = GOLDEN / CASES[case][3]
            shutil.copyfile(_run(case, Path(tmp) / case), golden)
            print(f"wrote {golden}", file=sys.stderr)
