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
    # command: (config document, CSV the command writes)
    "ber": ({**SHARED, "runs": L3_PAIR + [{"scheme": "ssk-noma", "n_users": 4, "n_r": 2}]},
            "ber.csv"),
    "capacity": ({**SHARED, "runs": L3_PAIR}, "rate.csv"),
    "outage": ({**SHARED, "runs": L3_PAIR}, "outage.csv"),
}


def _run(command: str, out_dir: Path) -> Path:
    doc, csv_name = CASES[command]
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(config), "--out", str(out_dir),
                     "--quiet"]) == 0
    return out_dir / csv_name


@pytest.mark.parametrize("command", sorted(CASES))
def test_sweep_matches_golden_csv(command, tmp_path):
    produced = _run(command, tmp_path)
    assert produced.read_bytes() == (GOLDEN / produced.name).read_bytes()


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for command in CASES:
            produced = _run(command, Path(tmp) / command)
            shutil.copyfile(produced, GOLDEN / produced.name)
            print(f"wrote {GOLDEN / produced.name}", file=sys.stderr)
