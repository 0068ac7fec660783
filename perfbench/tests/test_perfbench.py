"""Tests of the benchmark itself: output check, tracer and metric names.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import csv
import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _configs(workload_name):
    return run.setup(run.WORKLOADS[workload_name], run.REFERENCE_SEED)[1]


def _write(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def fig3_reference():
    ref = run.REFERENCE / "ber-fig3" / "ber-fig3.csv"
    header, rows = check.read_rows(ref)
    sizes = run.op_sizes(_configs("ber-fig3")["ber-fig3"], "ber")
    return ref, header, rows, sizes


def _check_mutated(tmp_path, fig3_reference, mutate):
    ref, header, rows, sizes = fig3_reference
    rows = [list(r) for r in rows]
    mutate(rows)
    produced = tmp_path / "ber.csv"
    _write(produced, header, rows)
    return check.check_csv(produced, ref, sizes)


def test_reference_passes_its_own_check(tmp_path, fig3_reference):
    res = _check_mutated(tmp_path, fig3_reference, lambda rows: None)
    assert (res.attempted, res.failed) == (len(fig3_reference[3]), 0)
    assert res.trials == 100_000 * len(fig3_reference[3])


def test_check_flags_missing_row(tmp_path, fig3_reference):
    res = _check_mutated(tmp_path, fig3_reference, lambda rows: rows.pop(10))
    # the row's operation and every later one lose their alignment
    assert res.failed >= 1
    assert "operation 2 " in res.problems[0]


def test_check_flags_missing_last_rows(tmp_path, fig3_reference):
    res = _check_mutated(tmp_path, fig3_reference, lambda rows: rows.pop())
    assert res.failed == 1 and "rows missing" in res.problems[0]


def test_check_flags_analytic_off_by_1e_6(tmp_path, fig3_reference):
    col = check.COLUMNS.index("analytic_value")

    def mutate(rows):
        rows[5][col] = f"{float(rows[5][col]) * (1 + 1e-6):.10e}"

    res = _check_mutated(tmp_path, fig3_reference, mutate)
    assert res.failed == 1 and "analytic_value" in res.problems[0]


def test_check_flags_sim_shifted_by_10_halfwidths(tmp_path, fig3_reference):
    value, hw = check.COLUMNS.index("sim_value"), check.COLUMNS.index("ci_halfwidth")

    def mutate(rows):
        assert float(rows[13][hw]) > 0
        rows[13][value] = f"{float(rows[13][value]) + 10 * float(rows[13][hw]):.10e}"

    res = _check_mutated(tmp_path, fig3_reference, mutate)
    assert res.failed == 1 and "sim_value" in res.problems[0]


def test_check_flags_schema_change(tmp_path, fig3_reference):
    ref, header, rows, sizes = fig3_reference
    produced = tmp_path / "ber.csv"
    _write(produced, header[:-1], [r[:-1] for r in rows])
    assert check.check_csv(produced, ref, sizes).failed == len(sizes)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_check_passes_on_a_second_seed(tmp_path, workload):
    seed = run.REFERENCE_SEED + 1
    wl = run.WORKLOADS[workload]
    main, configs, _ = run.setup(wl, seed)
    _, errors = run.run_pass(main, wl, seed, tmp_path)
    res = run.check_pass(wl, configs, tmp_path, errors)
    assert res.failed == 0, res.problems
    assert res.attempted == sum(len(run.op_sizes(configs[s.name], s.command)) for s in wl.steps)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

TINY = run.Workload("tiny", (run.Step("tiny-ber", "ber"), run.Step("tiny-rate", "capacity")),
                    pool_workers=2)


@pytest.fixture
def tiny_configs(tmp_path, monkeypatch):
    configs = tmp_path / "configs"
    configs.mkdir()
    run_doc = {"scheme": "ssk-noma", "n_users": 3, "n_r": 2}
    for step in TINY.steps:
        doc = {"snr_grid_db": [10], "max_trials": 10_000, "runs": [run_doc]}
        (configs / f"{step.name}.json").write_text(json.dumps(doc))
    monkeypatch.setattr(run, "CONFIGS", configs)
    return tmp_path / "out"


def test_traced_self_times_add_up_to_traced_wall_time(tiny_configs):
    main, _, _ = run.setup(TINY, 3)
    t0 = time.perf_counter()
    times, tr, errors = run.traced_pass(main, TINY, 3, tiny_configs)
    wall = time.perf_counter() - t0
    sweep_s = times.wall_s
    assert not errors
    root = [s for s in tr.spans if s[4] == -1]
    assert len(root) == 1 and root[0][0] == tracer.ROOT_LAYER
    summary = tracer.summarize(tr.spans)
    total_self_ns = sum(layer["self_ns"] for layer in summary["layers"].values())
    assert total_self_ns == root[0][3] - root[0][2]
    assert sweep_s == pytest.approx(total_self_ns / 1e9)
    assert sweep_s <= wall
    metrics = run.layer_metrics(summary)
    assert sum(metrics[f"{layer}.self_s"] for layer in run.LAYERS) <= sweep_s
    assert metrics["detectors.calls"] == 0
    assert metrics["channel.rng_stream.calls"] == 8  # one round of 4 blocks per step
    assert metrics["channel.complex_normal.values"] > 0


def test_tracer_wraps_only_calls_that_cross_modules(tiny_configs):
    main, _, _ = run.setup(TINY, 3)
    _, tr, _ = run.traced_pass(main, TINY, 3, tiny_configs)
    functions = tracer.summarize(tr.spans)["functions"]
    assert functions["analytics.abep_u1"]["calls"] > 0
    # abep_u1 calls pep_u1_pair inside analytics: that call is not wrapped
    assert "analytics.pep_u1_pair" not in functions
    for span in tr.spans:
        parent = tr.spans[span[4]] if span[4] >= 0 else None
        assert parent is None or parent[0] != span[0], span


def test_tracer_uninstall_restores_every_module(tiny_configs):
    modules = tracer.package_modules()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    main, _, _ = run.setup(TINY, 3)
    run.traced_pass(main, TINY, 3, tiny_configs)
    for name, mod in modules.items():
        assert vars(mod).keys() == before[name].keys(), name
        for key, value in before[name].items():
            assert vars(mod)[key] is value, f"{name}.{key}"


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------


def test_every_metric_name_is_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_rescaling_cancels_a_slowdown_the_calibration_sees():
    # the second pass ran while the host was slow: the kernel after it took
    # twice as long, so the mean beside the pass is 1.5 times the quiet one
    quiet = run.end_to_end_result([2.0, 2.0], [0.3, 0.3, 0.3], 10, 1.0, [0.5])
    slow = run.end_to_end_result([2.0, 3.0], [0.3, 0.3, 0.6], 10, 1.0, [0.5])
    assert quiet["sweep_ref_s"][0] == pytest.approx(2.0 * run.REF_CALIBRATION_S / 0.3)
    assert slow["sweep_ref_s"][0] == pytest.approx(quiet["sweep_ref_s"][0])


def test_emitted_metrics_match_the_spec(tiny_configs):
    main, _, _ = run.setup(TINY, 3)
    untraced = [run.run_pass(main, TINY, 3, tiny_configs)[0]]
    pooled = [run.run_pass(main, TINY, 3, tiny_configs, TINY.pool_workers)[0]]
    times, tr, _ = run.traced_pass(main, TINY, 3, tiny_configs)
    traced = [(times, run.layer_metrics(tracer.summarize(tr.spans)))]
    per_layer = run.per_layer_result(TINY, untraced, pooled, traced)
    assert per_layer["montecarlo.pool.child_cpu_s"][0] > 0
    emitted = {
        "per_layer": per_layer,
        "end_to_end": run.end_to_end_result([1.5, 2.5], [0.3, 0.3, 0.6], 10, 100.0,
                                            [0.5, 0.7, 0.6]),
    }
    for key, metrics in emitted.items():
        assert {n: u for n, (_, u) in metrics.items()} == \
            {m["name"]: m["unit"] for m in SPEC[key]}, key
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
