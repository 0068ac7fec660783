"""Trial-engine tests: configuration defaults, determinism across worker
counts, noise-free sanity, and agreement with the closed forms."""

import os

import numpy as np
import pytest

from ssknoma import montecarlo as mc
from ssknoma.analytics import abep_u2, abep_u3
from ssknoma.errors import ConfigError

GRID = [10.0]


def _cfg(**kw):
    base = dict(scheme=mc.SSK_NOMA, n_users=3, n_r=2, snr_grid_db=GRID, seed=9,
                max_trials=100_000)
    base.update(kw)
    return mc.make_config(**base)


def test_make_config_defaults():
    cfg = _cfg()
    assert cfg.n_t == 2
    assert cfg.first_power_user == 2
    assert cfg.modulations == (4, 4)
    assert cfg.pa.coefficients == (0.8, 0.2)
    assert cfg.fading.variances == (1.0, 2.0, 4.0)


def test_make_config_baseline_defaults():
    cfg = mc.make_config(scheme=mc.NOMA_BASELINE, n_users=3, n_r=2,
                         snr_grid_db=GRID, seed=1)
    assert cfg.n_t == 1
    assert cfg.first_power_user == 1
    assert cfg.pa.coefficients == (0.7, 0.2, 0.1)
    assert len(cfg.modulations) == 3


def test_default_pa_unknown_count():
    with pytest.raises(ConfigError):
        mc.default_pa(7)


@pytest.mark.parametrize("bad", [
    dict(modulations=(4,)),                 # wrong modulation count
    dict(pa=(0.7, 0.2, 0.1)),               # PA length mismatch
    dict(snr_grid_db=[]),                   # empty grid
    dict(n_t=3),                            # not a power of two
    dict(min_bit_errors=10),
    dict(max_trials=100),
    dict(snr_grid_db=[5, 5]),               # points that share a stream key
    dict(snr_grid_db=[10, 10.004]),
])
def test_config_validation_errors(bad):
    with pytest.raises(ConfigError):
        _cfg(**bad)


def test_baseline_requires_single_antenna():
    with pytest.raises(ConfigError):
        mc.make_config(scheme=mc.NOMA_BASELINE, n_users=3, n_r=2, n_t=2,
                       snr_grid_db=GRID, seed=1)


def test_unknown_scheme():
    with pytest.raises(ConfigError):
        _cfg(scheme="tdma")


def test_config_hash_tracks_content():
    assert _cfg().config_hash() == _cfg().config_hash()
    assert _cfg().config_hash() != _cfg(seed=10).config_hash()
    assert len(_cfg().config_hash()) == 16


def test_wilson_halfwidth_behaviour():
    assert mc.wilson_halfwidth(0, 0) == 0.0
    # large-sample agreement with the normal-approximation interval
    k, n = 400, 100_000
    p = k / n
    normal = 1.96 * np.sqrt(p * (1 - p) / n)
    assert mc.wilson_halfwidth(k, n) == pytest.approx(normal, rel=0.02)
    assert mc.wilson_halfwidth(0, 1000) > 0.0


# --- simulation sanity ---------------------------------------------------------


def test_noise_free_runs_are_error_free():
    cfg = _cfg(noise=False, max_trials=10_000, block_size=2_500,
               blocks_per_round=4)
    for p in mc.run_ber_point(cfg, 10.0):
        assert p.value == 0.0


def test_noise_free_baseline_is_error_free():
    cfg = mc.make_config(scheme=mc.NOMA_BASELINE, n_users=3, n_r=2,
                         snr_grid_db=GRID, seed=2, noise=False,
                         max_trials=10_000, block_size=2_500)
    for p in mc.run_ber_point(cfg, 10.0):
        assert p.value == 0.0


def test_ber_matches_exact_forms_within_ci():
    cfg = _cfg(seed=21, max_trials=400_000)
    points = {p.user: p for p in mc.run_ber_point(cfg, 10.0)}
    rho = 10.0
    want2 = abep_u2(0.8, 0.2, rho * 2.0, 2)
    want3 = abep_u3(0.8, 0.2, rho * 4.0, 2)
    assert abs(points[2].value - want2) < 3.0 * points[2].ci_halfwidth
    assert abs(points[3].value - want3) < 3.0 * points[3].ci_halfwidth


def test_ber_point_stops_on_error_budget():
    cfg = _cfg(seed=4, min_bit_errors=100, max_trials=1_000_000)
    points = mc.run_ber_point(cfg, 0.0)
    # noisy point: every user collects its errors inside the first round
    assert all(p.n_trials == cfg.block_size * cfg.blocks_per_round for p in points)
    assert all(p.n_events >= 100 for p in points)


def test_antenna_estimation_path_runs():
    cfg = _cfg(genie_antenna=False, max_trials=10_000, block_size=2_500)
    points = {p.user: p for p in mc.run_ber_point(cfg, 20.0)}
    assert set(points) == {1, 2, 3}
    assert all(0.0 <= p.value <= 1.0 for p in points.values())


def test_rate_point_sum_slot():
    cfg = _cfg(seed=6, max_trials=100_000)
    points = {p.user: p for p in mc.run_rate_point(cfg, 10.0)}
    total = sum(points[u].value for u in (1, 2, 3))
    assert points[0].value == pytest.approx(total, rel=1e-12)
    assert all(p.ci_halfwidth > 0 for p in points.values())


def test_outage_point_requires_targets():
    with pytest.raises(ConfigError):
        mc.run_outage_point(_cfg(), 10.0)
    with pytest.raises(ConfigError):
        mc.run_sweep(_cfg(), metrics=("outage",))


def test_outage_point_matches_closed_form():
    cfg = _cfg(seed=31, target_rates=(1.0, 1.0, 1.5), max_trials=200_000)
    result = mc.run_sweep(cfg, metrics=("outage",))
    for p in result.points:
        assert p.analytic is not None
        assert abs(p.value - p.analytic) < 4.0 * max(p.ci_halfwidth, 1e-6)


def test_run_sweep_unknown_metric():
    with pytest.raises(ConfigError):
        mc.run_sweep(_cfg(), metrics=("fer",))


def test_run_sweep_companion_coverage():
    cfg = _cfg(max_trials=100_000)
    res = mc.run_sweep(cfg, metrics=("ber",))
    assert all(p.analytic is not None for p in res.points)
    base = mc.make_config(scheme=mc.NOMA_BASELINE, n_users=3, n_r=2,
                          snr_grid_db=GRID, seed=3, max_trials=100_000)
    res_base = mc.run_sweep(base, metrics=("ber",))
    assert all(p.analytic is None for p in res_base.points)


def test_union_bound_companion_for_larger_networks():
    cfg = mc.make_config(scheme=mc.SSK_NOMA, n_users=4, n_r=2,
                         snr_grid_db=[10.0], seed=5, max_trials=100_000)
    res = mc.run_sweep(cfg, metrics=("ber",))
    by_user = {p.user: p for p in res.points}
    # intra-cell companions are bounds here, so they sit above the estimate
    for u in (2, 3, 4):
        assert by_user[u].analytic >= by_user[u].value - 3 * by_user[u].ci_halfwidth


# --- determinism ----------------------------------------------------------------


def _ber_snapshot(cfg):
    return [(p.user, p.value, p.ci_halfwidth, p.n_trials)
            for p in mc.run_ber_point(cfg, 10.0)]


def test_worker_count_does_not_change_results(monkeypatch):
    cfg = _cfg(seed=12, max_trials=100_000)
    monkeypatch.setenv("SSKNOMA_WORKERS", "1")
    serial = _ber_snapshot(cfg)
    monkeypatch.setenv("SSKNOMA_WORKERS", str(min(3, os.cpu_count())))
    parallel = _ber_snapshot(cfg)
    assert serial == parallel


def test_same_seed_reproduces_and_seeds_differ():
    cfg = _cfg(seed=13, max_trials=100_000)
    assert _ber_snapshot(cfg) == _ber_snapshot(cfg)
    other = _cfg(seed=14, max_trials=100_000)
    assert _ber_snapshot(cfg) != _ber_snapshot(other)


def test_metric_streams_are_independent():
    """BER and rate metrics at the same point consume different streams."""
    cfg = _cfg(seed=15, max_trials=100_000, target_rates=(1.0, 1.0, 1.0))
    res = mc.run_sweep(cfg, metrics=("ber", "rate"))
    metrics = {p.metric for p in res.points}
    assert metrics == {"ber", "rate"}
