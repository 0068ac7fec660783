"""Trial-engine tests: configuration defaults, determinism across worker
counts, error-free runs at 300 dB, and agreement with the closed forms."""

import collections
import concurrent.futures
import importlib
import inspect
import itertools
import json
import os
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from ssknoma import montecarlo as mc
from ssknoma.analytics import abep_u2, abep_u3
from ssknoma.channel import rng_stream
from ssknoma.errors import ConfigError

GRID = [10.0]


def _cfg(**kw):
    base = dict(scheme=mc.SSK_NOMA, n_users=3, n_r=2, snr_grid_db=GRID, seed=9,
                max_trials=100_000)
    base.update(kw)
    return mc.make_config(**base)


def _sweep(cfg, metric="ber"):
    """The estimates of one metric over the config's whole SNR grid."""
    return mc.run_sweep(cfg, metrics=(metric,))


def test_make_config_defaults():
    cfg = _cfg()
    assert cfg.n_t == 2
    assert cfg.first_power_user == 2
    assert cfg.modulations == (4, 4)
    assert cfg.pa == (0.8, 0.2)
    assert cfg.fading == (1.0, 2.0, 4.0)


def test_make_config_takes_integral_floats():
    """An integer field takes an integral float such as 1e5, as an int."""
    cfg = _cfg(n_users=3.0, n_r=2.0, max_trials=1e5, seed=9.0)
    assert (cfg.n_users, cfg.n_r, cfg.n_t, cfg.max_trials, cfg.seed) == (3, 2, 2, 100_000, 9)
    assert all(type(v) is int for v in (cfg.n_users, cfg.n_r, cfg.max_trials, cfg.seed))
    assert cfg == _cfg()


def test_config_tables_do_not_grow_with_antenna_pairs():
    """An antenna's bit label is its index, so building the tables allocates
    nothing per antenna pair: an N_t x N_t table of bit distances and its
    comparison temporaries would take over 300 MiB at N_t = 4096."""
    mc.make_config(n_users=3, n_r=2, n_t=4, snr_grid_db=[10])  # one-time costs
    tracemalloc.start()
    try:
        mc.make_config(n_users=3, n_r=2, n_t=4096, snr_grid_db=[10])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rate_block_memory_does_not_grow_with_symbol_pairs(monkeypatch):
    """The cell-edge pair-energy table is built once per config from the
    distinct symbol energies, so a 1 000-trial rate block at M_T = 4 096
    allocates no table of all M_T^2 symbol pairs (672 MiB)."""
    monkeypatch.setattr(mc, "_BLOCK_SIZE", 1000)
    cfg = mc.make_config(n_users=3, n_r=2, modulations=[64, 64], snr_grid_db=[10])
    tracemalloc.start()
    try:
        list(mc._rate_trials(cfg, [10.0], 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_ber_block_memory_does_not_grow_with_antennas(monkeypatch):
    """The cell-edge statistics are drawn and searched in chunks of a fixed
    number of trial-antenna entries, so a 1 000-trial BER block at
    N_t = 4 096 holds no B x N_t x N_r channel matrix, which with its
    temporaries traced over 400 MiB; each SNR point builds and searches its
    statistics of a chunk in turn, so four points take no more memory."""
    monkeypatch.setattr(mc, "_BLOCK_SIZE", 1000)
    for snrs in ([10.0], [0.0, 10.0, 20.0, 30.0]):
        cfg = mc.make_config(n_users=3, n_r=2, n_t=4096, snr_grid_db=snrs)
        tracemalloc.start()
        try:
            list(mc._ber_trials(cfg, snrs, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20, snrs


def test_running_point_memory_does_not_grow_with_its_rounds(monkeypatch):
    """Each block's moments merge into its point's running state at the end
    of its round, so two points that run 250 rounds of 10-trial blocks hold
    no more memory at their last block than at their eleventh round;
    keeping every block's moments until the point stopped held about
    0.7 kB per block and point."""
    monkeypatch.setenv("SSKNOMA_WORKERS", "1")
    monkeypatch.setattr(mc, "_BLOCK_SIZE", 10)
    cfg = _cfg(max_trials=10_000, snr_grid_db=[0.0, 10.0])
    # traced memory as each block starts, into an array allocated up front
    held, blocks, block_moments = np.zeros(1001, np.int64), itertools.count(), mc._block_moments

    def tracing(*args):
        held[next(blocks)] = tracemalloc.get_traced_memory()[0]
        return block_moments(*args)

    monkeypatch.setattr(mc, "_block_moments", tracing)
    tracemalloc.start()
    try:
        assert list(mc._sweep_points(cfg, "rate")) == [0.0, 10.0]
    finally:
        tracemalloc.stop()
    assert next(blocks) == 1000
    assert held[999] - held[40] < 16 << 10


def test_make_config_baseline_defaults():
    cfg = mc.make_config(scheme=mc.NOMA_BASELINE, n_users=3, n_r=2,
                         snr_grid_db=GRID, seed=1)
    assert cfg.n_t == 1
    assert cfg.first_power_user == 1
    assert cfg.pa == (0.7, 0.2, 0.1)
    assert cfg.fading == (1.0, 2.0, 4.0)  # geometric, from user 1
    assert len(cfg.modulations) == 3


def test_default_pa_unknown_count():
    with pytest.raises(ConfigError):
        mc.default_pa(7)


@pytest.mark.parametrize("bad", [
    dict(modulations=(4,)),                 # wrong modulation count
    dict(pa=(0.7, 0.2, 0.1)),               # PA length mismatch
    dict(snr_grid_db=[]),                   # empty grid
    dict(n_t=3),                            # not a power of two
    dict(n_t=8192),                         # above the largest accepted N_t, 4096
    dict(min_bit_errors=10),
    dict(max_trials=100),
    dict(snr_grid_db=[5, 5]),               # a repeated point would print duplicate rows
    dict(snr_grid_db=[400.0]),              # beyond +-300 dB (10^(1e300/10) overflows)
    dict(snr_grid_db=[float("nan")]),
    dict(seed=-1),                          # random streams take nonnegative seeds
    dict(seed=2**32),                       # ... of one 32-bit key word
    dict(n_users=None),                     # required
    dict(scheme=["ssk-noma"]),
    dict(pa=(0.8, "0.2")),
    dict(fading=(1.0, 2.0, None)),
    dict(target_rates="1, 1, 2"),
    dict(modulations=(4, 4.5)),
    dict(n_r=65, n_t=2),                    # above the largest accepted N_r, 64
    dict(n_r=200, n_t=2),
    dict(modulations=(256, 512)),           # M_T = 2^17, above the largest, 2^16
    dict(scheme=mc.NOMA_BASELINE, n_t=1, modulations=(131072, 16, 4)),  # order 2^17
    dict(modulations=(16, 4096)),           # M_T = 2^16 of 8 105 distinct energies
    dict(target_rates=(1.5, 1.0, 2.0)),     # user 1 carries log2 N_t = 1 bit
    dict(pa=(0.7, 0.2)),                    # sums to 0.9
    dict(n_users=1, pa=()),                 # sums to 0: no power user
    dict(pa=(1.5, -0.5)),                   # sums to 1, outside (0, 1]
    dict(pa=(1.0, 0.0)),                    # sums to 1, a zero coefficient
    dict(n_users=2, pa=(1.0 + 5e-13,)),     # sums to 1 within 1e-12, above 1
    dict(pa=(0.5, 0.5)),                    # not strictly decreasing
    dict(fading=(-1.0, 2.0, 4.0)),          # negative, though ascending
    dict(fading=(2.0, 1.0, 4.0)),           # not ascending
    dict(fading=(1e-21, 2.0, 4.0)),         # below -200 dB, beyond the float32 receiver
    dict(fading=(1.0, 2.0, 1.01e20)),       # above +200 dB
    dict(target_rates=(1.0, 0.0, 1.0)),     # not positive
])
def test_config_validation_errors(bad):
    with pytest.raises(ConfigError):
        _cfg(**bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key", ["pa", "fading", "snr_grid_db", "target_rates"])
def test_config_built_directly_rejects_non_finite_values(key, bad):
    """``make_config`` rejects a non-finite float, and so does a SimConfig
    built without it, naming the entry (``as_float``): a NaN passes every
    range check, each comparison being false, and would run as a NaN SNR
    point."""
    values = _cfg(target_rates=(1.0, 1.0, 1.0)).canonical_dict()
    assert mc.SimConfig(**values) == _cfg(target_rates=(1.0, 1.0, 1.0))
    values[key] = (*values[key][:-1], bad)
    entry = len(values[key]) - 1
    with pytest.raises(ConfigError, match=rf"^{key}\[{entry}\] must be a finite number"):
        mc.SimConfig(**values)


@pytest.mark.parametrize("key,value", [
    ("n_r", 2.5), ("pa", ("0.8", "0.2")), ("seed", "1"),
])
def test_config_built_directly_rejects_mistyped_values(key, value):
    """A SimConfig built directly checks each run key's type as
    ``make_config`` does (``as_int``, ``as_tuple``): a fractional count, a
    string coefficient and a string seed are config errors, not a config
    or a TypeError."""
    values = _cfg().canonical_dict()
    with pytest.raises(ConfigError, match=key):
        mc.make_config(**{**values, key: value})
    with pytest.raises(ConfigError, match=key):
        mc.SimConfig(**{**values, key: value})


def test_config_built_directly_converts_integral_floats():
    """``modulations=(4.0, 4)`` becomes the ints (4, 4) in a SimConfig built
    directly, as through ``make_config``, and so its hash is the same."""
    values = _cfg().canonical_dict()
    direct = mc.SimConfig(**{**values, "modulations": (4.0, 4), "n_r": 2.0})
    made = mc.make_config(**{**values, "modulations": (4.0, 4), "n_r": 2.0})
    assert direct == made == _cfg()
    assert direct.modulations == (4, 4) and all(type(m) is int for m in direct.modulations)
    assert type(direct.n_r) is int and direct.config_hash() == _cfg().config_hash()


def test_simconfig_converts_every_run_key():
    """Every run key but the scheme, checked by name, has one conversion."""
    assert {"scheme", *mc._INT_KEYS, *mc._TUPLE_KEYS} == set(mc.RUN_KEYS)
    assert len(mc._INT_KEYS) + len(mc._TUPLE_KEYS) + 1 == len(mc.RUN_KEYS)


def test_close_grid_points_are_accepted():
    """The streams are keyed by block, not by SNR point, so points closer
    than any rounding of the SNR are distinct points."""
    cfg = _cfg(snr_grid_db=[10, 10.004], max_trials=10_000)
    assert [p.snr_db for p in _sweep(cfg)] == [10.0] * 3 + [10.004] * 3


def test_baseline_requires_single_antenna():
    with pytest.raises(ConfigError):
        mc.make_config(scheme=mc.NOMA_BASELINE, n_users=3, n_r=2, n_t=2,
                       snr_grid_db=GRID, seed=1)


def test_unknown_scheme():
    with pytest.raises(ConfigError):
        _cfg(scheme="tdma")


@pytest.mark.parametrize("kw", [
    dict(n_r=64, n_t=2),
    dict(modulations=(256, 256)),           # M_T = 2^16 of 304 distinct energies
    dict(modulations=(64, 256)),            # 2 046 distinct energies, of at most 2 048
    dict(scheme=mc.NOMA_BASELINE, n_t=1, modulations=(65536, 16, 4)),
], ids=["n_r-64", "M_T-2^16", "2046-energies", "baseline-order-2^16"])
def test_configs_at_the_caps_are_accepted(kw):
    """N_r up to 64, constellation orders and the SSK-NOMA composite
    alphabet up to 2^16 points, and up to 2^11 distinct symbol energies;
    ``test_config_validation_errors`` takes each one step beyond."""
    assert _cfg(**kw).tables


def test_make_config_takes_the_run_keys():
    """SimConfig's fields, which a config document sets, are make_config's
    parameters; ``test_sweep_presets_build_valid_configs`` rebuilds every
    preset run from them."""
    assert len(mc.RUN_KEYS) == 12
    assert set(inspect.signature(mc.make_config).parameters) == set(mc.RUN_KEYS)


def test_config_hash_tracks_content():
    assert _cfg().config_hash() == _cfg().config_hash()
    assert _cfg().config_hash() != _cfg(seed=10).config_hash()
    assert len(_cfg().config_hash()) == 16


# --- simulation sanity ---------------------------------------------------------


def test_noise_free_runs_are_error_free():
    """Noise-free in effect: at 300 dB, the largest accepted SNR, the noise
    moves no decision."""
    cfg = _cfg(snr_grid_db=[300.0], max_trials=10_000)
    for p in _sweep(cfg):
        assert p.value == 0.0
        # no trial spreads: the rule of three bounds the rate at 3/n
        assert p.ci_halfwidth == 3.0 / p.n_trials


@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_noise_free_cell_edge_search_is_error_free(n_r, monkeypatch):
    """At 300 dB the statistics of the true antenna and symbol fit r to
    within rounding, at N_r = 1 (no orthogonal energies) as at N_r > 1, so
    no user errs."""
    monkeypatch.setattr(mc, "_BLOCK_SIZE", 5_000)
    cfg = _cfg(n_r=n_r, n_t=4)
    [point] = mc._ber_trials(cfg, (300.0,), 0)
    for errors in point:
        assert not errors.any()


def test_chunked_cell_edge_search_keeps_every_trial(monkeypatch):
    """Chunks of 3 trials at N_t = 4, the last one short: each chunk
    searches its own trials' antennas and symbols, so a block at 300 dB
    stays error-free and no trial is lost."""
    monkeypatch.setattr(mc, "_SM_DRAW_ENTRIES", 12)
    monkeypatch.setattr(mc, "_BLOCK_SIZE", 100)
    cfg = _cfg(n_t=4)
    for errors in mc._ber_trials(cfg, (300.0,), 0):
        assert errors[0].shape == (100,) and not any(e.any() for e in errors)


def test_cell_edge_chunk_draws_only_the_inactive_antennas(monkeypatch):
    """At N_t = 4 a chunk draws c for the 3 inactive antennas only: 3 x B
    complex normals after the B of the block's one unit-variance MRC draw,
    which every user shares, and the block's stream then stands exactly
    where a replay of those draws leaves it, so no power user draws."""
    b = 300
    monkeypatch.setattr(mc, "_BLOCK_SIZE", b)
    cfg = _cfg(n_t=4)
    shapes, mrc_calls, streams = [], [], []
    complex_normal, mrc_statistic, stream = mc.complex_normal, mc._mrc_statistic, mc.rng_stream

    def counting_normal(rng, shape, variance):
        x = complex_normal(rng, shape, variance)
        shapes.append(x.shape)
        return x

    def recording_mrc(rng, n_r, n):
        mrc_calls.append((n_r, n))
        return mrc_statistic(rng, n_r, n)

    def recording_stream(*keys):
        streams.append(stream(*keys))
        return streams[-1]

    monkeypatch.setattr(mc, "complex_normal", counting_normal)
    monkeypatch.setattr(mc, "_mrc_statistic", recording_mrc)
    monkeypatch.setattr(mc, "rng_stream", recording_stream)
    list(mc._ber_trials(cfg, [10.0], 0))
    # the shared unit noise, then c
    assert shapes == [(b,), (3, b)]
    assert mrc_calls == [(2, b)]
    replay = rng_stream(cfg.seed, mc._METRIC_CODE["ber"], 0)
    for order in (4, 4, 4):  # the antenna index, then both users' symbols
        replay.integers(0, order, b)
    replay.random(2 * b)               # the shared gain, Gamma(N_r = 2)
    replay.standard_normal(2 * b)      # the shared unit noise
    replay.random(b)                   # the orthogonal noise energy, Gamma(1)
    replay.standard_normal(2 * 3 * b)  # c of the 3 inactive antennas
    replay.random(3 * b)               # their Gamma(1) terms
    [rng] = streams
    got, want = rng.bit_generator.state, replay.bit_generator.state
    assert np.array_equal(got.pop("state")["state"], want.pop("state")["state"]) and got == want


def test_zero_variance_cell_edge_user_decides_antenna_0(monkeypatch):
    """fading [0, 2, 4]: every cell-edge statistic is 0 (||r||^2 included,
    which would be 0/0), so the search decides antenna 0 on every trial
    without a RuntimeWarning, and user 1 errs in the bits of its antenna."""
    monkeypatch.setattr(mc, "_BLOCK_SIZE", 2_000)
    cfg = _cfg(n_t=4, fading=(0.0, 2.0, 4.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [errors] = mc._ber_trials(cfg, [10.0], 0)
    rng = rng_stream(cfg.seed, mc._METRIC_CODE["ber"], 0)
    v = rng.integers(0, cfg.n_t, 2_000)
    assert np.array_equal(errors[0], np.bitwise_count(v))


def _recording_user_statistics(monkeypatch):
    """Wrap ``_mrc_statistic``, ``_user_statistics`` and the cell-edge
    search, recording what each returns or receives, in call order."""
    calls = collections.defaultdict(list)
    mrc_statistic, user_statistics, sm_detect = (mc._mrc_statistic, mc._user_statistics,
                                                 mc._sm_detect_block)

    def mrc(rng, n_r, n):
        calls["mrc"].append(mrc_statistic(rng, n_r, n))
        return calls["mrc"][-1]

    def user(g, e, var):
        calls["user"].append((var, *user_statistics(g, e, var)))
        return calls["user"][-1][1:]

    def search(z, g, orth, grid):
        calls["g_v"].append(g[0].copy())
        return sm_detect(z, g, orth, grid)

    monkeypatch.setattr(mc, "_mrc_statistic", mrc)
    monkeypatch.setattr(mc, "_user_statistics", user)
    monkeypatch.setattr(mc, "_sm_detect_block", search)
    return calls


def _replay_unit_mrc(cfg, b):
    """A BER block's unit-variance gain G and per-unit-gain noise w / sqrt(G),
    replayed from its stream past the antenna index and the symbols."""
    rng = rng_stream(cfg.seed, mc._METRIC_CODE["ber"], 0)
    if cfg.first_power_user > 1:
        rng.integers(0, cfg.n_t, b)
    for c in cfg.tables.consts:
        rng.integers(0, c.order, b)
    gain = -np.log(np.prod(1.0 - rng.random((cfg.n_r, b)), axis=0))
    w = rng.standard_normal((b, 2)) * np.sqrt(0.5)
    return gain, w.T / np.sqrt(gain)


@pytest.mark.parametrize("scheme", [mc.SSK_NOMA, mc.NOMA_BASELINE])
def test_ber_block_users_share_one_gain_and_noise(monkeypatch, scheme):
    """One BER block draws one unit-variance MRC statistic, the replay's
    Gamma(N_r) gain G and noise e = w / sqrt(G), and every user, in user
    order, takes sigma_k^2 G and e / sigma_k; the cell-edge search reads
    user 1's gain on its active antenna, rounded to the receiver's type."""
    b = 500
    monkeypatch.setattr(mc, "_BLOCK_SIZE", b)
    cfg = _cfg(scheme=scheme, n_t=4 if scheme == mc.SSK_NOMA else 1, fading=(0.5, 2.0, 4.0))
    calls = _recording_user_statistics(monkeypatch)
    list(mc._ber_trials(cfg, [5.0, 15.0], 0))
    gain, e = _replay_unit_mrc(cfg, b)
    [(g, e_drawn)] = calls["mrc"]
    assert np.array_equal(g, gain) and np.array_equal(e_drawn, e)
    assert [var for var, _, _ in calls["user"]] == list(cfg.fading)
    for var, g_k, e_k in calls["user"]:
        assert np.array_equal(g_k, var * gain)
        assert np.array_equal(e_k, e_drawn / np.sqrt(var))
    if scheme == mc.SSK_NOMA:
        # one chunk, searched at both points
        assert len(calls["g_v"]) == 2
        g_v = (cfg.fading[0] * gain).astype(mc._RX)
        assert all(np.array_equal(got, g_v) for got in calls["g_v"])


@pytest.mark.parametrize("scheme", [mc.SSK_NOMA, mc.NOMA_BASELINE])
def test_zero_variance_user_gets_exact_zero_statistics(monkeypatch, scheme):
    """fading [0, 2, 4]: user 1's gain and noise are exact zeros, drawn with
    warnings as errors, and every trial of it decides index 0, so it errs in
    the bits of what was sent: symbol 0 in the baseline (antenna 0 in
    SSK-NOMA, which ``test_zero_variance_cell_edge_user_decides_antenna_0``
    checks)."""
    b = 2_000
    monkeypatch.setattr(mc, "_BLOCK_SIZE", b)
    cfg = _cfg(scheme=scheme, n_t=4 if scheme == mc.SSK_NOMA else 1, fading=(0.0, 2.0, 4.0))
    calls = _recording_user_statistics(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [errors] = mc._ber_trials(cfg, [10.0], 0)
    (var, g, e), *others = calls["user"]
    assert var == 0.0 and g.shape == (b,) and e.shape == (2, b)
    assert not g.any() and not e.any()
    assert all(g_k.all() for _, g_k, _ in others)
    if scheme == mc.NOMA_BASELINE:
        const = cfg.tables.consts[0]
        sent = const.labels[rng_stream(cfg.seed, mc._METRIC_CODE["ber"], 0)
                            .integers(0, const.order, b)]
        assert np.array_equal(errors[0], np.bitwise_count(sent ^ const.labels[0]))


@pytest.mark.parametrize("metric", ["rate", "outage"])
@pytest.mark.parametrize("n_r", [2, 5])
def test_rate_and_outage_users_share_one_gain(monkeypatch, metric, n_r):
    """A rate or outage block draws one Gamma(N_r) gain per trial (a product
    of uniforms at N_r = 2, numpy's sampler at 5) and every user takes
    sigma_k^2 times it; a zero-variance user takes exact zeros, with
    warnings as errors."""
    b = 1_000
    monkeypatch.setattr(mc, "_BLOCK_SIZE", b)
    cfg = _cfg(n_r=n_r, n_t=2, fading=(0.0, 0.5, 2.0), target_rates=(0.5, 1.0, 1.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = mc._gamma_draws(cfg, metric, 0)
    rng = rng_stream(cfg.seed, mc._METRIC_CODE[metric], 0)
    gain = (-np.log(np.prod(1.0 - rng.random((n_r, b)), axis=0)) if n_r <= 4
            else rng.standard_gamma(n_r, b))
    assert len(draws) == cfg.n_users
    for var, d in zip(cfg.fading, draws):
        assert np.array_equal(d, var * gain)
    assert np.array_equal(draws[0], np.zeros(b))


def test_noise_free_baseline_is_error_free():
    """At 300 dB, as above."""
    cfg = mc.make_config(scheme=mc.NOMA_BASELINE, n_users=3, n_r=2,
                         snr_grid_db=[300.0], seed=2, max_trials=10_000)
    for p in _sweep(cfg):
        assert p.value == 0.0


def test_ber_matches_exact_forms_within_ci():
    cfg = _cfg(seed=21, max_trials=400_000)
    points = {p.user: p for p in _sweep(cfg)}
    rho = 10.0
    want2 = abep_u2(0.8, 0.2, rho * 2.0, 2)
    want3 = abep_u3(0.8, 0.2, rho * 4.0, 2)
    assert abs(points[2].value - want2) < 3.0 * points[2].ci_halfwidth
    assert abs(points[3].value - want3) < 3.0 * points[3].ci_halfwidth


def test_ber_point_stops_on_error_budget():
    cfg = _cfg(seed=4, min_bit_errors=100, max_trials=1_000_000, snr_grid_db=[0.0])
    points = _sweep(cfg)
    # noisy point: every user collects its errors inside the first round
    assert all(p.n_trials == mc._BLOCK_SIZE * mc._BLOCKS_PER_ROUND for p in points)
    for p, bits in zip(points, cfg.tables.bits):
        assert round(p.value * p.n_trials * bits) >= 100


def test_rate_point_sum_slot():
    cfg = _cfg(seed=6, max_trials=100_000)
    points = {p.user: p for p in _sweep(cfg, "rate")}
    total = sum(points[u].value for u in (1, 2, 3))
    assert points[0].value == pytest.approx(total, rel=1e-12)
    assert all(p.ci_halfwidth > 0 for p in points.values())


def test_rate_ci_keeps_a_tiny_spread(monkeypatch):
    """Draws 3 + 1e-9 N(0,1): a one-pass variance (mean of squares minus
    squared mean) cancels every digit here; the half-width must match a
    two-pass variance of the same draws. Merging blocks about their rounded
    means alone would lose ~1e-9 here, hence rel 1e-11."""
    monkeypatch.setenv("SSKNOMA_WORKERS", "1")
    rng = np.random.default_rng(21)
    drawn = []

    def fake_bep(gammas, table):
        drawn.append(-2.0 - 1e-9 * rng.standard_normal(np.shape(gammas)))
        return drawn[-1]

    # the rate block evaluates the curve on its sorted draws
    monkeypatch.setattr(mc.analytics, "conditional_bep_u1_vec", fake_bep)
    cfg = _cfg(target_rates=(1.0, 1.0, 1.0))  # N_t = 2: user 1's rate is 1 - bep
    est = {p.user: p for p in _sweep(cfg, "rate")}[1]
    rates = np.log2(cfg.n_t) * (1.0 - np.concatenate(drawn))
    assert est.n_trials == rates.size == 100_000
    want = 1.959963984540054 * np.sqrt(np.var(rates) / rates.size)
    assert est.ci_halfwidth == pytest.approx(want, rel=1e-11, abs=0.0)


# (n_users, n_t, overrides) of the per-block curve check: L = 3/4/5 at N_t
# 2/4/16, a zero-variance cell-edge user (every gamma is 0) and L = 2 with a
# QPSK power user at N_t = 2, whose gamma_sat is -inf (N_t log2 M_T = 4), so
# that its zero-variance cell-edge user's gammas of 0 are summed
BLOCK_CURVE_CASES = [
    *((n_users, n_t, {}) for n_users, n_t in itertools.product((3, 4, 5), (2, 4, 16))),
    (3, 2, {"fading": (0.0, 2.0, 4.0)}),
    (2, 2, {"pa": (1.0,), "modulations": (4,)}),
    (2, 2, {"pa": (1.0,), "modulations": (4,), "fading": (0.0, 2.0)}),
]
# all clamped, partly clamped and unclamped points
BLOCK_CURVE_GRID = [-20.0, 0.0, 30.0, 60.0]


@pytest.mark.parametrize("n_users,n_t,kw", BLOCK_CURVE_CASES,
                         ids=[f"L{u}-nt{t}-{i}" for i, (u, t, _) in enumerate(BLOCK_CURVE_CASES)])
def test_block_curve_equals_per_point_curve_bit_for_bit(monkeypatch, n_users, n_t, kw):
    """The rate and outage blocks sort the cell-edge draws once and evaluate
    every SNR point on rho * (sorted draws): their cell-edge outputs equal,
    bit for bit, ``conditional_bep_u1_vec`` of each point's gammas, sorted
    here and put back in draw order."""
    monkeypatch.setattr(mc, "_BLOCK_SIZE", 4_000)
    cfg = _cfg(n_users=n_users, n_t=n_t, snr_grid_db=BLOCK_CURVE_GRID,
               target_rates=(1.0,) * n_users, **kw)
    sat = cfg.pairs.saturation
    clamped = set()
    for metric, trials_fn in (("rate", mc._rate_trials), ("outage", mc._outage_trials)):
        draws = mc._gamma_draws(cfg, metric, 0)[0]
        psi1 = 1.0 - 1.0 / np.log2(n_t)
        for snr_db, users in zip(BLOCK_CURVE_GRID, trials_fn(cfg, BLOCK_CURVE_GRID, 0)):
            gammas = 10.0 ** (snr_db / 10.0) * draws
            clamped.add(float(np.mean(gammas <= sat)))
            order = np.argsort(gammas)
            bep = np.empty(gammas.size)
            bep[order] = mc.analytics.conditional_bep_u1_vec(gammas[order], cfg.pairs)
            want = (np.log2(n_t) * (1.0 - bep) if metric == "rate"
                    else np.where(gammas >= psi1, bep, 0.0))
            assert np.array_equal(users[0].view(np.int64), want.view(np.int64)), (metric, snr_db)
    if n_users == 2:
        assert sat == -np.inf
    elif not kw:
        # the grid spans the clamp's regimes: at N_t = 16 the curve still
        # clamps every draw at 0 dB
        assert clamped >= {0.0, 1.0} and (n_t == 16 or len(clamped - {0.0, 1.0}) > 0)


def test_rate_and_outage_blocks_call_the_traced_curve(monkeypatch):
    """The rate and outage blocks evaluate the cell-edge curve through
    ``analytics.conditional_bep_u1_vec``, a name the benchmark traces, and
    every ``<module>.<function>`` whose calls, time or values
    ``BENCHMARK.json``'s per-layer list reports exists in the package."""
    monkeypatch.setenv("SSKNOMA_WORKERS", "1")
    real, calls = mc.analytics.conditional_bep_u1_vec, []

    def counting(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(mc.analytics, "conditional_bep_u1_vec", counting)
    cfg = _cfg(target_rates=(1.0, 1.0, 1.0), max_trials=10_000)
    for metric in ("rate", "outage"):
        calls.clear()
        _sweep(cfg, metric)
        assert sum(calls) >= 10_000, metric
    bench = json.loads((pathlib.Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    traced = {name.rsplit(".", 1)[0] for name in (m["name"] for m in bench["per_layer"])
              if name.count(".") == 2
              and name.endswith((".calls", ".busy_s", ".values", ".ns_per_value"))}
    assert "analytics.conditional_bep_u1_vec" in traced
    for name in sorted(traced):
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"ssknoma.{module}"), function, None)), name


def test_companions_are_floats_or_none():
    """Every point's ``analytic`` is a float or None, never a numpy scalar
    (which the exact forms ``abep_u2`` and ``abep_u3`` return)."""
    cfg = _cfg(target_rates=(1.0, 1.0, 1.0), snr_grid_db=[0.0, 10.0], max_trials=10_000)
    for metric in ("ber", "rate", "outage"):
        for p in _sweep(cfg, metric):
            assert p.analytic is None or type(p.analytic) is float, (metric, p)


def test_rate_and_outage_reject_a_pair_table_beyond_the_level_budget():
    """[64, 256] has 198 581 pair-table levels (about 130 s of erfc a
    block): rate and outage are config errors naming the count and the
    budget, BER is not. [16, 64] (2 242 levels) and [256, 256] (304
    distinct energies but 878 levels) are within it."""
    big = _cfg(modulations=(64, 256), target_rates=(1.0, 1.0, 1.0))
    for metric in ("rate", "outage"):
        with pytest.raises(ConfigError, match=f"198581 levels, more than the {mc._MAX_LEVELS}"):
            mc.check_metrics(big, [metric])
    mc.check_metrics(big, ["ber"])
    for modulations, levels in (((16, 64), 2242), ((256, 256), 878)):
        cfg = _cfg(modulations=modulations, target_rates=(1.0, 1.0, 1.0))
        mc.check_metrics(cfg, ["rate", "outage"])
        assert cfg.pairs.quarter.size == levels <= mc._MAX_LEVELS


# --- interval estimates ---------------------------------------------------------


@pytest.mark.parametrize("metric,trials_fn", [("ber", mc._ber_trials),
                                              ("outage", mc._outage_trials)])
def test_halfwidth_replays_the_trial_variance(monkeypatch, metric, trials_fn):
    """Every printed half-width is 1.96 sqrt(var / n) of the concatenated
    per-trial outcomes of the point's blocks, each block evaluated at that
    point alone, BER in units of the user's bits, and the estimate is their
    mean. Two rounds of 20 000 trials leave 10 000 of the cap, which the
    third round's four blocks share."""
    monkeypatch.setenv("SSKNOMA_WORKERS", "1")
    monkeypatch.setattr(mc, "_BLOCK_SIZE", 5_000)
    cfg = _cfg(seed=19, target_rates=(0.5, 1.0, 1.5), max_trials=50_000,
               snr_grid_db=[5.0, 10.0])
    points = _sweep(cfg, metric)
    if metric == "outage":  # no early stop: every point runs exactly the cap
        assert {p.n_trials for p in points} == {50_000}
    bits = cfg.tables.bits if metric == "ber" else [1] * cfg.n_users
    for p in points:
        blocks, n = [], 0
        while n < p.n_trials:
            blocks.append(next(trials_fn(cfg, [p.snr_db], len(blocks))))
            n += blocks[-1][0].size
        trials = np.concatenate([block[p.user - 1] for block in blocks]) / bits[p.user - 1]
        assert p.n_trials == trials.size
        assert p.value == pytest.approx(trials.mean(), rel=1e-12, abs=0.0)
        want = 1.959963984540054 * np.sqrt(np.var(trials) / trials.size)
        assert p.ci_halfwidth == pytest.approx(want, rel=1e-11, abs=0.0)


# fixed before the test first ran, and never re-picked
COVERAGE_SEEDS = range(7000, 7300)


def _coverage(metric, n_r, grid, scheme=mc.SSK_NOMA, **kw):
    """Per (user, SNR) of an L=3 network (SSK-NOMA unless ``scheme`` says
    otherwise) swept over ``grid``: the share of ``COVERAGE_SEEDS`` whose
    95% interval holds the exact closed form the sweep attaches
    (``abep_u2/u3``, ``outage_u1``, ``outage_noma_user``,
    ``ergodic_capacity_noma_user``, and for the sum rate, user 0, the sum of
    the users'), and the expected event count of one seed (bit errors for
    BER). The grid's points share their draws, and so do a trial's users,
    so their estimates are correlated, but each interval is still a 95%
    interval. The 10 000-trial cap runs one round of four 2 500-trial
    blocks."""
    hits, exact, expected = collections.Counter(), {}, {}
    for seed in COVERAGE_SEEDS:
        cfg = mc.make_config(scheme=scheme, n_users=3, n_r=n_r, snr_grid_db=grid,
                             seed=seed, max_trials=10_000, **kw)
        bits = cfg.tables.bits if metric == "ber" else [1] * cfg.n_users
        for snr, estimates in mc._sweep_points(cfg, metric).items():
            for p in estimates:
                key = (metric, p.user, snr)
                if key not in exact:
                    # the sum rate comes last, after every user's
                    exact[key] = (mc.companion(cfg, metric, p.user, 10.0 ** (snr / 10.0))
                                  if p.user else
                                  sum(exact[metric, user, snr] for user in range(1, 4)))
                    expected[key] = exact[key] * p.n_trials * bits[p.user - 1]
                hits[key] += abs(p.value - exact[key]) <= p.ci_halfwidth
    return {key: (hits[key] / len(COVERAGE_SEEDS), expected[key]) for key in exact}


def test_intervals_cover_the_exact_values():
    """BER (no early stop, N_r = 1, N_t = 2) of users 2 and 3, whose exact
    ABEPs are known (user 1's closed form is a bound), and the outage of
    every user (N_r = 2): a 95% interval covers the exact value in
    0.92..0.98 of the seeds where a seed expects at least 20 events, and in
    at least 0.92 elsewhere, where the rule of three keeps the interval from
    collapsing."""
    checks = _coverage("ber", 1, [20.0, 25.0], n_t=2, min_bit_errors=10**9)
    checks = {key: v for key, v in checks.items() if key[1] > 1}
    checks.update(_coverage("outage", 2, [10.0, 20.0], target_rates=(0.5, 1.0, 1.5)))
    failures = [f"{key}: coverage {cover:.3f}, {events:.1f} events per seed"
                for key, (cover, events) in checks.items()
                if not (cover >= 0.92 and (events < 20 or cover <= 0.98))]
    assert not failures, failures


def test_sum_rate_intervals_cover_the_exact_values():
    """The one interval whose trials add users that share a trial's fading
    draw: the sum rate. In the baseline (every user's capacity form is
    exact, N_r = 2), every user's rate interval and the sum rate's cover
    the exact value in 0.92..0.98 of the seeds at 0, 10 and 20 dB."""
    checks = _coverage("rate", 2, [0.0, 10.0, 20.0], scheme=mc.NOMA_BASELINE)
    assert {user for _, user, _ in checks} == {0, 1, 2, 3}
    failures = [f"{key}: coverage {cover:.3f}" for key, (cover, _) in checks.items()
                if not 0.92 <= cover <= 0.98]
    assert not failures, failures


def test_outage_point_requires_targets():
    with pytest.raises(ConfigError):
        mc.run_sweep(_cfg(), metrics=("outage",))


def test_outage_point_matches_closed_form():
    cfg = _cfg(seed=31, target_rates=(1.0, 1.0, 1.5), max_trials=200_000)
    for p in mc.run_sweep(cfg, metrics=("outage",)):
        assert p.analytic is not None
        assert abs(p.value - p.analytic) < 4.0 * max(p.ci_halfwidth, 1e-6)


def test_run_sweep_unknown_metric():
    with pytest.raises(ConfigError):
        mc.run_sweep(_cfg(), metrics=("fer",))


@pytest.mark.parametrize("metrics", [(), ("ber", "ber")], ids=["empty", "repeated"])
def test_run_sweep_needs_each_metric_once(metrics):
    with pytest.raises(ConfigError):
        mc.run_sweep(_cfg(), metrics=metrics)


@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_baseline_and_ssk_power_users_share_the_closed_forms(n_r):
    """One scheme model: baseline user i and SSK-NOMA user i + 1 are the
    same SIC stage, so with the same allocation, fading variance, N_r, SNR
    and power-user target rates their rate and outage companions are
    bit-identical."""
    pa, variances, rates = (0.6, 0.3, 0.1), [1.0, 2.0, 4.0], [1.0, 0.5, 0.25]
    base = mc.make_config(scheme=mc.NOMA_BASELINE, n_users=3, n_r=n_r, snr_grid_db=[10.0],
                          pa=pa, fading=variances, target_rates=rates)
    ssk = mc.make_config(scheme=mc.SSK_NOMA, n_users=4, n_r=n_r, n_t=2, snr_grid_db=[10.0],
                         pa=pa, fading=[0.5, *variances], target_rates=[1.0, *rates])
    for rho in (0.5, 10.0, 1e3):
        for metric in ("rate", "outage"):
            for user in (1, 2, 3):
                want = mc.companion(base, metric, user, rho)
                got = mc.companion(ssk, metric, user + 1, rho)
                assert want is not None and got.hex() == want.hex(), (rho, metric, user)


def test_run_sweep_companion_coverage():
    cfg = _cfg(max_trials=100_000)
    assert all(p.analytic is not None for p in mc.run_sweep(cfg, metrics=("ber",)))
    base = mc.make_config(scheme=mc.NOMA_BASELINE, n_users=3, n_r=2,
                          snr_grid_db=GRID, seed=3, max_trials=100_000)
    assert all(p.analytic is None for p in mc.run_sweep(base, metrics=("ber",)))


def test_union_bound_companion_for_larger_networks():
    cfg = mc.make_config(scheme=mc.SSK_NOMA, n_users=4, n_r=2,
                         snr_grid_db=[10.0], seed=5, max_trials=100_000)
    by_user = {p.user: p for p in mc.run_sweep(cfg, metrics=("ber",))}
    # intra-cell companions are bounds here, so they sit above the estimate
    for u in (2, 3, 4):
        assert by_user[u].analytic >= by_user[u].value - 3 * by_user[u].ci_halfwidth


# --- determinism ----------------------------------------------------------------


def _ber_snapshot(cfg):
    return [(p.snr_db, p.user, p.value, p.ci_halfwidth, p.n_trials) for p in _sweep(cfg)]


def test_worker_count_does_not_change_results(monkeypatch):
    """0 dB meets its error budget in the first round, 20 dB runs both."""
    cfg = _cfg(seed=12, max_trials=200_000, snr_grid_db=[0.0, 20.0])
    monkeypatch.setenv("SSKNOMA_WORKERS", "1")
    serial = _ber_snapshot(cfg)
    monkeypatch.setenv("SSKNOMA_WORKERS", str(min(3, os.cpu_count())))
    parallel = _ber_snapshot(cfg)
    assert serial == parallel


def test_pool_sends_each_config_once(monkeypatch):
    """A pooled sweep hands its config to each worker once, through the
    pool's initializer, and every task is (metric, SNR points, block index),
    carrying no config; the estimates equal one worker's, and the pool is
    shut down once, before the sweep returns them. The pool is an in-process
    stand-in that records what it is sent."""
    sent = {"tasks": [], "shutdowns": 0}

    class RecordingPool:
        def __init__(self, workers, initializer, initargs):
            sent["initargs"] = initargs
            initializer(*initargs)

        def map(self, fn, tasks):
            sent["tasks"] += tasks
            return map(fn, tasks)

        def shutdown(self):
            sent["shutdowns"] += 1

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(mc, "_pool_cfg", None)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = _cfg(seed=15, max_trials=40_000, snr_grid_db=[0.0, 20.0])
    monkeypatch.setenv("SSKNOMA_WORKERS", "2")
    pooled = _ber_snapshot(cfg)
    assert sent["shutdowns"] == 1
    assert len(sent["initargs"]) == 1 and sent["initargs"][0] is cfg
    assert [block for _, _, block in sent["tasks"]] == list(range(mc._BLOCKS_PER_ROUND))
    assert all(metric == "ber" and snrs == (0.0, 20.0) for metric, snrs, _ in sent["tasks"])
    # the pool is shut down by the time the points come back
    points = mc._sweep_points(cfg, "ber")
    assert sent["shutdowns"] == 2 and list(points) == [0.0, 20.0]
    monkeypatch.setenv("SSKNOMA_WORKERS", "1")
    assert _ber_snapshot(cfg) == pooled


def test_same_seed_reproduces_and_seeds_differ():
    cfg = _cfg(seed=13, max_trials=100_000)
    assert _ber_snapshot(cfg) == _ber_snapshot(cfg)
    other = _cfg(seed=14, max_trials=100_000)
    assert _ber_snapshot(cfg) != _ber_snapshot(other)


@pytest.mark.parametrize("metric", ["ber", "rate"])
def test_one_stream_per_block_for_every_point(monkeypatch, metric):
    """A one-round sweep over three SNR points opens one random stream per
    block, keyed by (seed, metric, block), not one per block and point."""
    keys = []

    def counted(seed, *key):
        keys.append((seed, *key))
        return rng_stream(seed, *key)

    monkeypatch.setattr(mc, "rng_stream", counted)
    cfg = _cfg(snr_grid_db=[0.0, 10.0, 20.0], max_trials=10_000)
    assert len(_sweep(cfg, metric)) == 3 * (cfg.n_users + (metric == "rate"))
    code = mc._METRIC_CODE[metric]
    assert keys == [(cfg.seed, code, j) for j in range(mc._BLOCKS_PER_ROUND)]


def test_metric_streams_are_independent():
    """BER and rate metrics at the same point consume different streams."""
    cfg = _cfg(seed=15, max_trials=100_000, target_rates=(1.0, 1.0, 1.0))
    assert {p.metric for p in mc.run_sweep(cfg, metrics=("ber", "rate"))} == {"ber", "rate"}
