"""Receiver tests: the batched detectors the trial engine runs, against
brute-force oracles, plus the receiver-complexity operation counts."""

import argparse
import collections
import importlib.resources
import json
import warnings
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssknoma import cli
from ssknoma import montecarlo as mc
from ssknoma.channel import complex_normal, rng_stream
from ssknoma.constellation import enumerate_sc_alphabet, make_constellation, qpsk
from ssknoma.detectors import complexity_noma, complexity_ssk_noma
from ssknoma.montecarlo import (
    _ml_detect_block,
    _point_index,
    _sic_detect_block,
    _sm_detect_block,
    _sm_grid,
)

PA3 = (0.8, 0.2)
ALPHABET3 = enumerate_sc_alphabet([qpsk(), qpsk()], PA3)
GRID3 = _sm_grid(ALPHABET3)
QPSK_GRID = _sm_grid(qpsk().points)
BATCH = 5

# composite alphabets of the power users: (modulation orders, allocation)
SM_ALPHABETS = {
    "L3-qpsk": ((4, 4), (0.8, 0.2)),
    "L4-qpsk": ((4, 4, 4), (0.7, 0.2, 0.1)),
    "L5-qpsk": ((4, 4, 4, 4), (0.6, 0.25, 0.1, 0.05)),
    "qam16-qpsk": ((16, 4), (0.8, 0.2)),
    "bpsk-qpsk-bpsk": ((2, 4, 2), (0.6, 0.3, 0.1)),
}


def _alphabet(name):
    orders, pa = SM_ALPHABETS[name]
    return enumerate_sc_alphabet([make_constellation(m) for m in orders], pa)


def _brute_force_sm(r, h, chis, power):
    """(antenna, composite symbol) of the smallest ||r - sqrt(P) h_v chi||^2,
    lowest pair first on ties."""
    best = None
    for v in range(h.shape[0]):
        for k, chi in enumerate(chis):
            d = np.sum(np.abs(r - np.sqrt(power) * h[v] * chi) ** 2)
            if best is None or d < best[0] - 1e-12:
                best = (d, v, k)
    return best[1:]


def _brute_force_ml(r, h, amp, points):
    dists = [np.sum(np.abs(r - amp * h * s) ** 2) for s in points]
    return int(np.argmin(dists))


def _brute_force_sic(r, h, amps, points):
    """Stage-by-stage ML decisions and the residual before the last stage."""
    resid, decisions = r.copy(), []
    for m, (amp, pts) in enumerate(zip(amps, points)):
        decisions.append(_brute_force_ml(resid, h, amp, pts))
        if m < len(amps) - 1:
            resid = resid - amp * h * pts[decisions[-1]]
    return decisions, resid


def _brute_force_scalar_sic(y, g, amps, points):
    """Stage-by-stage decisions minimising |y - amp g s|^2, which for g > 0
    is the ML metric of the MRC statistics y = h^H r and g = ||h||^2."""
    decisions = []
    for amp, pts in zip(amps, points):
        decisions.append(int(np.argmin([abs(y - amp * g * s) ** 2 for s in pts])))
        y = y - amp * g * pts[decisions[-1]]
    return decisions


def _scan_sic(y, g, amps, points):
    """``_brute_force_scalar_sic`` over a batch: per trial and stage the
    first point of least |y - amp g s|^2, every point scored. Every point
    scores 0 where g = 0, so index 0 wins there."""
    decisions = []
    for amp, pts in zip(amps, points):
        decisions.append(np.argmin(np.abs(y[:, None] - (amp * g)[:, None] * pts) ** 2, axis=1))
        y = y - amp * g * pts[decisions[-1]]
    return decisions


def _scan_sm(z, g, chis):
    """``_brute_force_sm_statistics`` over a batch, less ||r||^2 and divided
    by P: per trial the (row, composite symbol) of least
    g_t (|chi|^2 - 2 Re(chi* z_t)) over every pair, the first pair in
    row-major order on ties, so (0, 0) where every g_t is 0; in chunks of
    1 000 trials."""
    re, im = chis.real, chis.imag
    energy = re ** 2 + im ** 2
    pairs = []
    for s in range(0, g.shape[1], 1000):
        z0, z1 = (z[c, :, s:s + 1000, None] for c in (0, 1))
        metric = g[:, s:s + 1000, None] * (energy - 2.0 * (z0 * re + z1 * im))
        pairs.append(metric.transpose(1, 0, 2).reshape(metric.shape[1], -1).argmin(axis=1))
    return np.divmod(np.concatenate(pairs), chis.size)


def _unit(y, g):
    """Per-unit-gain coordinates y / g as a (2, *y.shape) array of real and
    imaginary parts, 0 where g = 0, and the mask of those zeros (None if
    there is none): the receivers' inputs."""
    u = np.divide(np.stack([y.real, y.imag]), g, out=np.zeros((2, *y.shape)), where=g != 0.0)
    return u, (g == 0.0 if (g == 0.0).any() else None)


def _mrc(r, h):
    """A SIC chain's inputs from (B, N_r) received vectors and channels: the
    coordinates of h^H r / ||h||^2 per trial and the mask of zero channels."""
    return _unit(np.sum(np.conj(h) * r, axis=1), np.sum(np.abs(h) ** 2, axis=1))


def _antenna_statistics(r, h, sqrt_p):
    """The joint search's inputs from (B, N_r) received vectors and
    (B, N_t, N_r) channels, one row per antenna t in index order: the
    coordinates of h_t^H r / (sqrt(P) ||h_t||^2), (2, N_t, B), the energies
    ||h_t||^2, (N_t, B), the energies of r / sqrt(P) outside h_t's span,
    (||r||^2 - |h_t^H r|^2 / ||h_t||^2) / P (||r||^2 / P where h_t = 0), and
    the mask of the zero energies."""
    g = np.ascontiguousarray(np.sum(np.abs(h) ** 2, axis=2).T)
    y = np.einsum("btr,br->tb", np.conj(h), r)
    z, dead = _unit(y / sqrt_p, g)
    r_sq = np.sum(np.abs(r) ** 2, axis=1)
    inside = np.divide(np.abs(y) ** 2, g, out=np.zeros_like(g), where=g != 0.0)
    return z, g, (r_sq - inside) / sqrt_p ** 2, dead


def _joint_decisions(z, g, orth, dead, grid):
    """The joint search's decided row per trial (``_sm_detect_block``) and
    that row's composite symbol, read from the row's own ML decision; the
    search decides alike with the full metric (``orth``) and with the metric
    less ||r||^2 / P (orth None)."""
    decided = []
    for o in (orth, None):
        row = _sm_detect_block(z, g, o, grid)
        cols = np.arange(row.size)
        pos = _ml_detect_block(z[:, row, cols], None if dead is None else dead[row, cols], 1.0,
                               grid)
        decided.append((row, _point_index(grid, pos)))
    (row, k), (row_reduced, k_reduced) = decided
    assert np.array_equal(row, row_reduced) and np.array_equal(k, k_reduced)
    return row, k


def _points(grids, positions):
    """Each stage's decided point index from its grid positions."""
    return [_point_index(grid, pos) for grid, pos in zip(grids, positions)]


def _complex(u):
    """The complex numbers whose real and imaginary parts ``u`` holds."""
    return u[0] + 1j * u[1]


def _vector_sic_chain(r, h, amps, points):
    """Batched SIC on the received vectors: each stage minimises
    ||resid - amp h s||^2 over its constellation, then subtracts
    amp h s_hat from the (B, N_r) residual."""
    h_norm = np.sum(np.abs(h) ** 2, axis=1)
    resid, decisions = r, []
    for amp, pts in zip(amps, points):
        inner = np.sum(resid * np.conj(h), axis=1)
        metrics = (-2.0 * amp * np.real(np.outer(inner, np.conj(pts)))
                   + amp * amp * np.outer(h_norm, np.abs(pts) ** 2))
        decisions.append(np.argmin(metrics, axis=1))
        resid = resid - amp * pts[decisions[-1]][:, None] * h
    return decisions


@pytest.mark.parametrize("trial", range(20))
def test_detect_sm_matches_brute_force(trial):
    rng = rng_stream(100, trial)
    power = 10.0
    h = complex_normal(rng, (BATCH, 4, 2), 1.0)
    r = complex_normal(rng, (BATCH, 2), 3.0)
    v_hat, k_hat = _joint_decisions(*_antenna_statistics(r, h, np.sqrt(power)), GRID3)
    for b in range(BATCH):
        assert (v_hat[b], k_hat[b]) == _brute_force_sm(r[b], h[b], ALPHABET3, power)


def test_detect_sm_noiseless_recovers_truth():
    """Every (antenna, composite symbol) hypothesis, one per batch row."""
    rng = rng_stream(3, 0)
    power = 25.0
    h = complex_normal(rng, (2, 4), 1.0)
    v, k = np.divmod(np.arange(2 * ALPHABET3.size), ALPHABET3.size)
    r = np.sqrt(power) * h[v] * ALPHABET3[k][:, None]
    h_batch = np.broadcast_to(h, (v.size, 2, 4))
    v_hat, k_hat = _joint_decisions(*_antenna_statistics(r, h_batch, np.sqrt(power)), GRID3)
    assert np.array_equal(v_hat, v) and np.array_equal(k_hat, k)


@pytest.mark.parametrize("name", sorted(SM_ALPHABETS))
def test_nearest_point_noiseless_recovers_truth(name):
    """Noise-free, over every alphabet with a nearest-point grid, at N_t = 4:
    every (antenna, composite symbol) hypothesis, one per batch row."""
    chis = _alphabet(name)
    rng = rng_stream(3, 1)
    power = 25.0
    h = complex_normal(rng, (4, 2), 1.0)
    v, k = np.divmod(np.arange(4 * chis.size), chis.size)
    r = np.sqrt(power) * h[v] * chis[k][:, None]
    h_batch = np.broadcast_to(h, (v.size, 4, 2))
    v_hat, k_hat = _joint_decisions(*_antenna_statistics(r, h_batch, np.sqrt(power)),
                                 _sm_grid(chis))
    assert np.array_equal(v_hat, v) and np.array_equal(k_hat, k)


@pytest.mark.parametrize("n_t", [2, 4, 8])
@pytest.mark.parametrize("name", sorted(SM_ALPHABETS))
def test_nearest_point_search_equals_brute_force(name, n_t):
    """The nearest-point search makes the brute-force search's decisions on
    70 000 seeded trials per case, 1.05e6 over the 15 cases, with the full
    metric and with the metric less ||r||^2 / P."""
    chis = _alphabet(name)
    grid = _sm_grid(chis)
    n_r = min(n_t, 4)
    for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0):
        rng = rng_stream(500, n_t, int(snr_db))
        b = 14_000
        sqrt_p = np.sqrt(10.0 ** (snr_db / 10.0))
        h = complex_normal(rng, (b, n_t, n_r), 1.0)
        v = rng.integers(0, n_t, b)
        k = rng.integers(0, chis.size, b)
        r = sqrt_p * h[np.arange(b), v] * chis[k][:, None] + complex_normal(rng, (b, n_r), 1.0)
        stats = _antenna_statistics(r, h, sqrt_p)
        v_fast, k_fast = _joint_decisions(*stats, grid)
        v_brute, k_brute = _scan_sm(*stats[:2], chis)
        assert np.array_equal(v_fast, v_brute) and np.array_equal(k_fast, k_brute), snr_db


def test_nearest_point_breaks_ties_like_brute_force():
    """Two 16-QAM users at (0.8, 0.2): sqrt(0.8) = 2 sqrt(0.2), so the 256
    composite symbols hold 100 distinct points. Equal points score equal
    metrics, so both searches must pick the first alphabet index."""
    chis = enumerate_sc_alphabet([make_constellation(16)] * 2, PA3)
    grid = _sm_grid(chis)
    assert np.unique(chis).size == 100 and grid.index.shape == (10, 10)
    rng = rng_stream(700, 0)
    b, sqrt_p = 20_000, np.sqrt(100.0)
    h = complex_normal(rng, (b, 4, 2), 1.0)
    v = rng.integers(0, 4, b)
    k = rng.integers(0, chis.size, b)
    clean = sqrt_p * h[np.arange(b), v] * chis[k][:, None]
    first = np.array([np.flatnonzero(chis == chi)[0] for chi in chis])
    v_hat, k_hat = _joint_decisions(*_antenna_statistics(clean, h, sqrt_p), grid)
    assert np.array_equal(v_hat, v) and np.array_equal(k_hat, first[k])
    r = clean + complex_normal(rng, (b, 2), 1.0)
    stats = _antenna_statistics(r, h, sqrt_p)
    v_fast, k_fast = _joint_decisions(*stats, grid)
    v_brute, k_brute = _scan_sm(*stats[:2], chis)
    assert np.array_equal(v_fast, v_brute) and np.array_equal(k_fast, k_brute)


@pytest.mark.parametrize("oracle", [True, False], ids=["brute-force", "nearest-point"])
def test_zero_channel_decides_first_pair_without_warning(oracle):
    """A fading variance of 0 scores every hypothesis 0, so the first
    (antenna, symbol) pair wins in the nearest-point search; with
    ``oracle``, its decisions also equal the brute-force search's over every
    pair of each trial."""
    chis = _alphabet("L4-qpsk")
    rng = rng_stream(7, 0)
    h = complex_normal(rng, (BATCH, 4, 2), 0.0)
    r = complex_normal(rng, (BATCH, 2), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v_hat, k_hat = _joint_decisions(*_antenna_statistics(r, h, np.sqrt(10.0)), _sm_grid(chis))
    assert not v_hat.any() and not k_hat.any()
    if oracle:
        assert list(zip(v_hat, k_hat)) == [_brute_force_sm(r[b], h[b], chis, 10.0)
                                           for b in range(BATCH)]


def test_zero_fading_cell_edge_user_runs_a_block(monkeypatch):
    """Users 1 and 2 of variance 0: both always decide index 0, so they err on
    exactly the trials whose antenna or symbol differs from it."""
    monkeypatch.setattr(mc, "_BLOCK_SIZE", 200)
    cfg = mc.make_config(scheme=mc.SSK_NOMA, n_users=3, n_r=2, snr_grid_db=[10.0],
                         seed=4, fading=(0.0, 0.0, 4.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [errors] = mc._ber_trials(cfg, [10.0], 0)
    rng = rng_stream(cfg.seed, mc._METRIC_CODE["ber"], 0)
    assert np.array_equal(errors[0], rng.integers(0, cfg.n_t, 200) != 0)
    assert cfg.tables.bits[0] == 1
    k2 = rng.integers(0, 4, 200)
    assert np.array_equal(errors[1], qpsk().bit_distance_table()[k2, 0])


@pytest.mark.parametrize("trial", range(20))
def test_detect_u2_matches_brute_force(trial):
    """ML detection of the strongest NOMA user, weaker users as noise, from
    the MRC statistics, against the vector ML decision."""
    rng = rng_stream(200, trial)
    h = complex_normal(rng, (BATCH, 2), 2.0)
    r = complex_normal(rng, (BATCH, 2), 4.0)
    amp = np.sqrt(0.8 * 5.0)
    got = _point_index(QPSK_GRID, _ml_detect_block(*_mrc(r, h), amp, QPSK_GRID))
    for b in range(BATCH):
        assert got[b] == _brute_force_ml(r[b], h[b], amp, qpsk().points)


def _check_sic_against_brute_force(rng, coefficients, power):
    points = [qpsk().points] * len(coefficients)
    amps = [np.sqrt(a * power) for a in coefficients]
    h = complex_normal(rng, (BATCH, 2), 4.0)
    r = complex_normal(rng, (BATCH, 2), 6.0)
    grids = [QPSK_GRID] * len(amps)
    positions, resid = _sic_detect_block(*_mrc(r, h), amps, grids)
    decisions = _points(grids, positions)
    assert len(decisions) == len(coefficients)
    for b in range(BATCH):
        want, want_resid = _brute_force_sic(r[b], h[b], amps, points)
        assert [int(d[b]) for d in decisions] == want
        # the residual's coordinates: h^H resid / ||h||^2
        assert np.isclose(_complex(resid)[b], np.vdot(h[b], want_resid) / np.vdot(h[b], h[b]))


@pytest.mark.parametrize("trial", range(10))
def test_sic_chain_matches_stagewise_brute_force(trial):
    """SSK-NOMA chain of user 4: stages for users 2, 3 and 4."""
    _check_sic_against_brute_force(rng_stream(300, trial), (0.7, 0.2, 0.1), 12.0)


@pytest.mark.parametrize("trial", range(10))
def test_noma_baseline_matches_stagewise_brute_force(trial):
    """Baseline chain of user 3: stages for users 1, 2 and 3."""
    _check_sic_against_brute_force(rng_stream(400, trial), (0.6, 0.25, 0.15), 8.0)


def test_sic_chain_residual_cancels_known_symbol():
    """Noise-free, the first decision is exact and the coordinates the last
    stage sees are those of h^H r / ||h||^2 less the strongest user's
    contribution, sqrt(P) sqrt(0.2) s_3."""
    rng = rng_stream(301, 0)
    power = 100.0
    s2, s3 = qpsk().points[1], qpsk().points[2]
    h = complex_normal(rng, (1, 2), 1.0)
    r = np.sqrt(power) * h * (np.sqrt(0.8) * s2 + np.sqrt(0.2) * s3)
    amps = [np.sqrt(0.8 * power), np.sqrt(0.2 * power)]
    positions, resid = _sic_detect_block(*_mrc(r, h), amps, [QPSK_GRID] * 2)
    decisions = _points([QPSK_GRID] * 2, positions)
    assert np.allclose(_complex(resid), np.sqrt(power) * np.sqrt(0.2) * s3, atol=1e-12)
    assert [int(d[0]) for d in decisions] == [1, 2]


# power allocations of the SIC chains: L = 3, 4 and 5 SSK-NOMA users 2..L
SIC_ALLOCATIONS = [(0.8, 0.2), (0.7, 0.2, 0.1), (0.6, 0.25, 0.1, 0.05)]


@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_scalar_sic_equals_vector_ml_chain(n_r):
    """Every stage decision of the scalar chain equals that of a vector ML
    chain on the same r and h: 3 allocations x 7 SNRs x 16 000 trials per
    receive-antenna count, 1.008e6 trials over the three cases."""
    b = 16_000
    for pa in SIC_ALLOCATIONS:
        points = [qpsk().points] * len(pa)
        for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
            rng = rng_stream(800, n_r, len(pa), int(snr_db))
            power = 10.0 ** (snr_db / 10.0)
            amps = [np.sqrt(a * power) for a in pa]
            ks = [rng.integers(0, 4, b) for _ in pa]
            chi = sum(np.sqrt(a) * qpsk().points[k] for a, k in zip(pa, ks))
            h = complex_normal(rng, (b, n_r), 2.0)
            r = np.sqrt(power) * h * chi[:, None] + complex_normal(rng, (b, n_r), 1.0)
            grids = [QPSK_GRID] * len(pa)
            got = _points(grids, _sic_detect_block(*_mrc(r, h), amps, grids)[0])
            want = _vector_sic_chain(r, h, amps, points)
            for stage, (g_dec, w_dec) in enumerate(zip(got, want)):
                assert np.array_equal(g_dec, w_dec), (pa, snr_db, stage)


def test_zero_variance_genie_user_decides_symbol_0():
    """A genie user of fading variance 0 has g = 0 and y = 0, so every
    symbol scores 0 and the first wins, without a RuntimeWarning: its
    per-unit-gain noise is 0 and every trial is dead."""
    rng = rng_stream(9, 0)
    signal = np.sqrt(10.0) * qpsk().points[rng.integers(0, 4, BATCH)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, e = mc._user_statistics(*mc._mrc_statistic(rng, 2, BATCH), 0.0)
        u = np.stack([signal.real, signal.imag]) + e
        positions, _ = _sic_detect_block(u, mc._dead(g), [np.sqrt(8.0), np.sqrt(2.0)],
                                         [QPSK_GRID] * 2)
    decisions = _points([QPSK_GRID] * 2, positions)
    assert not e.any() and not g.any() and mc._dead(g).all()
    assert not decisions[0].any() and not decisions[1].any()


def _brute_force_sm_statistics(r_sq, y, g, chis, power):
    """(antenna, composite symbol) of the smallest
    ||r||^2 - 2 sqrt(P) Re(chi* h_t^H r) + P |chi|^2 ||h_t||^2, which is
    ||r - sqrt(P) h_t chi||^2 written in the per-antenna statistics, lowest
    pair first on ties."""
    best = None
    for t in range(len(y)):
        for k, chi in enumerate(chis):
            d = (r_sq - 2.0 * np.sqrt(power) * (np.conj(chi) * y[t]).real
                 + power * abs(chi) ** 2 * g[t])
            if best is None or d < best[0] - 1e-12:
                best = (d, t, k)
    return best[1:]


@pytest.mark.parametrize("scheme", [mc.SSK_NOMA, mc.NOMA_BASELINE])
def test_ber_block_matches_brute_force_chain(scheme, monkeypatch):
    """The engine's per-trial bit errors equal a brute-force receiver's
    fed with the same draws, in the engine's order: antenna index, symbols,
    one unit-variance MRC gain and one unit complex noise per trial, which
    every user scales by its fading variance, then the rest of the cell-edge
    user's statistics (the noise energy orthogonal to h_v for N_r > 1, then
    c_t and the energy of h_t orthogonal to r for the N_t - 1 inactive
    antennas, in rows that start at antenna v + 1 and wrap around).
    Each Gamma(k) draw is -ln of a product of k uniforms (``_gamma_replay``).
    Every cell-edge statistic is rebuilt from its law trial by trial, at
    N_r = 1 (no orthogonal energies) and N_r = 2. The block is evaluated at
    two SNR points at once, each of which the brute-force receiver replays
    from the same draws."""
    monkeypatch.setattr(mc, "_BLOCK_SIZE", 40)
    for n_r in (1, 2):
        cfg = mc.make_config(scheme=scheme, n_users=3, n_r=n_r,
                             n_t=4 if scheme == mc.SSK_NOMA else 1,
                             snr_grid_db=[6.0, 12.0], seed=8)
        for snr_db, errors in zip(cfg.snr_grid_db, mc._ber_trials(cfg, cfg.snr_grid_db, 2)):
            _check_ber_block_against_brute_force(cfg, snr_db, errors)


def _gamma_replay(rng, k, shape):
    """Gamma(k) draws of an integer k <= 4 as the engine makes them: -ln of
    the product of 1 - U over each column of a (k, *shape) batch of
    uniforms."""
    return -np.log(np.prod(1.0 - rng.random((k, *np.atleast_1d(shape))), axis=0))


def _check_ber_block_against_brute_force(cfg, snr_db, errors):
    rng = rng_stream(cfg.seed, mc._METRIC_CODE["ber"], 2)
    b, power, first = mc._BLOCK_SIZE, 10.0 ** (snr_db / 10.0), cfg.first_power_user
    consts = cfg.tables.consts
    points = [c.points for c in consts]
    alphabet = enumerate_sc_alphabet(consts, cfg.pa)
    amps = [np.sqrt(a * power) for a in cfg.pa]
    v = rng.integers(0, cfg.n_t, b) if first > 1 else np.zeros(b, dtype=int)
    ks = [rng.integers(0, c.order, b) for c in consts]
    chi = sum(np.sqrt(a) * p[k] for a, p, k in zip(cfg.pa, points, ks))
    signal = np.sqrt(power) * chi
    # every user's gain and noise: sigma^2 G and sqrt(sigma^2 G) w
    gain, noise = _gamma_replay(rng, cfg.n_r, b), complex_normal(rng, b, 1.0)
    want = np.zeros((cfg.n_users, b))
    for i in range(1, cfg.n_users + 1):
        var = cfg.fading[i - 1]
        k = i - first
        g = var * gain
        y = g * signal + np.sqrt(g) * noise
        if i < first:
            perp = _gamma_replay(rng, cfg.n_r - 1, b) if cfg.n_r > 1 else np.zeros(b)
            # the inactive antennas' draws, antenna-major: row j - 1 is
            # antenna v + j mod N_t
            c = complex_normal(rng, (cfg.n_t - 1, b), var)
            c_perp = (var * _gamma_replay(rng, cfg.n_r - 1, (cfg.n_t - 1, b)) if cfg.n_r > 1
                      else np.zeros((cfg.n_t - 1, b)))
            for t in range(b):
                r_sq = abs(y[t]) ** 2 / g[t] + perp[t]
                rows = [(u - v[t]) % cfg.n_t - 1 for u in range(cfg.n_t)]
                y_t = [y[t] if u == v[t] else np.sqrt(r_sq) * c[j, t] for u, j in enumerate(rows)]
                g_t = [g[t] if u == v[t] else abs(c[j, t]) ** 2 + c_perp[j, t]
                       for u, j in enumerate(rows)]
                v_hat, _ = _brute_force_sm_statistics(r_sq, y_t, g_t, alphabet, power)
                want[0, t] = bin(int(v[t]) ^ v_hat).count("1")
            continue
        for t in range(b):
            dec = _brute_force_scalar_sic(y[t], g[t], amps[:k + 1], points[:k + 1])
            want[i - 1, t] = consts[k].bit_distance_table()[ks[k][t], dec[-1]]
    assert np.array_equal(errors, want), (cfg.n_r, snr_db)
    # log2 N_t = 2 antenna bits for user 1 of SSK-NOMA, two bits per QPSK symbol
    assert cfg.tables.bits == (2,) * cfg.n_users


# --- nearest-point ML stages ----------------------------------------------------

# constellations whose ML stage takes the nearest grid point
GRID_ORDERS = {"bpsk": 2, "qpsk": 4, "qam16": 16, "qam64": 64}


def _chain_draws(rng, order, pa, snr_db, b, noise=True):
    """(y, g, amps, points) of a SIC chain of ``order``-point users at
    allocation ``pa``: MRC statistics of N_r = 2 branches, a tenth of the
    trials with a zero channel."""
    points = make_constellation(order).points
    power = 10.0 ** (snr_db / 10.0)
    chi = sum(np.sqrt(a) * points[rng.integers(0, order, b)] for a in pa)
    g = rng.standard_gamma(2.0, b)
    g[rng.random(b) < 0.1] = 0.0
    y = np.sqrt(power) * g * chi
    if noise:
        y = y + np.sqrt(g) * complex_normal(rng, b, 1.0)
    return y, g, [np.sqrt(a * power) for a in pa], [points] * len(pa)


@pytest.mark.parametrize("name", sorted(GRID_ORDERS))
def test_grid_ml_stage_equals_scan(name):
    """One stage and a three-stage SIC chain decide as the brute-force scan
    of every point's ML metric (``_scan_sic``) on 20 000 seeded trials per
    SNR from 0 to 40 dB and noise-free, with zero channels among them and no
    RuntimeWarning."""
    order = GRID_ORDERS[name]
    cases = [(snr_db, True) for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0)] + [(20.0, False)]
    for snr_db, noise in cases:
        rng = rng_stream(900, order, int(snr_db), noise)
        y, g, amps, points = _chain_draws(rng, order, (0.7, 0.2, 0.1), snr_db, 20_000, noise)
        u, dead = _unit(y, g)
        grids = [_sm_grid(p) for p in points]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one_grid = _point_index(grids[0], _ml_detect_block(u, dead, amps[0], grids[0]))
            chain_grid = _points(grids, _sic_detect_block(u, dead, amps, grids)[0])
        chain_scan = _scan_sic(y, g, amps, points)
        assert np.array_equal(one_grid, chain_scan[0])
        for stage, (got, want) in enumerate(zip(chain_grid, chain_scan)):
            assert np.array_equal(got, want), (snr_db, noise, stage)
        assert dead.any() and not np.any(one_grid[dead])


@st.composite
def _grid_cases(draw):
    """1 to 4 power users of orders 2, 4, 16, 64 and 256 with M_T <= 4 096,
    and a strictly decreasing allocation that sums to 1."""
    orders = draw(st.lists(st.sampled_from([2, 4, 16, 64, 256]), min_size=1, max_size=4)
                  .filter(lambda orders: prod(orders) <= 4096))
    weights = sorted(draw(st.lists(st.integers(1, 10**6), min_size=len(orders),
                                   max_size=len(orders), unique=True)), reverse=True)
    return orders, tuple(w / sum(weights) for w in weights)


@settings(max_examples=200, deadline=None)
@given(_grid_cases())
def test_every_constellation_and_alphabet_is_a_full_grid(case):
    """Each constellation and each composite alphabet of them gives
    ``_sm_grid`` exactly re x im cells (its distinct real and imaginary
    parts, its axis levels), each holding a point at that real and
    imaginary part, and point 0 at ``grid.origin``, so the nearest-point
    decision is the receivers' only one. An alphabet that is
    not such a grid (the axis-aligned 4-PSK, say) fails ``_sm_grid``."""
    orders, pa = case
    consts = [make_constellation(m) for m in orders]
    for points in [c.points for c in consts] + [enumerate_sc_alphabet(consts, pa)]:
        grid = _sm_grid(points)
        re_axis, im_axis = np.unique(points.real), np.unique(points.imag)
        assert grid.index.shape == (re_axis.size, im_axis.size)
        assert np.array_equal(grid.re_level, re_axis) and np.array_equal(grid.im_level, im_axis)
        cells = points[grid.index]
        assert np.array_equal(cells.real, np.broadcast_to(re_axis[:, None], cells.shape))
        assert np.array_equal(cells.imag, np.broadcast_to(im_axis, cells.shape))
        assert grid.index[grid.origin] == 0


@pytest.mark.parametrize("trial", range(10))
def test_grid_sic_chain_matches_stagewise_brute_force(trial):
    """The engine's grid path of the SSK-NOMA chain of user 4 against the
    per-trial vector ML chain."""
    rng = rng_stream(310, trial)
    points = [qpsk().points] * 3
    amps = [np.sqrt(a * 12.0) for a in (0.7, 0.2, 0.1)]
    h = complex_normal(rng, (BATCH, 2), 4.0)
    r = complex_normal(rng, (BATCH, 2), 6.0)
    grids = [QPSK_GRID] * 3
    decisions = _points(grids, _sic_detect_block(*_mrc(r, h), amps, grids)[0])
    for b in range(BATCH):
        want, _ = _brute_force_sic(r[b], h[b], amps, points)
        assert [int(d[b]) for d in decisions] == want


def test_grid_decides_the_lower_neighbour_on_a_midpoint():
    """A coordinate exactly on a midpoint takes the lower of its two
    neighbours on that axis (searchsorted's side="left"); the other axis
    decides as usual. For QPSK the midpoints are 0: z = 0.3j sits between
    points 1 (-1+1j)/sqrt(2) and 0 (1+1j)/sqrt(2), and the grid decides 1.
    Ties like this, and coordinates within rounding error of a midpoint, are
    the only inputs on which the grid and a scan of every point's metric can
    part; under noise they have probability 0."""
    z = np.array([0.3j, -0.3j, 0.3, -0.3, 0.0])
    u = np.stack([z.real, z.imag])
    assert list(_point_index(QPSK_GRID, _ml_detect_block(u, None, 1.0, QPSK_GRID))) == [
        1, 2, 3, 2, 2]
    qam = make_constellation(16).points
    qam_grid = _sm_grid(qam)
    for mid in qam_grid.re_mid:
        pos = _ml_detect_block(np.array([[mid], [qam.imag.max()]]), None, 1.0, qam_grid)
        k = _point_index(qam_grid, pos)[0]
        lower = np.max(qam.real[qam.real < mid])
        assert qam[k] == lower + 1j * qam.imag.max()
    # there a scan's metrics tie exactly and its first minimum, point 0,
    # wins; a coordinate just off the midpoint decides the nearer point on
    # both
    u = np.array([[0.0, 1e-9, -1e-9], [0.3, 0.3, 0.3]])
    assert list(_point_index(QPSK_GRID, _ml_detect_block(u, None, 1.0, QPSK_GRID))) == [1, 0, 1]
    assert list(_scan_sic(_complex(u), np.ones(3), [1.0], [qpsk().points])[0]) == [0, 0, 1]


def test_stage_input_on_a_scaled_midpoint_takes_the_lower_neighbour():
    """A stage compares its input with its grid's midpoints scaled by the
    stage amplitude, so an input exactly on a scaled midpoint takes the lower
    neighbour: at a 16-QAM stage of amplitude 2.5, and at the second stage of
    a QPSK chain whose first stage cancels exactly, leaving a real part of 0
    on that stage's midpoint."""
    qam = make_constellation(16).points
    grid, amp, top = _sm_grid(qam), 2.5, qam.imag.max()
    u = np.stack([amp * grid.re_mid, np.full(grid.re_mid.size, amp * top)])
    for mid, k in zip(grid.re_mid, _point_index(grid, _ml_detect_block(u, None, amp, grid))):
        assert qam[k] == np.max(qam.real[qam.real < mid]) + 1j * top
    amps, first = [3.0, 1.5], qpsk().points[2]
    u = np.array([[amps[0] * first.real], [amps[0] * first.imag + 0.3 * amps[1]]])
    positions, resid = _sic_detect_block(u, None, amps, [QPSK_GRID] * 2)
    decisions = _points([QPSK_GRID] * 2, positions)
    assert decisions[0][0] == 2 and resid[0, 0] == 0.0 and resid[1, 0] > 0.0
    # between points 1 (-1+1j)/sqrt(2) and 0 (1+1j)/sqrt(2), the lower wins
    assert decisions[1][0] == 1


def _tied_metrics(rng, n_t, b, dtype=np.float64):
    """(N_t, B) metrics of five values, so that most trials tie between
    rows, with signed zeros, trials of distinct normal metrics, and columns
    of zeros (trials whose every g_t is 0, which decide row 0)."""
    metric = (rng.integers(-2, 3, (n_t, b)) / 2.0).astype(dtype)
    metric[rng.random((n_t, b)) < 0.1] = -0.0
    metric[:, ::3] = rng.standard_normal((n_t, metric[:, ::3].shape[1]))
    metric[:, 1::7] = 0.0
    # over a quarter of the trials tie at their least metric
    assert ((metric == metric.min(axis=0)).sum(axis=0) > 1).mean() > 0.25
    return metric


@pytest.mark.parametrize("n_t", [2, 4, 16, 4096])
def test_first_min_row_equals_argmin(n_t):
    """The joint search's row decision is ``argmin(axis=0)`` bit for bit,
    dtype included, on ``_tied_metrics``: at N_t = 4096 on 128 trials, a
    chunk of fewer trials than rows, as at N_t >= 1024."""
    rng = rng_stream(930, n_t)
    metric = _tied_metrics(rng, n_t, max(128, (1 << 16) // n_t))
    want = metric.argmin(axis=0)
    got = mc._first_min_row(metric)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert not got[1::7].any()


@pytest.mark.parametrize("n_t,b", [(4, 4), (16, 4096), (1024, 1024), (16, 8), (1024, 512)])
def test_first_min_row_equals_argmin_in_float32_on_both_shapes(n_t, b):
    """On float32 metrics, as the receiver scores them, ``_first_min_row``
    is ``argmin(axis=0)`` bit for bit where it walks the rows (at least as
    many trials as rows) and where it takes ``argmin`` itself (fewer)."""
    rng = rng_stream(931, n_t, b)
    metric = _tied_metrics(rng, n_t, b, np.float32)
    want = metric.argmin(axis=0)
    got = mc._first_min_row(metric)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert not got[1::7].any()


@pytest.mark.parametrize("scan", [True, False], ids=["scan", "nearest-point"])
def test_dead_rows_among_live_rows_decide_index_0(scan):
    """A block that mixes trials of channel energy 0 with live ones, its
    inputs formed as the engine forms them (``_unit_gain``, ``_dead``): every
    SIC stage and the joint search decide index 0 on the dead trials and
    decide the live ones as in a block of their own, without a
    RuntimeWarning; with ``scan``, the whole block also as the brute-force
    scans of every point (``_scan_sic``) and every pair (``_scan_sm``)."""
    rng = rng_stream(920, not scan)
    b, power = 3000, 100.0
    pa = (0.7, 0.2, 0.1)
    amps = [np.sqrt(a * power) for a in pa]
    grids = [QPSK_GRID] * 3
    chi = sum(np.sqrt(a) * qpsk().points[rng.integers(0, 4, b)] for a in pa)
    g = rng.standard_gamma(2.0, b)
    g[::3] = 0.0
    live = g > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e, dead = mc._unit_gain(complex_normal(rng, b, 1.0), np.sqrt(g)), mc._dead(g)
        u = np.sqrt(power) * np.stack([chi.real, chi.imag]) + e
        decisions = _points(grids, _sic_detect_block(u, dead, amps, grids)[0])
    assert np.array_equal(dead, ~live)
    alone = _points(grids, _sic_detect_block(u[:, live], None, amps, grids)[0])
    for got, want in zip(decisions, alone):
        assert not got[~live].any() and np.array_equal(got[live], want)
    if scan:
        want = _scan_sic(g * _complex(u), g, amps, [qpsk().points] * 3)
        assert all(np.array_equal(got, w) for got, w in zip(decisions, want))

    chis = _alphabet("L4-qpsk")
    h = complex_normal(rng, (b, 4, 2), 1.0)
    h[~live] = 0.0
    r = np.sqrt(power) * h[:, 0] * chis[rng.integers(0, chis.size, b)][:, None]
    r = r + complex_normal(rng, (b, 2), 1.0)
    g = np.ascontiguousarray(np.sum(np.abs(h) ** 2, axis=2).T)
    y = np.einsum("btr,br->tb", np.conj(h), r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = mc._unit_gain(y / np.sqrt(power), g)
        orth = _antenna_statistics(r, h, np.sqrt(power))[2]
        v_hat, k_hat = _joint_decisions(z, g, orth, mc._dead(g), _sm_grid(chis))
    assert not v_hat[~live].any() and not k_hat[~live].any()
    v_alone, k_alone = _joint_decisions(*_antenna_statistics(r[live], h[live], np.sqrt(power)),
                                     _sm_grid(chis))
    assert np.array_equal(v_hat[live], v_alone) and np.array_equal(k_hat[live], k_alone)
    if scan:
        v_scan, k_scan = _scan_sm(z, g, chis)
        assert np.array_equal(v_hat, v_scan) and np.array_equal(k_hat, k_scan)


def _preset_configs():
    """(preset, SimConfig) of every run of every preset; the pa-sweep
    presets run no simulation and contribute none."""
    args = argparse.Namespace(seed=None, trials_max=None)
    for ref in importlib.resources.files("ssknoma.presets").iterdir():
        if ref.name.endswith(".json"):
            doc = json.loads(ref.read_text())
            if "n_users" in doc or "runs" in doc:
                for cfg in cli._load_runs(doc, args, ("ber",)):
                    yield ref.name, cfg


def test_every_preset_detects_on_grids():
    """Every preset run has a nearest-point grid per power user, and one of
    its composite alphabet exactly when it has a cell-edge user."""
    configs = list(_preset_configs())
    assert {name for name, _ in configs} >= {f"fig{n}.json" for n in range(2, 8)}
    for name, cfg in configs:
        tables = cfg.tables
        assert len(tables.grids) == len(cfg.modulations)
        assert (tables.sm_grid is not None) == (cfg.first_power_user > 1), name


# --- the float32 receiver ----------------------------------------------------

# 16 float32 unit roundoffs: a receiver input passes through a few float32
# roundings, so a float64 coordinate this close (relative to the values it
# is formed from) to a scaled midpoint, or two antennas' float64 metrics
# this close, may decide either way in float32
F32_TIE = 2.0 ** -20


@pytest.mark.parametrize("snr_db", [-300.0, 300.0])
@pytest.mark.parametrize("n_r", [1, 2])
def test_search_at_extreme_snr_is_finite_and_decides_as_float64(monkeypatch, n_r, snr_db):
    """An active antenna of energy g_v = 1e-12 at -300 and +300 dB: with
    every floating-point error raised, ``_sm_statistics`` forms finite
    float32 coordinates and energies, ``_sm_detect_block`` scores finite
    float32 metrics, and its rows are those of the brute-force search over
    every pair (``_scan_sm``) on the float64 statistics of the same draws.
    At -300 dB |z_v|^2 is near 1e42, beyond float32's range, so
    ||r||^2 / P must be formed in float64."""
    b, n_t = 400, 4
    chis = _alphabet("L4-qpsk")
    grid = _sm_grid(chis)

    def draw(rx):
        monkeypatch.setattr(mc, "_RX", rx)
        rng = rng_stream(940, n_r, int(snr_db) + 300)
        chi = chis[rng.integers(0, chis.size, b)]
        g_v = np.full(b, 1e-12)
        e_v = mc._unit_gain(complex_normal(rng, b, 1.0), np.sqrt(g_v))
        [stats] = mc._sm_statistics(rng, g_v, e_v, 1.0, n_t, n_r, np.stack([chi.real, chi.imag]),
                                    [10.0 ** (snr_db / 20.0)])
        return stats

    z64, g64, _, _ = draw(np.float64)
    metrics = []
    first_min_row = mc._first_min_row

    def recording(metric):
        metrics.append(metric.copy())
        return first_min_row(metric)

    monkeypatch.setattr(mc, "_first_min_row", recording)
    with np.errstate(all="raise"):
        z, g, orth, dead = draw(np.float32)
        row = _sm_detect_block(z, g, orth, grid)
    assert dead is None and z.dtype == g.dtype == np.float32
    assert np.isfinite(z).all() and np.isfinite(g).all()
    if isinstance(orth, np.ndarray):
        assert orth.dtype == np.float32 and np.isfinite(orth).all()
    else:  # the metric less ||r||^2 / P, or no energy outside any h_t
        assert orth is None if snr_db < 0 else orth == 0.0 and n_r == 1
    [metric] = metrics
    assert metric.dtype == np.float32 and np.isfinite(metric).all()
    assert np.array_equal(row, _scan_sm(z64, g64, chis)[0])


def test_fading_variances_at_200_db_run_at_300_db(monkeypatch):
    """The largest and least accepted fading variances (+-200 dB) at +-300
    dB: every receiver input stays within float32's range, so a BER block
    runs without a RuntimeWarning."""
    monkeypatch.setattr(mc, "_BLOCK_SIZE", 2000)
    cfg = mc.make_config(n_users=4, n_r=2, n_t=4, fading=(1e-20, 1.0, 2.0, 1e20),
                         snr_grid_db=[-300.0, 300.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        low, high = mc._ber_trials(cfg, cfg.snr_grid_db, 0)
    # every user is at -100 dB or below, or at +100 dB or above
    assert all(errors.any() for errors in low) and not any(errors.any() for errors in high)


def _record_receiver(monkeypatch):
    """Wrap the SIC chain and the joint search; each call appends its
    inputs and decisions to the returned list."""
    calls = []
    sic, search = mc._sic_detect_block, mc._sm_detect_block

    def recording_sic(u, dead, amps, grids):
        positions, resid = sic(u, dead, amps, grids)
        calls.append(("sic", u.copy(), amps, grids, positions))
        return positions, resid

    def recording_search(z, g, orth, grid):
        row = search(z, g, orth, grid)
        orth = None if orth is None else np.broadcast_to(orth, g.shape).copy()
        calls.append(("search", z.copy(), g.copy(), orth, grid, row))
        return row

    monkeypatch.setattr(mc, "_sic_detect_block", recording_sic)
    monkeypatch.setattr(mc, "_sm_detect_block", recording_search)
    return calls


def _near_midpoint(coord, mids, scale):
    """Whether each coordinate lies within ``F32_TIE`` times ``scale`` plus
    the midpoint's size of one of the scaled midpoints ``mids``."""
    if not mids.size:
        return np.zeros(coord.shape, dtype=bool)
    gap = np.abs(coord[..., None] - mids)
    return np.any(gap <= F32_TIE * (scale[..., None] + np.abs(mids)), axis=-1)


def _sic_ties(u, amps, grids, positions):
    """Trials of a float64 SIC chain (inputs u, decided ``positions``) where
    some stage's coordinate lies within float32 rounding of one of its scaled
    midpoints, relative to every value the coordinate is formed from."""
    tie = np.zeros(u.shape[1], dtype=bool)
    resid, scale = u, np.abs(u)
    for amp, grid, pos in zip(amps, grids, positions):
        for axis, mids, levels in ((0, grid.re_mid, grid.re_level),
                                   (1, grid.im_mid, grid.im_level)):
            tie |= _near_midpoint(resid[axis], amp * mids, scale[axis])
            scale[axis] += amp * np.abs(levels).max()
        resid = resid - mc._levels_at(grid, pos, amp, np.float64)
    return tie


def _search_ties(z, g, orth, grid):
    """Trials of a float64 joint search where some antenna's coordinate lies
    within float32 rounding of a midpoint, or the two best antennas' metrics
    (the full metric with ``orth``, else the metric less ||r||^2 / P) lie
    within float32 rounding of the terms they are formed from."""
    tie = np.any(_near_midpoint(z[0], grid.re_mid, np.abs(z[0]))
                 | _near_midpoint(z[1], grid.im_mid, np.abs(z[1])), axis=0)
    s = mc._levels_at(grid, mc._ml_detect_block(z, None, 1.0, grid), 1.0, np.float64)
    size = np.hypot(*s) + np.hypot(*z)
    if orth is None:
        metric = g * (s[0] ** 2 + s[1] ** 2 - 2.0 * (z[0] * s[0] + z[1] * s[1]))
        terms = g * np.hypot(*s) * size * 2.0
    else:
        d = np.hypot(*(s - z))
        metric = g * d * d + orth
        terms = g * d * d + orth + 2.0 * g * d * size
    best = np.argsort(metric, axis=0, kind="stable")[:2]
    (m1, m2), (t1, t2) = np.take_along_axis(metric, best, 0), np.take_along_axis(terms, best, 0)
    return tie | (m2 - m1 <= F32_TIE * (t1 + t2))


AGREEMENT_CONFIGS = {
    "L3-qpsk-nt2": dict(n_users=3, n_r=2),
    "L4-qpsk-nt4": dict(n_users=4, n_r=4),
    "L5-qpsk-nt16-nr1": dict(n_users=5, n_r=1, n_t=16),
    "qam16-qpsk-nt4": dict(n_users=3, n_r=2, n_t=4, modulations=[16, 4], pa=[0.8, 0.2]),
    "baseline-L4": dict(scheme=mc.NOMA_BASELINE, n_users=4, n_r=2),
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_CONFIGS))
def test_float32_receiver_decides_as_float64(monkeypatch, name, record_property):
    """The engine's float32 receiver against the same engine in float64
    (``_RX``), on the same draws: 4 000 trials at each of 7 SNRs from -200 to
    200 dB. Every SIC stage and every search decides alike, except on trials
    where the float64 receiver itself stands within float32 rounding of a
    decision (``_sic_ties``, ``_search_ties``). Those trials are counted and
    recorded (``record_property``); they must stay rare."""
    monkeypatch.setattr(mc, "_BLOCK_SIZE", 20_000)
    cfg = mc.make_config(snr_grid_db=[-200.0, -30.0, 0.0, 20.0, 40.0, 60.0, 200.0], seed=950,
                         **AGREEMENT_CONFIGS[name])
    calls = _record_receiver(monkeypatch)
    runs = []
    for rx in (np.float64, np.float32):
        monkeypatch.setattr(mc, "_RX", rx)
        list(mc._ber_trials(cfg, cfg.snr_grid_db, 0))
        runs.append(calls[:])
        calls.clear()
    trials = differ = ties = 0
    for want, got in zip(*runs):
        if want[0] == "sic":
            tie = _sic_ties(*want[1:])
            apart = np.any([np.any(np.not_equal(a, b), axis=0)
                            for a, b in zip(want[-1], got[-1])], axis=0)
        else:
            tie = _search_ties(*want[1:5])
            apart = want[-1] != got[-1]
        assert not np.any(apart & ~tie), want[0]
        trials, differ, ties = trials + tie.size, differ + apart.sum(), ties + tie.sum()
    record_property("decisions", trials)
    record_property("float32_differs", int(differ))
    record_property("within_float32_rounding", int(ties))
    print(f"{name}: {trials} decisions, {differ} differ, {ties} within float32 rounding")
    assert len(runs[0]) == len(runs[1]) > 0 and ties <= 1e-3 * trials


def test_receiver_sees_only_float32(monkeypatch):
    """One ``_ber_trials`` block of each scheme at an SNR of each search
    metric (-30 dB, below ``_SEARCH_LOW_SNR``, and 20 dB), with the receiver
    functions wrapped: every coordinate, energy and metric array they receive
    or return is float32, and every amplitude a Python float, so that no
    numpy float64 scalar (which NEP 50 lets promote a float32 array) turns
    the receiver back to float64."""
    monkeypatch.setattr(mc, "_BLOCK_SIZE", 300)
    seen = collections.Counter()
    wrapped = {name: getattr(mc, name) for name in (
        "_sm_statistics", "_sm_detect_block", "_first_min_row", "_sic_detect_block",
        "_ml_detect_block", "_axis_position", "_levels_at", "_point_index")}

    def f32(name, *arrays):
        seen[name] += 1
        for a in arrays:
            assert isinstance(a, np.ndarray) and a.dtype == np.float32, name

    def scalar(name, *amps):
        assert all(type(a) is float for a in amps), name

    def statistics(*args):
        scalar("_sm_statistics", *args[-1])
        for z, g, orth, dead in wrapped["_sm_statistics"](*args):
            f32("_sm_statistics", z, g, *([orth] if isinstance(orth, np.ndarray) else []))
            yield z, g, orth, dead

    def search(z, g, orth, grid):
        f32("_sm_detect_block", z, g, *([orth] if isinstance(orth, np.ndarray) else []))
        return wrapped["_sm_detect_block"](z, g, orth, grid)

    def first_min_row(metric):
        f32("_first_min_row", metric)
        return wrapped["_first_min_row"](metric)

    def sic(u, dead, amps, grids):
        f32("_sic_detect_block", u)
        scalar("_sic_detect_block", *amps)
        positions, resid = wrapped["_sic_detect_block"](u, dead, amps, grids)
        f32("_sic_detect_block", resid)
        return positions, resid

    def ml(u, dead, amp, grid):
        f32("_ml_detect_block", u)
        scalar("_ml_detect_block", amp)
        return wrapped["_ml_detect_block"](u, dead, amp, grid)

    def axis(coord, mids, amp):
        f32("_axis_position", coord)
        scalar("_axis_position", amp)
        return wrapped["_axis_position"](coord, mids, amp)

    def levels(grid, pos, amp, dtype):
        scalar("_levels_at", amp)
        out = wrapped["_levels_at"](grid, pos, amp, dtype)
        f32("_levels_at", out)
        return out

    def point(grid, pos):
        seen["_point_index"] += 1
        return wrapped["_point_index"](grid, pos)

    for name, fn in zip(wrapped, (statistics, search, first_min_row, sic, ml, axis, levels,
                                  point)):
        monkeypatch.setattr(mc, name, fn)
    for scheme in (mc.SSK_NOMA, mc.NOMA_BASELINE):
        cfg = mc.make_config(scheme=scheme, n_users=4, n_r=2, snr_grid_db=[-30.0, 20.0])
        list(mc._ber_trials(cfg, cfg.snr_grid_db, 0))
    assert set(seen) == set(wrapped)


# --- complexity accounting ---------------------------------------------------

REFERENCE_COUNTS = {
    (3, 2, 2): (72, 108),
    (3, 4, 4): (312, 408),
    (4, 2, 2): (140, 184),
    (4, 4, 4): (760, 688),
    (5, 2, 2): (240, 280),
    (5, 4, 4): (2000, 1040),
}


@pytest.mark.parametrize("key,want", sorted(REFERENCE_COUNTS.items()))
def test_published_operation_counts(key, want):
    n_users, m, n_r = key
    assert complexity_ssk_noma(n_users, m, m, n_r) == want[0]
    assert complexity_noma(n_users, m, n_r) == want[1]


def test_two_user_edge_has_no_sic_term():
    # one ML detection plus the joint search, nothing to cancel
    assert complexity_ssk_noma(2, 4, 2, 2) == (2 * 2 * 2 + 2 * 4 + 4) + 4 * 2 * 4

