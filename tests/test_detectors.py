"""Receiver tests: the batched detectors the trial engine runs, against
brute-force oracles, plus the receiver-complexity operation counts."""

import argparse
import importlib.resources
import json
import warnings

import numpy as np
import pytest

from ssknoma import cli
from ssknoma import montecarlo as mc
from ssknoma.channel import complex_normal, rng_stream
from ssknoma.constellation import enumerate_sc_alphabet, make_constellation, qpsk
from ssknoma.detectors import complexity_noma, complexity_ssk_noma
from ssknoma.montecarlo import (
    _levels,
    _ml_detect_block,
    _nearest_point,
    _sic_detect_block,
    _sm_detect_block,
    _sm_grid,
)

PA3 = (0.8, 0.2)
ALPHABET3 = enumerate_sc_alphabet([qpsk(), qpsk()], PA3)
LEVELS3 = _levels(ALPHABET3)
GRID3 = _sm_grid(ALPHABET3)
QPSK_LEVELS = _levels(qpsk().points)
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
    ||h_t||^2, (N_t, B), and the mask of their zeros."""
    g = np.ascontiguousarray(np.sum(np.abs(h) ** 2, axis=2).T)
    z, dead = _unit(np.einsum("btr,br->tb", np.conj(h), r) / sqrt_p, g)
    return z, g, dead


def _joint_decisions(z, g, dead, levels, grid):
    """The joint search's decided row per trial (``_sm_detect_block``) and
    that row's composite symbol, read from the row's own ML decision."""
    row = _sm_detect_block(z, g, dead, levels, grid)
    cols = np.arange(row.size)
    k = _ml_detect_block(z[:, row, cols], None if dead is None else dead[row, cols], 1.0,
                         levels, grid)
    return row, k


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
    v_hat, k_hat = _joint_decisions(*_antenna_statistics(r, h, np.sqrt(power)), LEVELS3, GRID3)
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
    v_hat, k_hat = _joint_decisions(*_antenna_statistics(r, h_batch, np.sqrt(power)), LEVELS3,
                                    GRID3)
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
                                    _levels(chis), _sm_grid(chis))
    assert np.array_equal(v_hat, v) and np.array_equal(k_hat, k)


@pytest.mark.parametrize("n_t", [2, 4, 8])
@pytest.mark.parametrize("name", sorted(SM_ALPHABETS))
def test_nearest_point_search_equals_brute_force(name, n_t):
    """The nearest-point search makes the brute-force search's decisions on
    70 000 seeded trials per case, 1.05e6 over the 15 cases."""
    chis = _alphabet(name)
    grid = _sm_grid(chis)
    assert grid is not None
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
        v_fast, k_fast = _joint_decisions(*stats, _levels(chis), grid)
        v_brute, k_brute = _joint_decisions(*stats, _levels(chis), None)
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
    v_hat, k_hat = _joint_decisions(*_antenna_statistics(clean, h, sqrt_p), _levels(chis), grid)
    assert np.array_equal(v_hat, v) and np.array_equal(k_hat, first[k])
    r = clean + complex_normal(rng, (b, 2), 1.0)
    stats = _antenna_statistics(r, h, sqrt_p)
    v_fast, k_fast = _joint_decisions(*stats, _levels(chis), grid)
    v_brute, k_brute = _joint_decisions(*stats, _levels(chis), None)
    assert np.array_equal(v_fast, v_brute) and np.array_equal(k_fast, k_brute)


@pytest.mark.parametrize("grid", [True, False], ids=["nearest-point", "brute-force"])
def test_zero_channel_decides_first_pair_without_warning(grid):
    """A fading variance of 0 scores every hypothesis 0, so the first
    (antenna, symbol) pair wins, as in the brute-force search."""
    chis = _alphabet("L4-qpsk")
    rng = rng_stream(7, 0)
    h = complex_normal(rng, (BATCH, 4, 2), 0.0)
    r = complex_normal(rng, (BATCH, 2), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v_hat, k_hat = _joint_decisions(*_antenna_statistics(r, h, np.sqrt(10.0)),
                                        _levels(chis), _sm_grid(chis) if grid else None)
    assert not v_hat.any() and not k_hat.any()


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


def test_non_cartesian_alphabet_falls_back_to_chunked_brute_force(monkeypatch):
    """8-PSK users: no nearest-point grid, so the joint search and an 8-PSK
    SIC stage both take the metric scan of ``_ml_detect_block``, in chunks
    of rows; a batch that is not a multiple of the chunk loses no row."""
    chis = enumerate_sc_alphabet([make_constellation(8)] * 2, PA3)
    assert _sm_grid(chis) is None
    monkeypatch.setattr(mc, "_SM_CHUNK_ENTRIES", 1000)  # 3 trials per chunk
    rng = rng_stream(600, 0)
    power = 30.0
    h = complex_normal(rng, (100, 4, 2), 1.0)
    v = rng.integers(0, 4, 100)
    k = rng.integers(0, chis.size, 100)
    r = np.sqrt(power) * h[np.arange(100), v] * chis[k][:, None]
    r = r + complex_normal(rng, (100, 2), 1.0)
    v_hat, k_hat = _joint_decisions(*_antenna_statistics(r, h, np.sqrt(power)), _levels(chis),
                                    None)
    for b in range(100):
        assert (v_hat[b], k_hat[b]) == _brute_force_sm(r[b], h[b], chis, power)
    # an 8-PSK stage then a QPSK stage, 3 trials per chunk of the scan
    monkeypatch.setattr(mc, "_SM_CHUNK_ENTRIES", 24)
    points = [make_constellation(8).points, qpsk().points]
    amps = [np.sqrt(0.8 * power), np.sqrt(0.2 * power)]
    hu = complex_normal(rng, (100, 2), 2.0)
    ks = [rng.integers(0, p.size, 100) for p in points]
    ru = hu * sum(a * p[k] for a, p, k in zip(amps, points, ks))[:, None]
    ru = ru + complex_normal(rng, (100, 2), 1.0)
    decisions, _ = _sic_detect_block(*_mrc(ru, hu), amps, [_levels(p) for p in points])
    for b in range(100):
        want, _ = _brute_force_sic(ru[b], hu[b], amps, points)
        assert [int(d[b]) for d in decisions] == want


@pytest.mark.parametrize("trial", range(20))
def test_detect_u2_matches_brute_force(trial):
    """ML detection of the strongest NOMA user, weaker users as noise, from
    the MRC statistics, against the vector ML decision."""
    rng = rng_stream(200, trial)
    h = complex_normal(rng, (BATCH, 2), 2.0)
    r = complex_normal(rng, (BATCH, 2), 4.0)
    amp = np.sqrt(0.8 * 5.0)
    got = _ml_detect_block(*_mrc(r, h), amp, QPSK_LEVELS)
    for b in range(BATCH):
        assert got[b] == _brute_force_ml(r[b], h[b], amp, qpsk().points)


def _check_sic_against_brute_force(rng, coefficients, power):
    points = [qpsk().points] * len(coefficients)
    amps = [np.sqrt(a * power) for a in coefficients]
    h = complex_normal(rng, (BATCH, 2), 4.0)
    r = complex_normal(rng, (BATCH, 2), 6.0)
    decisions, resid = _sic_detect_block(*_mrc(r, h), amps, [QPSK_LEVELS] * len(amps))
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
    decisions, resid = _sic_detect_block(*_mrc(r, h), amps, [QPSK_LEVELS] * 2)
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
            got, _ = _sic_detect_block(*_mrc(r, h), amps, [QPSK_LEVELS] * len(pa))
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
        decisions, _ = _sic_detect_block(u, mc._dead(g), [np.sqrt(8.0), np.sqrt(2.0)],
                                         [QPSK_LEVELS] * 2)
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
    """(u, dead, amps, levels, grids) of a SIC chain of ``order``-point users
    at allocation ``pa``: the receiver inputs of MRC statistics of N_r = 2
    branches, a tenth of the trials with a zero channel."""
    const = make_constellation(order)
    power = 10.0 ** (snr_db / 10.0)
    chi = sum(np.sqrt(a) * const.points[rng.integers(0, order, b)] for a in pa)
    g = rng.standard_gamma(2.0, b)
    g[rng.random(b) < 0.1] = 0.0
    y = np.sqrt(power) * g * chi
    if noise:
        y = y + np.sqrt(g) * complex_normal(rng, b, 1.0)
    amps = [np.sqrt(a * power) for a in pa]
    return (*_unit(y, g), amps, [_levels(const.points)] * len(pa),
            [_sm_grid(const.points)] * len(pa))


@pytest.mark.parametrize("name", sorted(GRID_ORDERS))
def test_grid_ml_stage_equals_scan(name):
    """One stage and a three-stage SIC chain decide as the metric scan on
    20 000 seeded trials per SNR from 0 to 40 dB and noise-free, with zero
    channels among them and no RuntimeWarning."""
    order = GRID_ORDERS[name]
    assert _sm_grid(make_constellation(order).points) is not None
    cases = [(snr_db, True) for snr_db in (0.0, 10.0, 20.0, 30.0, 40.0)] + [(20.0, False)]
    for snr_db, noise in cases:
        rng = rng_stream(900, order, int(snr_db), noise)
        u, dead, amps, levels, grids = _chain_draws(rng, order, (0.7, 0.2, 0.1), snr_db,
                                                    20_000, noise)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one_grid = _ml_detect_block(u, dead, amps[0], levels[0], grids[0])
            chain_grid, resid_grid = _sic_detect_block(u, dead, amps, levels, grids)
        assert np.array_equal(one_grid, _ml_detect_block(u, dead, amps[0], levels[0]))
        chain_scan, resid_scan = _sic_detect_block(u, dead, amps, levels)
        for stage, (got, want) in enumerate(zip(chain_grid, chain_scan)):
            assert np.array_equal(got, want), (snr_db, noise, stage)
        assert np.array_equal(resid_grid, resid_scan)
        assert dead.any() and not np.any(one_grid[dead])


@pytest.mark.parametrize("trial", range(10))
def test_grid_sic_chain_matches_stagewise_brute_force(trial):
    """The engine's grid path of the SSK-NOMA chain of user 4 against the
    per-trial vector ML chain."""
    rng = rng_stream(310, trial)
    points = [qpsk().points] * 3
    amps = [np.sqrt(a * 12.0) for a in (0.7, 0.2, 0.1)]
    h = complex_normal(rng, (BATCH, 2), 4.0)
    r = complex_normal(rng, (BATCH, 2), 6.0)
    decisions, _ = _sic_detect_block(*_mrc(r, h), amps, [QPSK_LEVELS] * 3,
                                     [_sm_grid(qpsk().points)] * 3)
    for b in range(BATCH):
        want, _ = _brute_force_sic(r[b], h[b], amps, points)
        assert [int(d[b]) for d in decisions] == want


def test_grid_decides_the_lower_neighbour_on_a_midpoint():
    """A coordinate exactly on a midpoint takes the lower of its two
    neighbours on that axis (searchsorted's side="left"); the other axis
    decides as usual. For QPSK the midpoints are 0: z = 0.3j sits between
    points 1 (-1+1j)/sqrt(2) and 0 (1+1j)/sqrt(2), and the grid decides 1.
    Ties like this, and coordinates within rounding error of a midpoint, are
    the only inputs on which the grid and the scan can part; under noise
    they have probability 0."""
    points = qpsk().points
    grid = _sm_grid(points)
    z = np.array([0.3j, -0.3j, 0.3, -0.3, 0.0])
    assert list(_nearest_point(grid, z.real, z.imag, 1.0)) == [1, 2, 3, 2, 2]
    qam = make_constellation(16).points
    qam_grid = _sm_grid(qam)
    for mid in qam_grid.re_mid:
        k = _nearest_point(qam_grid, np.array([mid]), np.array([qam.imag.max()]), 1.0)[0]
        lower = np.max(qam.real[qam.real < mid])
        assert qam[k] == lower + 1j * qam.imag.max()
    # there the scan's metrics tie exactly and its first minimum, point 0,
    # wins; a coordinate just off the midpoint decides the nearer point on
    # both paths
    u = np.array([[0.0, 1e-9, -1e-9], [0.3, 0.3, 0.3]])
    assert list(_ml_detect_block(u, None, 1.0, QPSK_LEVELS, grid)) == [1, 0, 1]
    assert list(_ml_detect_block(u, None, 1.0, QPSK_LEVELS)) == [0, 0, 1]


def test_stage_input_on_a_scaled_midpoint_takes_the_lower_neighbour():
    """A stage compares its input with its grid's midpoints scaled by the
    stage amplitude, so an input exactly on a scaled midpoint takes the lower
    neighbour: at a 16-QAM stage of amplitude 2.5, and at the second stage of
    a QPSK chain whose first stage cancels exactly, leaving a real part of 0
    on that stage's midpoint."""
    qam = make_constellation(16).points
    grid, amp, top = _sm_grid(qam), 2.5, qam.imag.max()
    u = np.stack([amp * grid.re_mid, np.full(grid.re_mid.size, amp * top)])
    for mid, k in zip(grid.re_mid, _ml_detect_block(u, None, amp, _levels(qam), grid)):
        assert qam[k] == np.max(qam.real[qam.real < mid]) + 1j * top
    amps, first = [3.0, 1.5], qpsk().points[2]
    u = np.array([[amps[0] * first.real], [amps[0] * first.imag + 0.3 * amps[1]]])
    decisions, resid = _sic_detect_block(u, None, amps, [QPSK_LEVELS] * 2,
                                         [_sm_grid(qpsk().points)] * 2)
    assert decisions[0][0] == 2 and resid[0, 0] == 0.0 and resid[1, 0] > 0.0
    # between points 1 (-1+1j)/sqrt(2) and 0 (1+1j)/sqrt(2), the lower wins
    assert decisions[1][0] == 1


@pytest.mark.parametrize("n_t", [2, 4, 16, 4096])
def test_first_min_row_equals_argmin(n_t):
    """The joint search's row decision is ``argmin(axis=0)`` bit for bit,
    dtype included: on metrics of five values, so that most trials tie
    between rows, with signed zeros, trials of distinct normal metrics, and
    columns of zeros (trials whose every g_t is 0), which decide row 0."""
    rng = rng_stream(930, n_t)
    b = max(128, (1 << 16) // n_t)
    metric = rng.integers(-2, 3, (n_t, b)) / 2.0
    metric[rng.random((n_t, b)) < 0.1] = -0.0
    metric[:, ::3] = rng.standard_normal((n_t, metric[:, ::3].shape[1]))
    metric[:, 1::7] = 0.0
    # over a quarter of the trials tie at their least metric
    assert ((metric == metric.min(axis=0)).sum(axis=0) > 1).mean() > 0.25
    want = metric.argmin(axis=0)
    got = mc._first_min_row(metric)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert not got[1::7].any()


@pytest.mark.parametrize("grid", [True, False], ids=["nearest-point", "scan"])
def test_dead_rows_among_live_rows_decide_index_0(grid):
    """A block that mixes trials of channel energy 0 with live ones, its
    inputs formed as the engine forms them (``_unit_gain``, ``_dead``): every
    SIC stage and the joint search decide index 0 on the dead trials and
    decide the live ones as in a block of their own, without a
    RuntimeWarning."""
    rng = rng_stream(920, grid)
    b, power = 3000, 100.0
    pa = (0.7, 0.2, 0.1)
    amps = [np.sqrt(a * power) for a in pa]
    grids = [_sm_grid(qpsk().points) if grid else None] * 3
    chi = sum(np.sqrt(a) * qpsk().points[rng.integers(0, 4, b)] for a in pa)
    g = rng.standard_gamma(2.0, b)
    g[::3] = 0.0
    live = g > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e, dead = mc._unit_gain(complex_normal(rng, b, 1.0), np.sqrt(g)), mc._dead(g)
        u = np.sqrt(power) * np.stack([chi.real, chi.imag]) + e
        decisions, _ = _sic_detect_block(u, dead, amps, [QPSK_LEVELS] * 3, grids)
    assert np.array_equal(dead, ~live)
    alone, _ = _sic_detect_block(u[:, live], None, amps, [QPSK_LEVELS] * 3, grids)
    for got, want in zip(decisions, alone):
        assert not got[~live].any() and np.array_equal(got[live], want)

    chis = _alphabet("L4-qpsk")
    h = complex_normal(rng, (b, 4, 2), 1.0)
    h[~live] = 0.0
    r = np.sqrt(power) * h[:, 0] * chis[rng.integers(0, chis.size, b)][:, None]
    r = r + complex_normal(rng, (b, 2), 1.0)
    g = np.ascontiguousarray(np.sum(np.abs(h) ** 2, axis=2).T)
    y = np.einsum("btr,br->tb", np.conj(h), r)
    search_grid = _sm_grid(chis) if grid else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v_hat, k_hat = _joint_decisions(mc._unit_gain(y / np.sqrt(power), g), g, mc._dead(g),
                                        _levels(chis), search_grid)
    assert not v_hat[~live].any() and not k_hat[~live].any()
    v_alone, k_alone = _joint_decisions(*_antenna_statistics(r[live], h[live], np.sqrt(power)),
                                        _levels(chis), search_grid)
    assert np.array_equal(v_hat[live], v_alone) and np.array_equal(k_hat[live], k_alone)


def test_psk8_stage_has_no_grid_and_scans(monkeypatch):
    """An 8-PSK user has no nearest-point grid, so its stage takes the metric
    scan while the QPSK stage after it takes the grid."""
    cfg = mc.make_config(mc.SSK_NOMA, 3, 2, [10.0], seed=1, modulations=(8, 4))
    tables = cfg.tables
    assert tables.grids[0] is None and tables.grids[1] is not None
    assert tables.sm_grid is None
    grid_sizes = []

    def nearest(grid, *args):
        grid_sizes.append(grid.index.size)
        return _nearest_point(grid, *args)

    monkeypatch.setattr(mc, "_nearest_point", nearest)
    rng = rng_stream(910, 0)
    power = 10.0 ** 1.5
    amps = [np.sqrt(a * power) for a in cfg.pa]
    points = [c.points for c in tables.consts]
    chi = sum(np.sqrt(a) * p[rng.integers(0, p.size, 5000)]
              for a, p in zip(cfg.pa, points))
    g = rng.standard_gamma(2.0, 5000)
    y = np.sqrt(power) * g * chi + np.sqrt(g) * complex_normal(rng, 5000, 1.0)
    u, dead = _unit(y, g)
    got, _ = _sic_detect_block(u, dead, amps, tables.levels, tables.grids)
    assert grid_sizes == [4]
    want, _ = _sic_detect_block(u, dead, amps, tables.levels)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


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
    """No preset falls back to an O(M) scan: every power user's
    constellation and every composite alphabet has a nearest-point grid."""
    configs = list(_preset_configs())
    assert {name for name, _ in configs} >= {f"fig{n}.json" for n in range(2, 8)}
    for name, cfg in configs:
        tables = cfg.tables
        assert len(tables.grids) == len(cfg.modulations)
        assert all(grid is not None for grid in tables.grids), name
        assert (tables.sm_grid is not None) == (cfg.first_power_user > 1), name


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

