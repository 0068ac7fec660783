"""Receiver tests: the batched detectors the trial engine runs, against
brute-force oracles, plus the receiver-complexity operation counts."""

import warnings

import numpy as np
import pytest

from ssknoma import montecarlo as mc
from ssknoma.channel import complex_normal, rng_stream
from ssknoma.constellation import (
    PowerAllocation,
    enumerate_sc_alphabet,
    make_constellation,
    qpsk,
)
from ssknoma.detectors import (
    complexity_noma,
    complexity_report,
    complexity_ssk_noma,
    op_counts,
)
from ssknoma.errors import InputError
from ssknoma.montecarlo import (
    _ml_detect_block,
    _sic_detect_block,
    _sm_detect_block,
    _sm_grid,
)

PA3 = PowerAllocation((0.8, 0.2))
ALPHABET3 = enumerate_sc_alphabet([qpsk(), qpsk()], PA3)
GRID3 = _sm_grid(ALPHABET3.values)
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
    return enumerate_sc_alphabet([make_constellation(m) for m in orders],
                                 PowerAllocation(pa)).values


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


def _h_norm(h):
    return np.sum(np.abs(h) ** 2, axis=1)


@pytest.mark.parametrize("trial", range(20))
def test_detect_sm_matches_brute_force(trial):
    rng = rng_stream(100, trial)
    power = 10.0
    h = complex_normal(rng, (BATCH, 4, 2), 1.0)
    r = complex_normal(rng, (BATCH, 2), 3.0)
    v_hat, k_hat = _sm_detect_block(r, h, np.sqrt(power), ALPHABET3.values, GRID3)
    for b in range(BATCH):
        assert (v_hat[b], k_hat[b]) == _brute_force_sm(r[b], h[b], ALPHABET3.values, power)


def test_detect_sm_noiseless_recovers_truth():
    """Every (antenna, composite symbol) hypothesis, one per batch row."""
    rng = rng_stream(3, 0)
    power = 25.0
    h = complex_normal(rng, (2, 4), 1.0)
    v, k = np.divmod(np.arange(2 * ALPHABET3.size), ALPHABET3.size)
    r = np.sqrt(power) * h[v] * ALPHABET3.values[k][:, None]
    h_batch = np.broadcast_to(h, (v.size, 2, 4))
    v_hat, k_hat = _sm_detect_block(r, h_batch, np.sqrt(power), ALPHABET3.values, GRID3)
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
    v_hat, k_hat = _sm_detect_block(r, h_batch, np.sqrt(power), chis, _sm_grid(chis))
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
        v_fast, k_fast = _sm_detect_block(r, h, sqrt_p, chis, grid)
        v_brute, k_brute = _sm_detect_block(r, h, sqrt_p, chis, None)
        assert np.array_equal(v_fast, v_brute) and np.array_equal(k_fast, k_brute), snr_db


def test_nearest_point_breaks_ties_like_brute_force():
    """Two 16-QAM users at (0.8, 0.2): sqrt(0.8) = 2 sqrt(0.2), so the 256
    composite symbols hold 100 distinct points. Equal points score equal
    metrics, so both searches must pick the first alphabet index."""
    chis = enumerate_sc_alphabet([make_constellation(16)] * 2, PA3).values
    grid = _sm_grid(chis)
    assert np.unique(chis).size == 100 and grid.index.shape == (10, 10)
    rng = rng_stream(700, 0)
    b, sqrt_p = 20_000, np.sqrt(100.0)
    h = complex_normal(rng, (b, 4, 2), 1.0)
    v = rng.integers(0, 4, b)
    k = rng.integers(0, chis.size, b)
    clean = sqrt_p * h[np.arange(b), v] * chis[k][:, None]
    first = np.array([np.flatnonzero(chis == chi)[0] for chi in chis])
    v_hat, k_hat = _sm_detect_block(clean, h, sqrt_p, chis, grid)
    assert np.array_equal(v_hat, v) and np.array_equal(k_hat, first[k])
    r = clean + complex_normal(rng, (b, 2), 1.0)
    v_fast, k_fast = _sm_detect_block(r, h, sqrt_p, chis, grid)
    v_brute, k_brute = _sm_detect_block(r, h, sqrt_p, chis, None)
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
        v_hat, k_hat = _sm_detect_block(r, h, np.sqrt(10.0), chis,
                                        _sm_grid(chis) if grid else None)
    assert not v_hat.any() and not k_hat.any()


def test_zero_fading_cell_edge_user_runs_a_block():
    cfg = mc.make_config(scheme=mc.SSK_NOMA, n_users=3, n_r=2, snr_grid_db=[10.0],
                         seed=4, fading=(0.0, 2.0, 4.0), block_size=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errors, bits = mc._ber_block(cfg, mc._tables(cfg), 10.0, 0)
    # antenna 0 is always decided, so exactly the trials sent on antenna 1 err
    rng = rng_stream(cfg.seed, mc._METRIC_CODE["ber"], mc._snr_key(10.0), 0)
    assert errors[0] == np.count_nonzero(rng.integers(0, cfg.n_t, cfg.block_size))
    assert bits[0] == cfg.block_size


def test_non_cartesian_alphabet_falls_back_to_chunked_brute_force(monkeypatch):
    """8-PSK users: no nearest-point grid, so every pair is scored in chunks
    of trials; a batch that is not a multiple of the chunk loses no row."""
    chis = enumerate_sc_alphabet([make_constellation(8)] * 2, PA3).values
    assert _sm_grid(chis) is None
    monkeypatch.setattr(mc, "_SM_CHUNK_ENTRIES", 1000)  # 3 trials per chunk
    rng = rng_stream(600, 0)
    power = 30.0
    h = complex_normal(rng, (100, 4, 2), 1.0)
    v = rng.integers(0, 4, 100)
    k = rng.integers(0, chis.size, 100)
    r = np.sqrt(power) * h[np.arange(100), v] * chis[k][:, None]
    r = r + complex_normal(rng, (100, 2), 1.0)
    v_hat, k_hat = _sm_detect_block(r, h, np.sqrt(power), chis, None)
    for b in range(100):
        assert (v_hat[b], k_hat[b]) == _brute_force_sm(r[b], h[b], chis, power)


@pytest.mark.parametrize("trial", range(20))
def test_detect_u2_matches_brute_force(trial):
    """ML detection of the strongest NOMA user, weaker users as noise."""
    rng = rng_stream(200, trial)
    h = complex_normal(rng, (BATCH, 2), 2.0)
    r = complex_normal(rng, (BATCH, 2), 4.0)
    amp = np.sqrt(0.8 * 5.0)
    got = _ml_detect_block(r, h, _h_norm(h), amp, qpsk().points)
    for b in range(BATCH):
        assert got[b] == _brute_force_ml(r[b], h[b], amp, qpsk().points)


def _check_sic_against_brute_force(rng, coefficients, power):
    points = [qpsk().points] * len(coefficients)
    amps = [np.sqrt(a * power) for a in coefficients]
    h = complex_normal(rng, (BATCH, 2), 4.0)
    r = complex_normal(rng, (BATCH, 2), 6.0)
    decisions, resid = _sic_detect_block(r, h, amps, points)
    assert len(decisions) == len(coefficients)
    for b in range(BATCH):
        want, want_resid = _brute_force_sic(r[b], h[b], amps, points)
        assert [int(d[b]) for d in decisions] == want
        assert np.allclose(resid[b], want_resid)


@pytest.mark.parametrize("trial", range(10))
def test_sic_chain_matches_stagewise_brute_force(trial):
    """SSK-NOMA chain of user 4: stages for users 2, 3 and 4."""
    _check_sic_against_brute_force(rng_stream(300, trial), (0.7, 0.2, 0.1), 12.0)


@pytest.mark.parametrize("trial", range(10))
def test_noma_baseline_matches_stagewise_brute_force(trial):
    """Baseline chain of user 3: stages for users 1, 2 and 3."""
    _check_sic_against_brute_force(rng_stream(400, trial), (0.6, 0.25, 0.15), 8.0)


def test_sic_chain_residual_cancels_known_symbol():
    """Noise-free, the first decision is exact and the residual is exactly the
    received vector minus the strongest user's contribution."""
    rng = rng_stream(301, 0)
    power = 100.0
    s2, s3 = qpsk().points[1], qpsk().points[2]
    h = complex_normal(rng, (1, 2), 1.0)
    r = np.sqrt(power) * h * (np.sqrt(0.8) * s2 + np.sqrt(0.2) * s3)
    amps = [np.sqrt(0.8 * power), np.sqrt(0.2 * power)]
    decisions, resid = _sic_detect_block(r, h, amps, [qpsk().points] * 2)
    assert np.allclose(resid, np.sqrt(power) * h * np.sqrt(0.2) * s3, atol=1e-12)
    assert [int(d[0]) for d in decisions] == [1, 2]


@pytest.mark.parametrize("scheme", [mc.SSK_NOMA, mc.NOMA_BASELINE])
def test_ber_block_matches_brute_force_chain(scheme):
    """The engine's bit-error counts equal a per-trial brute-force receiver
    fed with the same draws, in the engine's order: antenna index, symbols,
    then channel and noise of each user from user 1 up."""
    cfg = mc.make_config(scheme=scheme, n_users=3, n_r=2, snr_grid_db=[6.0],
                         seed=8, block_size=40)
    errors, bits = mc._ber_block(cfg, mc._tables(cfg), 6.0, 2)
    rng = rng_stream(cfg.seed, mc._METRIC_CODE["ber"], mc._snr_key(6.0), 2)
    b, power, first = cfg.block_size, 10.0 ** 0.6, cfg.first_power_user
    consts = cfg.constellations()
    chis = cfg.sc_alphabet().values
    points = [c.points for c in consts]
    amps = [np.sqrt(a * power) for a in cfg.pa.coefficients]
    v = rng.integers(0, cfg.n_t, b) if first > 1 else np.zeros(b, dtype=int)
    ks = [rng.integers(0, c.order, b) for c in consts]
    chi = sum(np.sqrt(a) * p[k] for a, p, k in zip(cfg.pa.coefficients, points, ks))
    want = np.zeros(cfg.n_users)
    for i in range(1, cfg.n_users + 1):
        var = cfg.fading.variances[i - 1]
        shape = (b, cfg.n_t, cfg.n_r) if i < first else (b, cfg.n_r)
        h = complex_normal(rng, shape, var)
        h_tx = h[np.arange(b), v] if i < first else h
        r = np.sqrt(power) * h_tx * chi[:, None] + complex_normal(rng, (b, cfg.n_r), 1.0)
        for t in range(b):
            if i < first:
                v_hat, _ = _brute_force_sm(r[t], h[t], chis, power)
                want[0] += bin(int(v[t]) ^ v_hat).count("1")
                continue
            k = i - first
            dec, _ = _brute_force_sic(r[t], h[t], amps[:k + 1], points[:k + 1])
            want[i - 1] += consts[k].bit_distance_table()[ks[k][t], dec[-1]]
    assert np.array_equal(errors, want)
    # one antenna bit for user 1 of SSK-NOMA, two bits per QPSK symbol
    assert list(bits) == [b] * (first - 1) + [2 * b] * (cfg.n_users + 1 - first)


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


def test_op_counts():
    assert op_counts(3) == (2, 1, 3, 3)
    assert op_counts(2) == (1, 0, 2, 1)
    with pytest.raises(InputError):
        op_counts(1)


def test_two_user_edge_has_no_sic_term():
    # one ML detection plus the joint search, nothing to cancel
    assert complexity_ssk_noma(2, 4, 2, 2) == (2 * 2 * 2 + 2 * 4 + 4) + 4 * 2 * 4


def test_mixed_modulation_orders():
    assert complexity_ssk_noma(3, [2, 4], 2, 2) == complexity_ssk_noma(
        3, [2, 4], 2, 2
    )
    with pytest.raises(InputError):
        complexity_ssk_noma(3, [4], 2, 2)
    with pytest.raises(InputError):
        complexity_noma(3, [4, 4], 2)


def test_complexity_report_fields():
    rep = complexity_report(4, 4, 4, 4)
    assert (rep.delta_ssk_noma, rep.delta_noma) == (760, 688)
    assert (rep.n_ml, rep.n_sic) == (3, 3)
