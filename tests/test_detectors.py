"""Receiver tests: the batched detectors the trial engine runs, against
brute-force oracles, plus the receiver-complexity operation counts."""

import numpy as np
import pytest

from ssknoma import montecarlo as mc
from ssknoma.channel import complex_normal, rng_stream
from ssknoma.constellation import PowerAllocation, enumerate_sc_alphabet, qpsk
from ssknoma.detectors import (
    complexity_noma,
    complexity_report,
    complexity_ssk_noma,
    op_counts,
)
from ssknoma.errors import InputError
from ssknoma.montecarlo import _ml_detect_block, _sic_detect_block, _sm_detect_block

PA3 = PowerAllocation((0.8, 0.2))
ALPHABET3 = enumerate_sc_alphabet([qpsk(), qpsk()], PA3)
BATCH = 5


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
    v_hat, k_hat = _sm_detect_block(r, h, np.sqrt(power), ALPHABET3.values)
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
    v_hat, k_hat = _sm_detect_block(r, h_batch, np.sqrt(power), ALPHABET3.values)
    assert np.array_equal(v_hat, v) and np.array_equal(k_hat, k)


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
