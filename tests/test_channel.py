"""Channel and RNG tests: stream keying, fading statistics, the MRC
statistics the engines draw."""

import warnings

import numpy as np
import pytest

from ssknoma import montecarlo as mc
from ssknoma.channel import (
    complex_normal,
    erlang,
    rng_stream,
)
from ssknoma.analytics import chi2_cdf
from ssknoma.constellation import qpsk
from scipy.special import erfc
from scipy.stats import gamma, kstest


def test_rng_stream_reproducible():
    a = rng_stream(7, 1, 2).standard_normal(16)
    b = rng_stream(7, 1, 2).standard_normal(16)
    assert np.array_equal(a, b)


def test_rng_stream_keys_separate():
    a = rng_stream(7, 1, 2).standard_normal(16)
    b = rng_stream(7, 1, 3).standard_normal(16)
    c = rng_stream(8, 1, 2).standard_normal(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_complex_normal_moments():
    rng = rng_stream(0, 9)
    x = complex_normal(rng, 200_000, 3.0)
    assert np.mean(np.abs(x) ** 2) == pytest.approx(3.0, rel=0.02)
    assert abs(np.mean(x)) < 0.02
    # real and imaginary parts carry equal halves of the power
    assert np.var(x.real) == pytest.approx(1.5, rel=0.03)


def test_complex_normal_zero_variance():
    x = complex_normal(rng_stream(0, 1), (3, 2), 0.0)
    assert not x.any()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_erlang_law_ks(k):
    """Product-of-uniforms Gamma(k) draws against scipy's Gamma(k) CDF, by a
    one-sample KS test on 10^5 draws of a vector and 10^5 of a (B, N_t)
    array."""
    n = 100_000
    assert kstest(erlang(rng_stream(46, k), k, n), gamma(k).cdf).pvalue > 1e-3
    x = erlang(rng_stream(46, k, 1), k, (n // 4, 4))
    assert x.shape == (n // 4, 4)
    assert kstest(x.ravel(), gamma(k).cdf).pvalue > 1e-3


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_erlang_uses_k_uniforms_per_draw(k):
    """A call for n draws uses exactly k n uniforms: each draw is -ln of the
    product of 1 - U down one column of the first k n uniforms taken as a
    (k, n) batch, and the stream's next draw is the (k n + 1)-th uniform."""
    n = 1000
    rng = rng_stream(47, k)
    x = erlang(rng, k, n)
    u = rng_stream(47, k).random(k * n + 1)
    factors = 1.0 - u[:-1].reshape(k, n)
    product = factors[0]
    for row in factors[1:]:
        product = product * row
    assert np.array_equal(x, -np.log(product))
    assert rng.random() == u[-1]


@pytest.mark.parametrize("k", [5, 6, 9])
def test_erlang_takes_numpys_sampler_above_shape_4(k):
    """From shape 5 on, the draws and the stream after them are numpy's
    ``standard_gamma``'s, bit for bit."""
    rng, ref = rng_stream(48, k), rng_stream(48, k)
    assert np.array_equal(erlang(rng, k, (100, 3)), ref.standard_gamma(k, (100, 3)))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_mrc_snr_distribution_ks(n_r, monkeypatch):
    """Empirical CDF of the MRC output SNR draws the rate and outage engines
    make, per user, against the closed-form CDF."""
    n = 50_000
    monkeypatch.setattr(mc, "_BLOCK_SIZE", n)
    cfg = mc.make_config(mc.SSK_NOMA, 3, n_r, [10.0], seed=42, n_t=2)
    ecdf = (np.arange(n) + 0.5) / n
    # the 10 dB point scales each user's 0 dB draws by rho = 10
    for var, draws in zip(cfg.fading, mc._gamma_draws(cfg, "rate", 0)):
        model = chi2_cdf(np.sort(10.0 * draws), n_r, 10.0 * var)
        # 1% critical value is about 1.63/sqrt(n); allow headroom for the seed
        assert np.max(np.abs(ecdf - model)) < 2.0 / np.sqrt(n)


def test_zero_variance_user_draws_exact_zero_snr():
    cfg = mc.make_config(mc.SSK_NOMA, 3, 2, [10.0], seed=42, fading=(0.0, 2.0, 4.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = mc._gamma_draws(cfg, "outage", 0)
    assert np.array_equal(draws[0], np.zeros(mc._BLOCK_SIZE))
    assert np.all(draws[1] > 0.0)


@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_ber_mrc_statistic_law_ks(n_r):
    """A genie user's MRC statistics as the BER engine draws them, the
    unit-variance draw scaled to var = 2 by ``_user_statistics``: g / var
    against the chi-square CDF with N_r complex branches, and the
    normalised noise term w / sqrt(g) of y = sqrt(P) g chi + w, per axis,
    against N(0, 1/2), read off the engine's per-unit-gain noise w / g."""
    n = 50_000
    var = 2.0
    g, e = mc._user_statistics(*mc._mrc_statistic(rng_stream(43, n_r, 1), n_r, n), var)
    ecdf = (np.arange(n) + 0.5) / n
    assert np.max(np.abs(ecdf - chi2_cdf(np.sort(g / var), n_r, 1.0))) < 2.0 / np.sqrt(n)
    assert e.shape == (2, n)
    for part in e * np.sqrt(g):
        # CDF of N(0, 1/2) is erfc(-x) / 2
        assert np.max(np.abs(ecdf - 0.5 * erfc(-np.sort(part)))) < 2.0 / np.sqrt(n)


def _ks_2samp(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical CDFs of ``a`` and ``b``."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    return np.max(np.abs(np.searchsorted(a, x, side="right") / a.size
                         - np.searchsorted(b, x, side="right") / b.size))


@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_sm_statistics_law_ks(n_r):
    """The cell-edge search's statistics as the BER engine draws them
    (N_t = 2, 3 dB), the active antenna's from the unit-variance MRC
    statistics scaled to the user's variance, against those of a brute-force
    draw of the channel matrix and noise with antenna 0 active: the active
    antenna's (row 0) g_v = ||h_v||^2, h_v^H r per axis and ||r||^2, the
    inactive antenna's (row 1) h_t^H r per axis and ||h_t||^2, and for
    N_r > 1 each row's energy of r outside h_t's span. The engine
    yields h_t^H r / (sqrt(P) ||h_t||^2), so h_t^H r is rebuilt from it, and
    ||r|| is read off the inactive statistic, h_t^H r = ||r|| c_t, by
    replaying the draws up to c: the unit MRC statistics' N_r * n uniforms
    and n complex normals, the (N_r - 1) * n uniforms of the noise energy,
    then c, one row of n complex normals."""
    n = 50_000
    var, sqrt_p = 2.0, np.sqrt(2.0)
    chi = qpsk().points[rng_stream(44, n_r, 0).integers(0, 4, n)]
    rng = rng_stream(44, n_r, 1)
    g_v, e_v = mc._user_statistics(*mc._mrc_statistic(rng, n_r, n), var)
    [(z, g, orth, dead)] = mc._sm_statistics(rng, g_v, e_v, var, 2, n_r,
                                             np.stack([chi.real, chi.imag]), [sqrt_p])
    assert dead is None and z.shape == (2, 2, n) and g.shape == (2, n)
    assert z.dtype == g.dtype == mc._RX
    z, g = z.astype(float), g.astype(float)
    y = (z[0] + 1j * z[1]) * sqrt_p * g
    replay = rng_stream(44, n_r, 1)
    replay.random(n_r * n)
    complex_normal(replay, n, 1.0)
    replay.random((n_r - 1) * n)
    [c] = complex_normal(replay, (1, n), var)
    r_sq = np.abs(y[1]) ** 2 / np.abs(c) ** 2

    rng = rng_stream(45, n_r)
    h = complex_normal(rng, (n, 2, n_r), var)
    r = sqrt_p * h[:, 0] * chi[:, None] + complex_normal(rng, (n, n_r), 1.0)
    inner = np.einsum("btr,br->bt", np.conj(h), r)
    energy = np.sum(np.abs(h) ** 2, axis=2)
    pairs = {
        "g_v": (g[0], energy[:, 0]),
        "Re y_v": (y[0].real, inner[:, 0].real),
        "Im y_v": (y[0].imag, inner[:, 0].imag),
        "||r||^2": (r_sq, np.sum(np.abs(r) ** 2, axis=1)),
        "Re y_t": (y[1].real, inner[:, 1].real),
        "Im y_t": (y[1].imag, inner[:, 1].imag),
        "g_t": (g[1], energy[:, 1]),
    }
    if n_r > 1:
        # ||r||^2 outside h_v's and h_t's span; every such energy is 0 at N_r = 1
        outside = np.sum(np.abs(r) ** 2, axis=1)[:, None] - np.abs(inner) ** 2 / energy
        pairs["||r_perp,v||^2"] = (orth[0] * sqrt_p ** 2, outside[:, 0])
        pairs["||r_perp,t||^2"] = (orth[1] * sqrt_p ** 2, outside[:, 1])
    else:
        assert orth == 0.0
    # 1% critical value is about 1.63 sqrt(2/n); allow headroom for the seed
    for name, (drawn, brute) in pairs.items():
        assert _ks_2samp(drawn, brute) < 2.0 * np.sqrt(2.0 / n), name
