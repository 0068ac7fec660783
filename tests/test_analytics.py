"""Closed-form expression tests against independent quadrature and Monte
Carlo oracles."""

import functools
import itertools
import tracemalloc
import warnings
from math import gamma as gamma_fn
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from ssknoma import montecarlo as mc
from ssknoma.analytics import (
    BEP_CHUNK_ENTRIES,
    PairEnergyTable,
    abep_u1,
    abep_u2,
    abep_u3,
    chi2_cdf,
    conditional_bep_u1_vec,
    ergodic_capacity_noma_user,
    ergodic_capacity_u1,
    outage_noma_user,
    outage_threshold_psi,
    outage_threshold_u1,
    outage_u1,
    pair_energy_table,
    rayleigh_q_average,
    union_bound_ber,
    zeta_set,
)
from ssknoma.channel import rng_stream
from ssknoma.constellation import enumerate_sc_alphabet, make_constellation, qpsk
from ssknoma.errors import ConfigError, InputError

from oracles import (
    capacity_quad,
    chi2_pdf,
    conditional_bep_u2,
    conditional_bep_u3,
    dense_bep_u1,
    kept_level_bep_u1,
    level_cutoff,
    pair_energy_levels,
    psk,
    q_func,
)

PA2 = (0.8, 0.2)
ALPHABET3 = enumerate_sc_alphabet([qpsk(), qpsk()], PA2)
PAIRS3 = pair_energy_table(ALPHABET3, 4)


def _gamma_pdf(x, shape, scale):
    return x ** (shape - 1) * np.exp(-x / scale) / (gamma_fn(shape) * scale**shape)


# --- special functions --------------------------------------------------------


@pytest.mark.parametrize("x", np.linspace(0.0, 8.0, 17))
def test_q_func_against_quadrature(x):
    want, _ = integrate.quad(
        lambda t: np.exp(-t * t / 2.0) / np.sqrt(2.0 * np.pi),
        x, x + 12.0, epsabs=0.0, epsrel=1e-13,
    )
    assert q_func(x) == pytest.approx(want, rel=1e-9, abs=1e-18)


@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_chi2_pdf_integrates_to_cdf(n_r):
    gbar = 3.0
    for g in (0.5, 2.0, 10.0):
        want, _ = integrate.quad(lambda x: chi2_pdf(x, n_r, gbar), 0.0, g)
        assert chi2_cdf(g, n_r, gbar) == pytest.approx(want, abs=1e-10)


@pytest.mark.xfail(strict=True, reason=(
    "chi2_cdf computes 1 - e^-x sum_k x^k / k!, which cancels at small x = gamma / gamma_bar: "
    "at x = 1e-2 it is off by 3.6e-14 relative for N_r = 2, 1.2e-7 for N_r = 4 and 1.0 for "
    "N_r = 8. The mend moves fig6's power-user outage companions, which perfbench/reference "
    "pins at 1e-9, so it waits for a benchmark change that regenerates the reference."))
def test_chi2_cdf_matches_regularized_gamma_at_small_snr():
    """The CDF is the regularized lower incomplete gamma P(N_r, x)."""
    for n_r in (2, 4, 8):
        for x in (1e-3, 1e-2, 1e-1):
            want = special.gammainc(n_r, x)
            assert chi2_cdf(x, n_r, 1.0) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_chi2_rejects_negative():
    with pytest.raises(InputError):
        chi2_pdf(-1.0, 2, 1.0)
    with pytest.raises(InputError):
        chi2_cdf(-1.0, 2, 1.0)


@pytest.mark.parametrize("n_r", [1, 2, 3, 4])
@pytest.mark.parametrize("c_gbar", [0.1, 1.0, 10.0])
def test_rayleigh_q_average_against_quadrature(n_r, c_gbar):
    c, gbar = c_gbar, 2.5
    mu = np.sqrt(c * gbar / (2.0 + c * gbar))
    want, _ = integrate.quad(
        lambda g: q_func(np.sqrt(c * g)) * _gamma_pdf(g, n_r, gbar),
        0.0,
        np.inf,
        epsabs=0.0,
        epsrel=1e-12,
        limit=400,
    )
    assert rayleigh_q_average(mu, n_r) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_rayleigh_q_average_reflection(n_r):
    for xi in (0.1, 0.5, 0.9):
        f = rayleigh_q_average(xi, n_r)
        assert rayleigh_q_average(-xi, n_r) == pytest.approx(1.0 - f, abs=1e-12)


# --- exact three-user forms ---------------------------------------------------


def test_zeta_identities():
    z = zeta_set(0.8, 0.2)
    assert np.allclose(z, (0.2, 1.8, 0.2, 1.8, 5.0), atol=1e-12)


@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_abep_u2_matches_conditional_average(n_r):
    gbar = 12.0
    want, _ = integrate.quad(
        lambda g: conditional_bep_u2(g, 0.8, 0.2) * _gamma_pdf(g, n_r, gbar),
        0.0,
        np.inf,
        limit=400,
    )
    assert abep_u2(0.8, 0.2, gbar, n_r) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_abep_u3_matches_conditional_average(n_r):
    gbar = 12.0
    want, _ = integrate.quad(
        lambda g: conditional_bep_u3(g, 0.8, 0.2) * _gamma_pdf(g, n_r, gbar),
        0.0,
        np.inf,
        limit=400,
    )
    assert abep_u3(0.8, 0.2, gbar, n_r) == pytest.approx(want, rel=1e-8)


def test_abep_limits_at_vanishing_snr():
    assert abep_u2(0.8, 0.2, 1e-12, 2) == pytest.approx(0.5, abs=1e-6)
    assert abep_u3(0.8, 0.2, 1e-12, 2) == pytest.approx(0.5, abs=1e-6)


def test_abep_pa_validation():
    with pytest.raises(ConfigError):
        abep_u2(0.2, 0.8, 1.0, 2)
    with pytest.raises(ConfigError):
        abep_u3(0.6, 0.2, 1.0, 2)


def test_abep_u1_matches_conditional_average():
    rho, n_r = 10.0, 2
    curve = dense_bep_u1(ALPHABET3, 4)
    want, _ = integrate.quad(
        lambda g: curve(np.array([g]))[0] * _gamma_pdf(g, n_r, rho),
        0.0,
        np.inf,
        limit=400,
    )
    got = abep_u1(PAIRS3, n_r, rho, 1.0)
    assert got == pytest.approx(want, rel=1e-8)


def test_pair_energy_table_rejects_a_single_antenna():
    """One antenna carries no cell-edge user, so it has no pair table."""
    with pytest.raises(InputError):
        pair_energy_table(ALPHABET3, 1)


def _pair_loop_peps(alphabet, per_pair):
    """Mean of ``per_pair(|chi_k|^2 + |chi_hat|^2)`` over every ordered pair of
    composite symbols, one pair at a time."""
    total = 0.0
    for chi_k in alphabet:
        for chi_hat in alphabet:
            total += per_pair(abs(chi_k) ** 2 + abs(chi_hat) ** 2)
    return total / alphabet.size**2


def _abep_u1_oracle(alphabet, n_t, n_r, rho, sigma1_sq):
    def pep(energy):
        sigma_a_sq = rho * sigma1_sq * energy / 4.0
        return np.log2(alphabet.size) * rayleigh_q_average(
            np.sqrt(sigma_a_sq / (2.0 + sigma_a_sq)), n_r)

    return (n_t / 2.0) * _pair_loop_peps(alphabet, pep)


def _conditional_bep_u1_oracle(gamma, alphabet, n_t):
    mean_q = _pair_loop_peps(alphabet, lambda e: float(q_func(np.sqrt(gamma * e / 4.0))))
    return min(1.0, (n_t / 2.0) * np.log2(alphabet.size) * mean_q)


@pytest.mark.parametrize("n_users", [3, 4, 5])
def test_abep_u1_matches_pair_loop_oracle(n_users):
    pa = {3: (0.8, 0.2), 4: (0.7, 0.2, 0.1), 5: (0.6, 0.25, 0.1, 0.05)}[n_users]
    alphabet = enumerate_sc_alphabet([qpsk()] * len(pa), pa)
    for rho, n_r in ((10.0, 2), (1000.0, 4)):
        want = _abep_u1_oracle(alphabet, 4, n_r, rho, 1.0)
        got = abep_u1(pair_energy_table(alphabet, 4), n_r, rho, 1.0)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_conditional_bep_u1_vec_matches_scalar():
    """One call over several SNRs and one call per SNR against the pair-loop
    oracle, clamped at 1 for low SNR."""
    gammas = np.array([0.0, 0.3, 2.0, 40.0])
    vec = conditional_bep_u1_vec(gammas, PAIRS3)
    for g, v in zip(gammas, vec):
        want = _conditional_bep_u1_oracle(float(g), ALPHABET3, 4)
        assert v == pytest.approx(want, rel=1e-12, abs=0)
        one = conditional_bep_u1_vec(np.array([g]), PAIRS3)[0]
        assert one == pytest.approx(want, rel=1e-12, abs=0)


# the cell-edge BEP curve on these composite alphabets: (orders, PA)
BEP_CURVE_ALPHABETS = {
    "L3-qpsk": ((4, 4), (0.8, 0.2)),
    "L4-qpsk": ((4, 4, 4), (0.7, 0.2, 0.1)),
    "L5-qpsk": ((4, 4, 4, 4), (0.6, 0.25, 0.1, 0.05)),
    "qpsk-qam16": ((4, 16), (0.8, 0.2)),
}
# and the pair-energy table on these as well (M_T up to 1 024); orders 8 and
# 32 are M-PSK (``oracles.psk``), which the table takes like any constellation
PAIR_TABLE_ALPHABETS = {
    **BEP_CURVE_ALPHABETS,
    "qam64-qpsk": ((64, 4), (0.8, 0.2)),
    "psk8-bpsk": ((8, 2), (0.8, 0.2)),
    "psk32": ((32,), (1.0,)),
    "qam64-qam16": ((64, 16), (0.8, 0.2)),
}


def _sc_alphabet(orders, pa):
    return enumerate_sc_alphabet([psk(m) if m in (8, 32) else make_constellation(m)
                                  for m in orders], pa)


@pytest.mark.parametrize("name", sorted(PAIR_TABLE_ALPHABETS))
def test_pair_energy_table_matches_all_pairs(name):
    """The table built from the distinct symbol energies holds the levels of
    the all-pairs table bit for bit, and the same shares."""
    alphabet = _sc_alphabet(*PAIR_TABLE_ALPHABETS[name])
    levels, weights = pair_energy_levels(alphabet)
    table = pair_energy_table(alphabet, 4)
    assert [float(q).hex() for q in table.quarter] == [float(x / 4.0).hex() for x in levels]
    assert np.array_equal(table.weights, weights)
    assert table.bits == np.log2(alphabet.size)


def _curve_snrs(levels, n, rng, table=None):
    """``n`` SNRs, sorted ascending: 0; for each level, the SNRs where its erfc
    argument reaches 26, 26.5, 26.6, the true underflow limit sqrt(MAXLOG)
    and 26.65, and with ``table`` also where it crosses the table's level
    cutoff, and the table's clamp point gamma_sat if it is finite, each with
    its neighbours one ulp away; half of the rest within 1e-4 of the first
    five kinds of SNR of the two lowest and the highest level (so whole
    chunks straddle them), the other half spread from 0 to ~1e5."""
    limits = np.array([26.0, 26.5, 26.6, np.sqrt(np.log(np.finfo(float).max)), 26.65])
    edges = 8.0 * limits[:, None] ** 2 / levels
    crossings = []
    if table is not None:
        gap, cutoff = level_cutoff(table.quarter, table.weights)
        crossings = 2.0 * cutoff / gap[1:]
        if np.isfinite(table.saturation):
            crossings = np.append(crossings, table.saturation)
    marked = np.concatenate([[0.0], edges.ravel(), crossings])
    marked = np.concatenate([marked, np.nextafter(marked[1:], 0.0),
                             np.nextafter(marked[1:], np.inf)])
    near = (rng.choice(edges[:, [0, 1, -1]].ravel(), n)
            * (1.0 + 1e-4 * rng.uniform(-1.0, 1.0, n)))
    spread = 10.0 ** rng.uniform(-1.0, 4.0, n) * rng.standard_gamma(2.0, n)
    gammas = np.where(rng.random(n) < 0.5, near, spread)
    k = min(n, marked.size)
    gammas[rng.choice(n, k, replace=False)] = rng.choice(marked, k, replace=False)
    return np.sort(gammas)


def test_bep_curve_equals_per_row_oracle():
    """The chunked and run-walked curve equals, bit for bit, each SNR's sum
    over exactly the levels it keeps, clamped to 1: on mixes of SNRs, and on
    runs of SNRs above gamma_sat that keep every level, one SNR short of a
    chunk, one SNR past it, and 7 past two chunks."""
    rng = np.random.default_rng(2024)
    bad = []
    for (name, (orders, pa)), n_t in itertools.product(BEP_CURVE_ALPHABETS.items(), (2, 4)):
        alphabet = _sc_alphabet(orders, pa)
        table = pair_energy_table(alphabet, n_t)
        levels = pair_energy_levels(alphabet)[0]
        # SNRs per chunk where every level is kept, and where that is so
        rows = BEP_CHUNK_ENTRIES // table.quarter.size
        gap, cutoff = level_cutoff(table.quarter, table.weights)
        every_level = (table.saturation, 2.0 * cutoff / gap[-1])
        for n, run in itertools.chain(((n, False) for n in (0, 1, 2, 25_000)),
                                      ((n, True) for n in (rows - 1, rows + 1, 2 * rows + 7))):
            gammas = (np.sort(rng.uniform(*every_level, n)) if run
                      else _curve_snrs(levels, n, rng, table))
            want = np.minimum(kept_level_bep_u1(alphabet, n_t)(gammas), 1.0)
            if not np.array_equal(conditional_bep_u1_vec(gammas, table), want):
                bad.append((name, n_t, n, run))
    assert bad == []


def test_bep_curve_scratch_does_not_grow_with_levels():
    """The curve's scratch is bounded in erfc terms, not in SNRs: at 64 SNRs
    that keep all 200 000 levels of a synthetic table, one chunk of all 64
    would take 102 MB, where one SNR at a time takes 1.6 MB."""
    quarter = np.linspace(0.25, 2.0, 200_000)
    weights = np.full(quarter.size, 1.0 / quarter.size)
    # N_t log2 M_T = 2: the curve starts at 1/2, so no SNR is skipped
    table = PairEnergyTable(quarter, weights, 1.0, 2)
    gammas = np.sort(np.random.default_rng(5).uniform(0.1, 6.0, 64))
    gap, cutoff = level_cutoff(quarter, weights)
    assert np.all(gap[-1] <= 2.0 * cutoff / gammas)  # every level is kept
    conditional_bep_u1_vec(gammas[:1], table)  # one-time costs, gamma_sat among them
    assert table.saturation == -np.inf
    tracemalloc.start()
    try:
        vals = conditional_bep_u1_vec(gammas, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert np.all(vals > 0.0) and np.all(vals < 0.5)


@pytest.mark.parametrize("name", sorted(BEP_CURVE_ALPHABETS))
def test_bep_curve_is_within_2_to_the_minus_50_of_dense_formula(name):
    """Dropping the levels past the cutoff moves no value by more than a few
    ulps of the full dense sum, clamped, and leaves every zero a zero."""
    alphabet = _sc_alphabet(*BEP_CURVE_ALPHABETS[name])
    rng = np.random.default_rng(3)
    for n_t in (2, 4):
        table = pair_energy_table(alphabet, n_t)
        gammas = _curve_snrs(pair_energy_levels(alphabet)[0], 25_000, rng, table)
        got = conditional_bep_u1_vec(gammas, table)
        want = np.minimum(dense_bep_u1(alphabet, n_t)(gammas), 1.0)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.all(np.abs(got - want) <= 2.0**-50 * want)


def test_bep_curve_on_a_single_level_table():
    """One pair energy (32-PSK alone): nothing to drop, no warning, and the
    clamped dense formula's values at every SNR, 0 and 1e300 included."""
    alphabet = _sc_alphabet((32,), (1.0,))
    gammas = np.array([0.0, 1e-300, 0.3, 2.0, 40.0, 1e3, 1e300])
    for n_t in (4, 16):
        table = pair_energy_table(alphabet, n_t)
        assert table.quarter.size == 1 and level_cutoff(table.quarter, table.weights)[1] == 0.0
        want = np.minimum(dense_bep_u1(alphabet, n_t)(gammas), 1.0)
        assert np.array_equal(conditional_bep_u1_vec(gammas, table), want)
        singles = [conditional_bep_u1_vec(gammas[j:j + 1], table)[0]
                   for j in range(gammas.size)]
        assert np.array_equal(singles, want)


# composite alphabets whose curve starts at most at 1 at N_t = 2, so that
# gamma_sat = -inf and an SNR of 0 is summed: BPSK alone and QPSK alone
# (L = 2; one level, so 2T / gamma is 0 / 0 at gamma = 0), and two BPSK
# power users (three levels, so 2T / gamma is 2T / 0)
ZERO_SNR_ALPHABETS = {
    "L2-bpsk": ((2,), (1.0,)),
    "L2-qpsk": ((4,), (1.0,)),
    "L3-bpsk": ((2, 2), (0.8, 0.2)),
}


@pytest.mark.parametrize("name", sorted(BEP_CURVE_ALPHABETS) + sorted(ZERO_SNR_ALPHABETS))
def test_bep_curve_keeps_every_level_at_zero_snr(name):
    """At gamma = 0 of either sign every level is kept, without a warning:
    each Q term is 1/2, alone or among other SNRs. The curve sums them on a
    table of gamma_sat = -inf; on the others the sum is above 1, so 0 lies
    in the clamped slice and the curve is 1.0."""
    alphabet = _sc_alphabet(*{**BEP_CURVE_ALPHABETS, **ZERO_SNR_ALPHABETS}[name])
    table = pair_energy_table(alphabet, 2)
    assert (table.saturation == -np.inf) == (name in ZERO_SNR_ALPHABETS)
    gammas = np.array([-0.0, 0.0, 5.0, 50.0])
    at_zero = np.log2(alphabet.size) * np.einsum(
        "ij,j->i", np.full((1, table.weights.size), 0.5), table.weights)[0]
    want = kept_level_bep_u1(alphabet, 2)(gammas)
    assert want[0] == want[1] == at_zero
    want = np.minimum(want, 1.0)
    assert np.array_equal(conditional_bep_u1_vec(gammas, table), want)
    assert conditional_bep_u1_vec(gammas[:1], table)[0] == want[0]
    assert conditional_bep_u1_vec(gammas[1:2], table)[0] == want[0]


@pytest.mark.parametrize("name", sorted(BEP_CURVE_ALPHABETS))
def test_bep_curve_does_not_depend_on_how_snrs_are_grouped(name):
    """A value depends on its SNR only: one call over 25 000 SNRs, one call
    per SNR and calls of 1 022 SNRs (each chunked differently, with its rows
    at other offsets) agree bit for bit."""
    alphabet = _sc_alphabet(*BEP_CURVE_ALPHABETS[name])
    table = pair_energy_table(alphabet, 4)
    rng = np.random.default_rng(7)
    gammas = _curve_snrs(pair_energy_levels(alphabet)[0], 25_000, rng)
    whole = conditional_bep_u1_vec(gammas, table)
    chunks = np.concatenate([conditional_bep_u1_vec(gammas[s:s + 1022], table)
                             for s in range(0, gammas.size, 1022)])
    assert np.array_equal(chunks, whole)
    picks = rng.choice(gammas.size, 500, replace=False)
    singles = [conditional_bep_u1_vec(gammas[j:j + 1], table)[0] for j in picks]
    assert np.array_equal(singles, whole[picks])


@pytest.mark.parametrize("name", sorted(BEP_CURVE_ALPHABETS))
def test_bep_curve_clamp_point(name):
    """gamma_sat is the last double at which the dense curve is at least
    1 + 2^-40. Summed over its kept levels and then clamped, the curve is
    exactly 1.0 at 0, at gamma_sat, at its 200 lower neighbours and at
    10 000 uniform points below it, so the library's curve may skip them."""
    alphabet = _sc_alphabet(*BEP_CURVE_ALPHABETS[name])
    rng = np.random.default_rng(11)
    for n_t in (2, 4, 16, 4096):
        table = pair_energy_table(alphabet, n_t)
        sat = table.saturation
        assert 0.0 < sat < np.inf
        dense = dense_bep_u1(alphabet, n_t)(np.array([sat, np.nextafter(sat, np.inf)]))
        assert dense[0] >= 1.0 + 2.0**-40 > dense[1]
        below = [sat]
        for _ in range(200):
            below.append(np.nextafter(below[-1], 0.0))
        gammas = np.sort(np.concatenate([[0.0], below, rng.uniform(0.0, sat, 10_000)]))
        assert np.all(np.minimum(kept_level_bep_u1(alphabet, n_t)(gammas), 1.0) == 1.0)
        assert np.all(conditional_bep_u1_vec(gammas, table) == 1.0)


def test_bep_curve_clamp_point_edge_cases():
    """BPSK alone with N_t = 2 starts at 1/2, so nothing is skipped. A
    composite symbol of zero energy keeps a Q term at 1/2 at every SNR,
    which N_t = 64 lifts above 1 + 2^-40: gamma_sat is +inf."""
    bpsk_alphabet = _sc_alphabet((2,), (1.0,))
    bpsk = pair_energy_table(bpsk_alphabet, 2)
    assert bpsk.saturation == -np.inf
    gammas = np.array([0.0, 0.5, 3.0, 30.0])
    clamped = conditional_bep_u1_vec(gammas, bpsk)
    assert clamped[0] == 0.5
    assert np.array_equal(clamped, kept_level_bep_u1(bpsk_alphabet, 2)(gammas))
    zero_alphabet = np.array([0.0, 1.0, -1.0, 1j, -1j])
    zero = pair_energy_table(zero_alphabet, 64)
    assert zero.saturation == np.inf
    gammas = np.array([0.0, 1.0, 1e3, 1e300])
    assert np.all(np.minimum(kept_level_bep_u1(zero_alphabet, 64)(gammas), 1.0) == 1.0)
    assert np.all(conditional_bep_u1_vec(gammas, zero) == 1.0)


def test_erfc_tail_bound_behind_the_level_cutoff():
    """erfc(y) <= erfc(x) exp(x^2 - y^2) for 0 <= x <= y (erfcx decreases),
    on a grid up to where erfc(y) leaves the normal range (y ~ 26.55); the
    slack covers the rounding of x^2 - y^2 (up to ~700) inside exp."""
    axis = np.concatenate([np.linspace(0.0, 26.5, 1061),
                           np.random.default_rng(5).uniform(0.0, 26.5, 500)])
    x, y = np.meshgrid(axis, axis, indexing="ij")
    x, y = x[x <= y], y[x <= y]
    bound = special.erfc(x) * np.exp((x - y) * (x + y))
    assert special.erfc(26.5) > np.finfo(float).tiny
    assert np.all(special.erfc(y) <= bound * (1.0 + 1e-12))


# --- pairwise error probabilities ----------------------------------------------
# The scalar decision statistic of one pairwise symbol error, the building
# block of the recursive union-bound oracle below.


def _pep_term(s_i, s_hat_i, coeff_i, rho, interferer_terms, sic_terms):
    """(beta, vartheta) of the pairwise error s_i -> s_hat_i: ``interferer_terms``
    holds (a_p, s_p) for users decoded after i (treated as noise), and
    ``sic_terms`` (a_q, delta_q) for the residual SIC errors of users decoded
    before i."""
    delta = complex(s_i) - complex(s_hat_i)
    if delta == 0:
        raise InputError("pairwise error requires s_i != s_hat_i")
    beta = np.sqrt(coeff_i * rho) * abs(delta) ** 2
    beta += 2.0 * np.real(
        delta * sum(np.sqrt(a_p * rho) * np.conj(s_p) for a_p, s_p in interferer_terms)
    )
    beta += 2.0 * np.real(
        delta * sum(np.sqrt(a_q * rho) * np.conj(d_q) for a_q, d_q in sic_terms)
    )
    return float(beta), float(np.sqrt(2.0) * abs(delta))


def _noma_pep(term, sigma_i_sq, n_r):
    """Rayleigh-averaged pairwise error probability of one decision statistic;
    a negative statistic yields a probability above 1/2."""
    beta, vartheta = term
    num = sigma_i_sq * beta**2
    xi = np.sign(beta) * np.sqrt(num / (2.0 * vartheta**2 + num))
    return float(np.clip(rayleigh_q_average(xi, n_r), 0.0, 1.0))


def test_pep_term_hand_value():
    # no interferers, no SIC residuals: beta = sqrt(a*rho) |delta|^2
    beta, vartheta = _pep_term(1 + 0j, -1 + 0j, 0.5, 0.25, [], [])
    assert beta == pytest.approx(np.sqrt(0.125) * 4.0)
    assert vartheta == pytest.approx(2.0 * np.sqrt(2.0))
    with pytest.raises(InputError):
        _pep_term(1 + 0j, 1 + 0j, 0.5, 1.0, [], [])


@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_noma_pep_against_quadrature(n_r):
    q = qpsk().points
    beta, vartheta = t = _pep_term(q[0], q[2], 0.7, 8.0, [(0.2, q[1]), (0.1, q[3])], [])
    sigma_sq = 2.0
    want, _ = integrate.quad(
        lambda x: q_func(beta * np.sqrt(x) / vartheta)
        * _gamma_pdf(x, n_r, sigma_sq),
        0.0,
        np.inf,
        limit=400,
    )
    assert _noma_pep(t, sigma_sq, n_r) == pytest.approx(want, rel=1e-8)


def test_noma_pep_negative_statistic_exceeds_half():
    q = qpsk().points
    # strong opposing interference flips the pairwise decision statistic
    t = _pep_term(q[0], q[1], 0.05, 4.0, [], [(0.9, -(4.0 + 0j))])
    assert t[0] < 0
    p = _noma_pep(t, 1.0, 2)
    assert 0.5 < p <= 1.0


# --- union bound ---------------------------------------------------------------


def _oracle_bound_no_sic(consts, pa, rho, sigma_sq, n_r):
    """Independent enumeration of the strongest user's bound: no SIC stages,
    every own error weighted by its bit distance, capped at one per tuple."""
    c2 = consts[0]
    table = c2.bit_distance_table()
    total = 0.0
    tuples = 0
    for tx in itertools.product(*(range(c.order) for c in consts)):
        acc = 0.0
        for n in range(c2.order):
            if n == tx[0]:
                continue
            delta = c2.points[tx[0]] - c2.points[n]
            beta = np.sqrt(pa[0] * rho) * abs(delta) ** 2 + 2.0 * np.real(
                delta
                * sum(
                    np.sqrt(pa[p] * rho) * np.conj(consts[p].points[tx[p]])
                    for p in range(1, len(consts))
                )
            )
            vth = np.sqrt(2.0) * abs(delta)
            xi = np.sign(beta) * np.sqrt(
                sigma_sq * beta**2 / (2.0 * vth**2 + sigma_sq * beta**2)
            )
            acc += table[tx[0], n] / c2.bits_per_symbol * rayleigh_q_average(xi, n_r)
        total += min(1.0, acc)
        tuples += 1
    return total / tuples


@pytest.mark.parametrize("rho_db", [0, 10, 20])
def test_union_bound_strongest_user_oracle(rho_db):
    rho = 10.0 ** (rho_db / 10.0)
    consts = [qpsk(), qpsk()]
    got = union_bound_ber(0, consts, PA2, rho, 2.0, 2)
    want = _oracle_bound_no_sic(consts, PA2, rho, 2.0, 2)
    assert got == pytest.approx(want, rel=1e-10)


def _stage_branch_weights(q, tx, deltas, coeffs, consts, rho, sigma_i_sq, n_r):
    """Pairwise error weights of every wrong decision at SIC stage q, given
    the residual errors accumulated so far."""
    s_q = consts[q].points[tx[q]]
    interferers = [(coeffs[p], consts[p].points[tx[p]]) for p in range(q + 1, len(coeffs))]
    return [(n, _noma_pep(_pep_term(s_q, consts[q].points[n], coeffs[q], rho, interferers,
                                    list(deltas)), sigma_i_sq, n_r))
            for n in range(consts[q].order) if n != tx[q]]


def _ber_given_tx(slot, tx, q, deltas, coeffs, consts, rho, sigma_i_sq, n_r):
    """Recursive oracle of the union bound: BER bound of the stage-``slot``
    user conditioned on the transmitted tuple, recursing over the SIC stages.
    Wrong-branch weights are scaled so their sum never exceeds 1; the
    own-error sum is capped at 1."""
    branches = _stage_branch_weights(q, tx, deltas, coeffs, consts, rho, sigma_i_sq, n_r)
    if q == slot:
        dist = consts[slot].bit_distance_table()[tx[slot]]
        return min(1.0, sum(dist[n] / consts[slot].bits_per_symbol * w for n, w in branches))
    total = _ber_given_tx(slot, tx, q + 1, deltas, coeffs, consts, rho, sigma_i_sq, n_r)
    wsum = sum(w for _, w in branches)
    if wsum <= 0.0:
        return total
    scale = min(1.0, 1.0 / wsum)
    for n, w in branches:
        d = (coeffs[q], consts[q].points[tx[q]] - consts[q].points[n])
        total += scale * w * _ber_given_tx(slot, tx, q + 1, deltas + [d], coeffs, consts, rho,
                                           sigma_i_sq, n_r)
    return total


def _oracle_union_bound(slot, consts, pa, rho, sigma_i_sq, n_r):
    orders = [c.order for c in consts]
    total = sum(_ber_given_tx(slot, tx, 0, [], pa, consts, rho, sigma_i_sq, n_r)
                for tx in itertools.product(*(range(m) for m in orders)))
    return min(1.0, max(0.0, total / prod(orders)))


_PA3 = (0.7, 0.2, 0.1)
_PA4 = (0.6, 0.25, 0.1, 0.05)
UNION_BOUND_CASES = [
    # (power-user orders, allocation, SIC stages, SNRs in dB)
    ((4, 4), PA2, (0, 1), (0, 10, 20, 30)),
    ((4, 4, 4), _PA3, (0, 1, 2), (0, 10, 20, 30)),
    ((4, 4, 4, 4), _PA4, (0, 1, 2, 3), (10, 30)),
    ((16, 4), PA2, (0, 1), (10,)),
]


@pytest.mark.parametrize("orders,pa,stages,snrs_db", UNION_BOUND_CASES,
                         ids=["L3-qpsk", "L4-qpsk", "L5-qpsk", "qam16-qpsk"])
def test_union_bound_matches_recursive_oracle(orders, pa, stages, snrs_db):
    consts = [make_constellation(m) for m in orders]
    for stage in stages:
        sigma_sq = 2.0 ** (stage + 1)
        for snr_db in snrs_db:
            rho = 10.0 ** (snr_db / 10.0)
            got = union_bound_ber(stage, consts, pa, rho, sigma_sq, 2)
            want = _oracle_union_bound(stage, consts, pa, rho, sigma_sq, 2)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (stage, snr_db)


@pytest.mark.parametrize("user", [2, 3])
def test_union_bound_dominates_exact_three_user(user):
    exact_fn = abep_u2 if user == 2 else abep_u3
    sigma_sq = 2.0 ** (user - 1)
    for rho_db in (0, 10, 20):
        rho = 10.0 ** (rho_db / 10.0)
        bound = union_bound_ber(user - 2, [qpsk(), qpsk()], PA2, rho, sigma_sq, 2)
        assert bound >= exact_fn(0.8, 0.2, rho * sigma_sq, 2)


def test_union_bound_decreases_with_snr():
    vals = [
        union_bound_ber(1, [qpsk(), qpsk()], PA2, 10.0**e, 4.0, 2)
        for e in (0.0, 1.0, 2.0, 3.0)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_union_bound_budget_error():
    """L = 5 16-QAM, user 5 (stage 3): 4.0e9 joint hypotheses, beyond the
    budget."""
    consts = [make_constellation(16)] * 4
    with pytest.raises(ConfigError):
        union_bound_ber(3, consts, _PA4, 10.0, 16.0, 2)


def test_union_bound_user_range():
    for stage in (-1, 2):
        with pytest.raises(InputError):
            union_bound_ber(stage, [qpsk(), qpsk()], PA2, 10.0, 1.0, 2)


# --- ergodic capacity ----------------------------------------------------------


def _capacity(eta, n_r):
    """E[log2(1 + eta * t)] with t ~ Gamma(N_r, 1): the single capacity form."""
    return ergodic_capacity_noma_user(0, (1.0,), eta, 1.0, n_r)


@pytest.mark.parametrize("n_r", [1, 2, 3, 4, 8, 16, 32])
@pytest.mark.parametrize("eta", [1e-2, 0.3, 2.0, 25.0, 1e3])
def test_capacity_fraction_against_quadrature(n_r, eta):
    assert _capacity(eta, n_r) == pytest.approx(capacity_quad(eta, n_r), rel=1e-10)


def test_capacity_scalar_rayleigh_reduction():
    """The n_r = 1 case collapses to exp(1/eta) * E1(1/eta) / ln 2."""
    for eta in (0.5, 5.0, 50.0):
        want = np.exp(1.0 / eta) * special.exp1(1.0 / eta) / np.log(2.0)
        assert _capacity(eta, 1) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n_r", [1, 2, 4, 8, 16, 32, 64])
def test_capacity_below_the_overflow_of_exp_one_over_eta(n_r):
    """Below eta = 1/700 the form takes the asymptotic series of e^a E_n(a):
    it meets quadrature at -30 dB and the first-order value eta * N_r * log2 e
    at -300 dB, where exp(1/eta) overflows."""
    assert _capacity(1e-3, n_r) == pytest.approx(capacity_quad(1e-3, n_r), rel=1e-10)
    assert _capacity(1e-30, n_r) == pytest.approx(1e-30 * n_r / np.log(2.0), rel=1e-14)


@pytest.mark.parametrize("user", [2, 3])
def test_noma_user_capacity_against_quadrature(user):
    pa = (0.7, 0.2, 0.1)
    rho, n_r = 31.6, 2
    sigma_sq = 2.0 ** (user - 1)
    with_own = sum(pa[user - 2:])
    without = sum(pa[user - 1:])
    want, _ = integrate.quad(
        lambda g: (np.log2(1.0 + with_own * g) - np.log2(1.0 + without * g))
        * _gamma_pdf(g, n_r, rho * sigma_sq),
        0.0,
        np.inf,
        limit=400,
    )
    got = ergodic_capacity_noma_user(user - 2, pa, rho, sigma_sq, n_r)
    assert got == pytest.approx(want, rel=1e-8)


def test_weakest_user_capacity_has_single_term():
    pa = (0.8, 0.2)
    got = ergodic_capacity_noma_user(1, pa, 10.0, 4.0, 2)
    want = _capacity(0.2 * 40.0, 2)
    assert got == pytest.approx(want, abs=1e-14)


def test_capacity_u1_and_sum_rate():
    assert ergodic_capacity_u1(4, 0.25) == pytest.approx(1.5)
    with pytest.raises(InputError):
        ergodic_capacity_u1(4, 1.5)
    # the sum-rate companion (user 0) adds the users' closed forms
    cfg = mc.make_config(scheme=mc.SSK_NOMA, n_users=3, n_r=2, snr_grid_db=[10.0], seed=1,
                         max_trials=10_000)
    *users, total = mc.run_sweep(cfg, metrics=("rate",))
    assert [p.user for p in users] == [1, 2, 3] and total.user == 0
    rates = [mc.companion(cfg, "rate", user, 10.0) for user in (1, 2, 3)]
    assert [p.analytic for p in users] == rates
    assert total.analytic == sum(rates)


def test_power_user_capacity_matches_simulation_at_16_antennas():
    """At N_r = 16 and -20 dB (a = 1/eta from 50 to 250) the power users'
    simulated rates lie within 3 CI half-widths of their companions. User 1
    is not scored: its companion clamps after averaging (ROADMAP item 6)."""
    cfg = mc.make_config(n_users=3, n_r=16, n_t=2, snr_grid_db=[-20.0], seed=3,
                         max_trials=100_000)
    points = {p.user: p for p in mc.run_sweep(cfg, metrics=("rate",))}
    for user in (2, 3):
        p = points[user]
        assert abs(p.value - p.analytic) <= 3.0 * p.ci_halfwidth, (user, p)


@pytest.mark.parametrize("n_r", [1, 2, 4, 8, 16, 32, 64])
def test_power_user_capacity_finite_and_monotone_over_the_snr_range(n_r):
    """From -300 to 300 dB every power user's capacity companion is a finite,
    nonnegative value, nondecreasing in SNR. Near saturation it is the
    difference of two capacities of up to 100 bits, so a step may fall by
    their rounding: 1e-12 is 70 ulps of 100."""
    cfg = mc.make_config(n_users=3, n_r=n_r, n_t=2, snr_grid_db=[0.0])
    rhos = 10.0 ** (np.arange(-300.0, 300.5, 0.5) / 10.0)
    for user in (2, 3):
        values = [mc.companion(cfg, "rate", user, rho) for rho in rhos]
        assert None not in values
        values = np.array(values)
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        assert np.all(np.diff(values) >= -1e-12)


# --- outage ---------------------------------------------------------------------


def test_outage_targets_phi():
    """A lone stage's threshold is its Shannon threshold phi = 2**R - 1."""
    assert outage_threshold_psi(0, (1.0,), (1.0,)) == pytest.approx(1.0)
    assert outage_threshold_psi(0, (1.0,), (2.0,)) == pytest.approx(3.0)
    with pytest.raises(InputError):
        outage_threshold_psi(0, PA2, (1.0,))


def test_outage_threshold_hand_value():
    pa = (0.8, 0.2)
    # phi = 1 for both stages: psi_0 = 1/(0.8 - 0.2), psi_1 = max(psi_0, 1/0.2)
    assert outage_threshold_psi(0, pa, (1.0, 1.0)) == pytest.approx(1.0 / 0.6)
    assert outage_threshold_psi(1, pa, (1.0, 1.0)) == pytest.approx(5.0)


def test_outage_threshold_infeasible_denominator():
    pa = (0.8, 0.2)
    rates = (2.5, 1.0)  # phi_0 = 4.66 > a2/a3
    assert outage_threshold_psi(0, pa, rates) == np.inf
    assert outage_noma_user(0, pa, rates, 100.0, 2.0, 2) == 1.0


def _stage_thresholds(pa, rates, k):
    """phi_m / (a_m - phi_m * sum of the later a) of every feasible SIC stage
    m = 0..k: the SNR at which stage m's SINR equals its target."""
    out = []
    for m in range(k + 1):
        phi = 2.0 ** rates[m] - 1.0
        denom = pa[m] - phi * sum(pa[m + 1:])
        if denom > 0:
            out.append(phi / denom)
    return np.array(out)


@st.composite
def _outage_cases(draw):
    n_power = draw(st.integers(1, 5))
    weights = sorted(draw(st.lists(st.integers(1, 10**6), min_size=n_power,
                                   max_size=n_power, unique=True)), reverse=True)
    pa = tuple(w / sum(weights) for w in weights)
    rates = tuple(draw(st.lists(st.floats(0.01, 4.0), min_size=n_power, max_size=n_power)))
    k = draw(st.integers(0, n_power - 1))
    drawn = draw(st.lists(st.floats(0.0, 1e7), min_size=1, max_size=20))
    return pa, rates, k, np.array(drawn)


@settings(max_examples=400, deadline=None)
@given(_outage_cases())
def test_outage_threshold_matches_sinr_cascade(case):
    """Outage by the equivalent SNR threshold (what the engine counts) equals
    outage by testing every SINR of the SIC cascade against its target, on
    random SNRs and on each stage's threshold, its one-ulp neighbours and
    points 1e-12 and 1e-9 away; the two may differ only within 1e-13 of a
    stage threshold, where a stage's SINR equals its target up to rounding."""
    pa, rates, k, drawn = case
    edges = _stage_thresholds(pa, rates, k)
    gammas = np.concatenate([drawn, edges, np.nextafter(edges, 0.0),
                             np.nextafter(edges, np.inf),
                             *(edges * (1.0 + d) for d in (-1e-9, -1e-12, 1e-12, 1e-9))])
    by_threshold = gammas < outage_threshold_psi(k, pa, rates)
    by_cascade = np.zeros(gammas.size, dtype=bool)
    for m in range(k + 1):
        sinr = pa[m] * gammas / (1.0 + sum(pa[m + 1:]) * gammas)
        by_cascade |= sinr < 2.0 ** rates[m] - 1.0
    at_edge = np.zeros(gammas.size, dtype=bool)
    for t in edges:
        at_edge |= np.abs(gammas - t) <= 1e-13 * t
    assert np.array_equal(by_threshold[~at_edge], by_cascade[~at_edge])


def test_outage_noma_user_is_chi2_cdf():
    pa = (0.8, 0.2)
    psi = outage_threshold_psi(1, pa, (1.0, 1.0))
    got = outage_noma_user(1, pa, (1.0, 1.0), 20.0, 4.0, 2)
    assert got == pytest.approx(chi2_cdf(psi, 2, 80.0), abs=1e-14)


@pytest.mark.parametrize("n_t", [2, 4, 16])
def test_outage_threshold_u1_at_the_antenna_bits(n_t):
    """psi_1 is exactly 0 at R_1 = log2 N_t, and R_1 may exceed log2 N_t by
    1e-12 but not by 2e-12: in ``outage_threshold_u1`` itself, in
    ``make_config`` and in ``outage_u1``."""
    bits = np.log2(n_t)
    assert outage_threshold_u1(bits, n_t) == 0.0
    table = pair_energy_table(ALPHABET3, n_t)
    at_bits = outage_u1(bits, table, 2, 10.0, 1.0)
    for rate in (bits, bits + 1e-12):
        assert outage_threshold_u1(rate, n_t) <= 0.0
        mc.make_config(n_users=3, n_r=2, n_t=n_t, snr_grid_db=[10.0],
                       target_rates=[rate, 1.0, 1.0])
        assert outage_u1(rate, table, 2, 10.0, 1.0) == at_bits
    rate = bits + 2e-12
    with pytest.raises(ConfigError):
        outage_threshold_u1(rate, n_t)
    with pytest.raises(ConfigError):
        mc.make_config(n_users=3, n_r=2, n_t=n_t, snr_grid_db=[10.0],
                       target_rates=[rate, 1.0, 1.0])
    with pytest.raises(ConfigError):
        outage_u1(rate, table, 2, 10.0, 1.0)


def test_outage_u1_saturated_rate_reduces_to_error_average():
    """At the maximum target rate the cell-edge outage equals the fading
    average of the conditional error probability (Monte Carlo oracle)."""
    rho, n_r = 100.0, 2
    got = outage_u1(2.0, PAIRS3, n_r, rho, 1.0)
    rng = rng_stream(77, 0)
    h = np.sqrt(0.5) * (rng.standard_normal((200_000, n_r))
                        + 1j * rng.standard_normal((200_000, n_r)))
    gam = rho * np.sum(np.abs(h) ** 2, axis=1)
    bep = conditional_bep_u1_vec(np.sort(gam), PAIRS3)
    se = np.std(bep) / np.sqrt(bep.size)
    assert abs(got - np.mean(bep)) < 4.0 * se


def _oracle_outage_integrand(alphabet, n_t, n_r, gbar):
    """The outage quadrature's integrand: the dense curve of ``alphabet``
    (``oracles.dense_bep_u1``, every level) at one SNR, clamped to 1 here,
    so that every SNR evaluates its erfc terms, times chi2_pdf."""
    curve = dense_bep_u1(alphabet, n_t)

    def integrand(g):
        return min(float(curve(np.array([g]))[0]), 1.0) * chi2_pdf(g, n_r, gbar)
    return integrand


def test_outage_integrand_is_within_4_ulps_of_the_dense_curve_at_every_quad_node(monkeypatch):
    """At every node quad visits for the pinned outage configs (tests/
    test_golden.py), on both sides of gamma_sat, the integrand equals the
    oracle's within 4 ulps: the dense curve over every level from all symbol
    pairs, clamped to 1, times chi2_pdf. At and below gamma_sat it is
    chi2_pdf alone, bit for bit."""
    from test_golden import PIN_CONFIGS, PIN_SHARED, PIN_SNRS_DB

    nodes = []
    real_quad = integrate.quad

    def recording_quad(func, a, b, **kwargs):
        def recorded(g):
            nodes.append((g, func(g)))
            return nodes[-1][1]
        return real_quad(recorded, a, b, **kwargs)

    monkeypatch.setattr(integrate, "quad", recording_quad)
    sides, bad = [0, 0], []
    for name, run in PIN_CONFIGS.items():
        cfg = mc.make_config(**PIN_SHARED, **run)
        if cfg.first_power_user == 1:
            continue
        alphabet = enumerate_sc_alphabet(cfg.tables.consts, cfg.pa)
        for snr_db in PIN_SNRS_DB:
            rho = 10.0 ** (snr_db / 10.0)
            gbar = rho * cfg.fading[0]
            nodes.clear()
            mc.companion(cfg, "outage", 1, rho)
            oracle = _oracle_outage_integrand(alphabet, cfg.n_t, cfg.n_r, gbar)
            for g, value in nodes:
                saturated = g <= cfg.pairs.saturation
                sides[saturated] += 1
                want = oracle(g)
                if abs(value - want) > 4.0 * np.spacing(want) or (
                        saturated and float(value).hex() != float(chi2_pdf(g, cfg.n_r, gbar)).hex()):
                    bad.append((name, snr_db, g))
    assert bad == []
    assert min(sides) > 100


def _oracle_outage_u1(rate, table, n_r, rho, sigma1_sq, alphabet):
    """outage_u1's two quadratures over the oracle integrand of
    ``alphabet``, the table's."""
    psi1 = 1.0 - rate / np.log2(table.n_t)
    gbar = rho * sigma1_sq
    integrand = _oracle_outage_integrand(alphabet, table.n_t, n_r, gbar)
    upper = gbar * (n_r + 40.0 * np.sqrt(n_r))
    full, _ = integrate.quad(integrand, 0.0, upper, epsabs=1e-8, limit=200)
    if psi1 <= 0.0:
        return min(1.0, max(0.0, full))
    head, _ = integrate.quad(integrand, 0.0, min(psi1, upper), epsabs=1e-8, limit=200)
    return min(1.0, max(0.0, full - head))


# (alphabet, N_t, N_r, SNR in dB) of the outage_u1 oracle check, each at
# psi_1 = 0, 0.5 and 0.99
OUTAGE_U1_CASES = [
    (name, n_t, n_r, (-10, 0, 10, 20, 30, 40)[i // 3 % 6])
    for i, (name, n_t, n_r) in enumerate(itertools.product(
        ("L3-qpsk", "L4-qpsk", "qpsk-qam16"), (2, 4, 16), (1, 2, 4, 8)))
    if i % 3 == 0
]


def test_outage_u1_matches_oracle_quadrature():
    """outage_u1 equals, bit for bit, a quad over the oracle integrand, with
    psi_1 = 0 and psi_1 > 0 (below and above gamma_sat), and warns where and
    as the oracle does."""
    bad = []
    for name, n_t, n_r, snr_db in OUTAGE_U1_CASES:
        alphabet = _sc_alphabet(*BEP_CURVE_ALPHABETS[name])
        table = pair_energy_table(alphabet, n_t)
        oracle = functools.partial(_oracle_outage_u1, alphabet=alphabet)
        rho = 10.0 ** (snr_db / 10.0)
        for share in (1.0, 0.5, 0.01):
            rate = share * np.log2(n_t)
            got, want = [], []
            for fn, out in ((outage_u1, got), (oracle, want)):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    out.append(float(fn(rate, table, n_r, rho, 1.5)).hex())
                out.extend(str(w.message) for w in caught)
            if got != want:
                bad.append((name, n_t, n_r, snr_db, share, got, want))
    assert bad == []


def test_outage_u1_monotone_in_rate_and_snr():
    lo = outage_u1(1.0, PAIRS3, 2, 50.0, 1.0)
    hi = outage_u1(2.0, PAIRS3, 2, 50.0, 1.0)
    assert lo <= hi
    worse = outage_u1(2.0, PAIRS3, 2, 5.0, 1.0)
    assert worse > hi


def test_outage_u1_rejects_excess_rate():
    with pytest.raises(ConfigError):
        outage_u1(3.0, PAIRS3, 2, 10.0, 1.0)
