"""Closed-form expression tests against independent quadrature and Monte
Carlo oracles."""

import itertools
from math import gamma as gamma_fn
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from ssknoma import montecarlo as mc
from ssknoma.analytics import (
    BEP_CHUNK_ROWS,
    ERFC_ZERO_FROM,
    _BEP_WHOLE_ENTRIES,
    OutageTargets,
    abep_u1,
    abep_u2,
    abep_u3,
    chi2_cdf,
    chi2_pdf,
    conditional_bep_u1_vec,
    conditional_bep_u2,
    conditional_bep_u3,
    ergodic_capacity_fractions,
    ergodic_capacity_noma_user,
    ergodic_capacity_u1,
    exp_integral,
    outage_noma_user,
    outage_threshold_psi,
    outage_u1,
    pair_energy_table,
    q_func,
    rayleigh_q_average,
    union_bound_ber,
    zeta_set,
)
from ssknoma.channel import rng_stream
from ssknoma.constellation import (
    PowerAllocation,
    enumerate_sc_alphabet,
    make_constellation,
    qpsk,
)
from ssknoma.errors import ConfigError, InputError

PA2 = PowerAllocation((0.8, 0.2))
ALPHABET3 = enumerate_sc_alphabet([qpsk(), qpsk()], PA2)
PAIRS3 = pair_energy_table(ALPHABET3)


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


@pytest.mark.parametrize("x", [-50.0, -10.0, -3.0, -1.0, -0.1, -1e-3])
def test_exp_integral_against_quadrature(x):
    want, _ = integrate.quad(lambda t: np.exp(-t) / t, -x, np.inf, limit=400)
    assert exp_integral(x) == pytest.approx(-want, rel=1e-9)


def test_exp_integral_domain():
    with pytest.raises(InputError):
        exp_integral(0.5)


@pytest.mark.parametrize("n_r", [1, 2, 4])
def test_chi2_pdf_integrates_to_cdf(n_r):
    gbar = 3.0
    for g in (0.5, 2.0, 10.0):
        want, _ = integrate.quad(lambda x: chi2_pdf(x, n_r, gbar), 0.0, g)
        assert chi2_cdf(g, n_r, gbar) == pytest.approx(want, abs=1e-10)


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
    rho, n_t, n_r = 10.0, 4, 2
    want, _ = integrate.quad(
        lambda g: conditional_bep_u1_vec(np.array([g]), PAIRS3, n_t, clamp=False)[0]
        * _gamma_pdf(g, n_r, rho),
        0.0,
        np.inf,
        limit=400,
    )
    got = abep_u1(PAIRS3, n_t, n_r, rho, 1.0, clamp=False)
    assert got == pytest.approx(want, rel=1e-8)


def test_abep_u1_single_antenna_is_zero():
    assert abep_u1(PAIRS3, 1, 2, 10.0, 1.0) == 0.0
    assert list(conditional_bep_u1_vec(np.array([5.0]), PAIRS3, 1)) == [0.0]


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
    pa = PowerAllocation({3: (0.8, 0.2), 4: (0.7, 0.2, 0.1),
                          5: (0.6, 0.25, 0.1, 0.05)}[n_users])
    alphabet = enumerate_sc_alphabet([qpsk()] * pa.n_users, pa)
    for rho, n_r in ((10.0, 2), (1000.0, 4)):
        want = _abep_u1_oracle(alphabet, 4, n_r, rho, 1.0)
        got = abep_u1(pair_energy_table(alphabet), 4, n_r, rho, 1.0, clamp=False)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_conditional_bep_u1_vec_matches_scalar():
    """One call over several SNRs and one call per SNR against the pair-loop
    oracle, clamped at 1 for low SNR."""
    gammas = np.array([0.0, 0.3, 2.0, 40.0])
    vec = conditional_bep_u1_vec(gammas, PAIRS3, 4)
    for g, v in zip(gammas, vec):
        want = _conditional_bep_u1_oracle(float(g), ALPHABET3, 4)
        assert v == pytest.approx(want, rel=1e-12, abs=0)
        one = conditional_bep_u1_vec(np.array([g]), PAIRS3, 4)[0]
        assert one == pytest.approx(want, rel=1e-12, abs=0)


# the cell-edge BEP curve on these composite alphabets: (orders, PA)
BEP_CURVE_ALPHABETS = {
    "L3-qpsk": ((4, 4), (0.8, 0.2)),
    "L4-qpsk": ((4, 4, 4), (0.7, 0.2, 0.1)),
    "L5-qpsk": ((4, 4, 4, 4), (0.6, 0.25, 0.1, 0.05)),
    "qpsk-qam16": ((4, 16), (0.8, 0.2)),
}
# and the pair-energy table on these as well (M_T up to 1 024)
PAIR_TABLE_ALPHABETS = {
    **BEP_CURVE_ALPHABETS,
    "qam64-qpsk": ((64, 4), (0.8, 0.2)),
    "psk8-bpsk": ((8, 2), (0.8, 0.2)),
    "psk32": ((32,), (1.0,)),
    "qam64-qam16": ((64, 16), (0.8, 0.2)),
}


def _sc_alphabet(orders, pa):
    return enumerate_sc_alphabet([make_constellation(m) for m in orders], PowerAllocation(pa))


def _pair_energy_levels(alphabet):
    """Distinct pair energies |chi_k|^2 + |chi_hat|^2 over all M_T^2 ordered
    composite-symbol pairs, grouped by their value rounded to 12 decimals,
    each the energy of its group's first pair; with the share of pairs at
    each."""
    energy = np.abs(alphabet) ** 2
    e = (energy[:, None] + energy[None, :]).ravel()
    _, first, counts = np.unique(np.round(e, 12), return_index=True, return_counts=True)
    return e[first], counts / e.size


@pytest.mark.parametrize("name", sorted(PAIR_TABLE_ALPHABETS))
def test_pair_energy_table_matches_all_pairs(name):
    """The table built from the distinct symbol energies holds the levels of
    the all-pairs table bit for bit, and the same shares."""
    alphabet = _sc_alphabet(*PAIR_TABLE_ALPHABETS[name])
    levels, weights = _pair_energy_levels(alphabet)
    table = pair_energy_table(alphabet)
    assert [float(q).hex() for q in table.quarter] == [float(x / 4.0).hex() for x in levels]
    assert np.array_equal(table.weights, weights)
    assert table.bits == np.log2(alphabet.size)


def _dense_bep_u1(gammas, alphabet, n_t, clamp):
    """The cell-edge BEP curve as one dense erfc table and one einsum."""
    levels, weights = _pair_energy_levels(alphabet)
    scale = (n_t / 2.0) * np.log2(alphabet.size)
    vals = scale * np.einsum("ij,j->i", q_func(np.sqrt(gammas[:, None] * levels / 4.0)),
                             weights)
    return np.clip(vals, 0.0, 1.0) if clamp else vals


def _curve_snrs(levels, n, rng):
    """``n`` unsorted SNRs: 0; for each level, the SNRs where its erfc
    argument reaches 26, 26.5, 26.6, the true underflow limit sqrt(MAXLOG)
    and the pruning limit, each with its neighbours one ulp away; half of the
    rest within 1e-4 of those SNRs of the two lowest and the highest level
    (so whole chunks straddle them), the other half spread from 0 to ~1e5."""
    limits = np.array([26.0, 26.5, 26.6, np.sqrt(np.log(np.finfo(float).max)),
                       ERFC_ZERO_FROM])
    edges = 8.0 * limits[:, None] ** 2 / levels
    marked = np.concatenate([[0.0], edges.ravel(), np.nextafter(edges, 0.0).ravel(),
                             np.nextafter(edges, np.inf).ravel()])
    near = (rng.choice(edges[:, [0, 1, -1]].ravel(), n)
            * (1.0 + 1e-4 * rng.uniform(-1.0, 1.0, n)))
    spread = 10.0 ** rng.uniform(-1.0, 4.0, n) * rng.standard_gamma(2.0, n)
    gammas = np.where(rng.random(n) < 0.5, near, spread)
    k = min(n, marked.size)
    gammas[rng.choice(n, k, replace=False)] = rng.choice(marked, k, replace=False)
    return gammas


def test_bep_curve_equals_dense_formula():
    """The sorted, chunked and underflow-pruned curve equals the dense formula
    bit for bit."""
    rng = np.random.default_rng(2024)
    bad = []
    for name, (orders, pa) in BEP_CURVE_ALPHABETS.items():
        alphabet = _sc_alphabet(orders, pa)
        table = pair_energy_table(alphabet)
        levels = _pair_energy_levels(alphabet)[0]
        whole = _BEP_WHOLE_ENTRIES // levels.size  # more SNRs are chunked
        sizes = {0, 1, BEP_CHUNK_ROWS - 1, BEP_CHUNK_ROWS + 1, 3 * BEP_CHUNK_ROWS + 7,
                 whole, whole + 1, 25_000}
        for n, n_t in itertools.product(sorted(sizes), (2, 4)):
            gammas = _curve_snrs(levels, n, rng)
            for clamp in (True, False):
                got = conditional_bep_u1_vec(gammas, table, n_t, clamp)
                if not np.array_equal(got, _dense_bep_u1(gammas, alphabet, n_t, clamp)):
                    bad.append((name, n_t, n, clamp))
    assert bad == []


@pytest.mark.parametrize("name", sorted(BEP_CURVE_ALPHABETS))
def test_bep_curve_does_not_depend_on_how_snrs_are_grouped(name):
    """A value depends on its SNR only: one call over 25 000 SNRs, one call
    per SNR and calls of 1 022 SNRs (each chunked differently, with its rows
    at other offsets) agree bit for bit."""
    alphabet = _sc_alphabet(*BEP_CURVE_ALPHABETS[name])
    table = pair_energy_table(alphabet)
    rng = np.random.default_rng(7)
    gammas = _curve_snrs(_pair_energy_levels(alphabet)[0], 25_000, rng)
    whole = conditional_bep_u1_vec(gammas, table, 4, clamp=False)
    chunks = np.concatenate([conditional_bep_u1_vec(gammas[s:s + 1022], table, 4, False)
                             for s in range(0, gammas.size, 1022)])
    assert np.array_equal(chunks, whole)
    picks = rng.choice(gammas.size, 500, replace=False)
    singles = [conditional_bep_u1_vec(gammas[j:j + 1], table, 4, False)[0] for j in picks]
    assert np.array_equal(singles, whole[picks])


def test_erfc_is_exactly_zero_from_the_pruning_limit():
    assert not special.erfc(np.linspace(ERFC_ZERO_FROM, 1e3, 1_000_001)).any()
    assert special.erfc(np.inf) == 0.0
    # the limit is tight: erfc still underflows gradually just below it
    assert special.erfc(26.64) > 0.0


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
    coeffs = pa.coefficients
    total = 0.0
    tuples = 0
    for tx in itertools.product(*(range(c.order) for c in consts)):
        acc = 0.0
        for n in range(c2.order):
            if n == tx[0]:
                continue
            delta = c2.points[tx[0]] - c2.points[n]
            beta = np.sqrt(coeffs[0] * rho) * abs(delta) ** 2 + 2.0 * np.real(
                delta
                * sum(
                    np.sqrt(coeffs[p] * rho) * np.conj(consts[p].points[tx[p]])
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
    got = union_bound_ber(2, consts, PA2, rho, 2.0, 2)
    want = _oracle_bound_no_sic(consts, PA2, rho, 2.0, 2)
    assert got == pytest.approx(want, rel=1e-10)


def _stage_branch_weights(q, tx, deltas, coeffs, consts, rho, sigma_i_sq, n_r):
    """Pairwise error weights of every wrong decision at SIC stage q (0-based
    slot, user q+2), given the residual errors accumulated so far."""
    s_q = consts[q].points[tx[q]]
    interferers = [(coeffs[p], consts[p].points[tx[p]]) for p in range(q + 1, len(coeffs))]
    return [(n, _noma_pep(_pep_term(s_q, consts[q].points[n], coeffs[q], rho, interferers,
                                    list(deltas)), sigma_i_sq, n_r))
            for n in range(consts[q].order) if n != tx[q]]


def _ber_given_tx(i, tx, q, deltas, coeffs, consts, rho, sigma_i_sq, n_r):
    """Recursive oracle of the union bound: BER bound of user i conditioned on
    the transmitted tuple, recursing over the SIC stages. Wrong-branch weights
    are scaled so their sum never exceeds 1; the own-error sum is capped at 1."""
    slot = i - 2
    branches = _stage_branch_weights(q, tx, deltas, coeffs, consts, rho, sigma_i_sq, n_r)
    if q == slot:
        dist = consts[slot].bit_distance_table()[tx[slot]]
        return min(1.0, sum(dist[n] / consts[slot].bits_per_symbol * w for n, w in branches))
    total = _ber_given_tx(i, tx, q + 1, deltas, coeffs, consts, rho, sigma_i_sq, n_r)
    wsum = sum(w for _, w in branches)
    if wsum <= 0.0:
        return total
    scale = min(1.0, 1.0 / wsum)
    for n, w in branches:
        d = (coeffs[q], consts[q].points[tx[q]] - consts[q].points[n])
        total += scale * w * _ber_given_tx(i, tx, q + 1, deltas + [d], coeffs, consts, rho,
                                           sigma_i_sq, n_r)
    return total


def _oracle_union_bound(i, consts, pa, rho, sigma_i_sq, n_r):
    orders = [c.order for c in consts]
    total = sum(_ber_given_tx(i, tx, 0, [], pa.coefficients, consts, rho, sigma_i_sq, n_r)
                for tx in itertools.product(*(range(m) for m in orders)))
    return min(1.0, max(0.0, total / prod(orders)))


_PA3 = PowerAllocation((0.7, 0.2, 0.1))
_PA4 = PowerAllocation((0.6, 0.25, 0.1, 0.05))
UNION_BOUND_CASES = [
    # (power-user orders, allocation, users, SNRs in dB)
    ((4, 4), PA2, (2, 3), (0, 10, 20, 30)),
    ((4, 4, 4), _PA3, (2, 3, 4), (0, 10, 20, 30)),
    ((4, 4, 4, 4), _PA4, (2, 3, 4, 5), (10, 30)),
    ((16, 4), PA2, (2, 3), (10,)),
]


@pytest.mark.parametrize("orders,pa,users,snrs_db", UNION_BOUND_CASES,
                         ids=["L3-qpsk", "L4-qpsk", "L5-qpsk", "qam16-qpsk"])
def test_union_bound_matches_recursive_oracle(orders, pa, users, snrs_db):
    consts = [make_constellation(m) for m in orders]
    for user in users:
        sigma_sq = 2.0 ** (user - 1)
        for snr_db in snrs_db:
            rho = 10.0 ** (snr_db / 10.0)
            got = union_bound_ber(user, consts, pa, rho, sigma_sq, 2)
            want = _oracle_union_bound(user, consts, pa, rho, sigma_sq, 2)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (user, snr_db)


@pytest.mark.parametrize("user", [2, 3])
def test_union_bound_dominates_exact_three_user(user):
    exact_fn = abep_u2 if user == 2 else abep_u3
    sigma_sq = 2.0 ** (user - 1)
    for rho_db in (0, 10, 20):
        rho = 10.0 ** (rho_db / 10.0)
        bound = union_bound_ber(user, [qpsk(), qpsk()], PA2, rho, sigma_sq, 2)
        assert bound >= exact_fn(0.8, 0.2, rho * sigma_sq, 2)


def test_union_bound_decreases_with_snr():
    vals = [
        union_bound_ber(3, [qpsk(), qpsk()], PA2, 10.0**e, 4.0, 2)
        for e in (0.0, 1.0, 2.0, 3.0)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_union_bound_budget_error():
    """L = 5 16-QAM, user 5: 4.0e9 joint hypotheses, beyond the budget."""
    consts = [make_constellation(16)] * 4
    with pytest.raises(ConfigError):
        union_bound_ber(5, consts, _PA4, 10.0, 16.0, 2)


def test_union_bound_user_range():
    with pytest.raises(InputError):
        union_bound_ber(4, [qpsk(), qpsk()], PA2, 10.0, 1.0, 2)


# --- ergodic capacity ----------------------------------------------------------


@pytest.mark.parametrize("n_r", [1, 2, 3, 4])
@pytest.mark.parametrize("eta", [0.3, 2.0, 25.0])
def test_capacity_fraction_against_quadrature(n_r, eta):
    want, _ = integrate.quad(
        lambda g: np.log2(1.0 + g) * _gamma_pdf(g, n_r, eta), 0.0, np.inf, limit=400
    )
    got = ergodic_capacity_fractions(1.0, 0.0, eta, n_r)
    assert got == pytest.approx(want, rel=1e-8)


def test_capacity_scalar_rayleigh_reduction():
    """The n_r = 1 case collapses to exp(1/eta) * E1(1/eta) / ln 2."""
    for eta in (0.5, 5.0, 50.0):
        want = np.exp(1.0 / eta) * special.exp1(1.0 / eta) / np.log(2.0)
        got = ergodic_capacity_fractions(1.0, 0.0, eta, 1)
        assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("user", [2, 3])
def test_noma_user_capacity_against_quadrature(user):
    pa = PowerAllocation((0.7, 0.2, 0.1))
    rho, n_r = 31.6, 2
    sigma_sq = 2.0 ** (user - 1)
    coeffs = pa.coefficients
    with_own = sum(coeffs[user - 2:])
    without = sum(coeffs[user - 1:])
    want, _ = integrate.quad(
        lambda g: (np.log2(1.0 + with_own * g) - np.log2(1.0 + without * g))
        * _gamma_pdf(g, n_r, rho * sigma_sq),
        0.0,
        np.inf,
        limit=400,
    )
    got = ergodic_capacity_noma_user(user, pa, rho, sigma_sq, n_r)
    assert got == pytest.approx(want, rel=1e-8)


def test_weakest_user_capacity_has_single_term():
    pa = PowerAllocation((0.8, 0.2))
    got = ergodic_capacity_noma_user(3, pa, 10.0, 4.0, 2)
    want = ergodic_capacity_fractions(0.2, 0.0, 40.0, 2)
    assert got == pytest.approx(want, abs=1e-14)


def test_capacity_u1_and_sum_rate():
    assert ergodic_capacity_u1(4, 0.25) == pytest.approx(1.5)
    with pytest.raises(InputError):
        ergodic_capacity_u1(4, 1.5)
    # the sum-rate companion (user 0) adds the users' closed forms
    cfg = mc.make_config(scheme=mc.SSK_NOMA, n_users=3, n_r=2, snr_grid_db=[10.0], seed=1)
    rates = [mc._analytic_rate(cfg, user, 10.0) for user in (1, 2, 3)]
    assert mc._analytic_rate(cfg, 0, 10.0) == sum(rates)


# --- outage ---------------------------------------------------------------------


def test_outage_targets_phi():
    t = OutageTargets((1.0, 1.5, 2.0))
    assert t.phi(1) == pytest.approx(1.0)
    assert t.phi(3) == pytest.approx(3.0)
    lit = OutageTargets((1.0, 1.5, 2.0), literal_phi=True)
    assert lit.phi(3) == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        OutageTargets((0.0, 1.0))


def test_outage_threshold_hand_value():
    pa = PowerAllocation((0.8, 0.2))
    targets = OutageTargets((1.0, 1.0, 1.0))
    # phi = 1 for both stages: psi_2 = 1/(0.8 - 0.2), psi_3 = max(psi_2, 1/0.2)
    assert outage_threshold_psi(2, pa, targets) == pytest.approx(1.0 / 0.6)
    assert outage_threshold_psi(3, pa, targets) == pytest.approx(5.0)


def test_outage_threshold_infeasible_denominator():
    pa = PowerAllocation((0.8, 0.2))
    targets = OutageTargets((1.0, 2.5, 1.0))  # phi_2 = 4.8 > a2/a3
    assert outage_threshold_psi(2, pa, targets) == np.inf
    assert outage_noma_user(2, pa, targets, 100.0, 2.0, 2) == 1.0


def _stage_thresholds(pa, targets, first_user, i):
    """phi_m / (a_m - phi_m * sum of the later a) of every feasible SIC stage
    m = first_user..i: the SNR at which stage m's SINR equals its target."""
    coeffs = pa.coefficients
    out = []
    for k in range(i - first_user + 1):
        phi = targets.phi(first_user + k)
        denom = coeffs[k] - phi * sum(coeffs[k + 1:])
        if denom > 0:
            out.append(phi / denom)
    return np.array(out)


@st.composite
def _outage_cases(draw):
    n_power = draw(st.integers(1, 5))
    weights = sorted(draw(st.lists(st.integers(1, 10**6), min_size=n_power,
                                   max_size=n_power, unique=True)), reverse=True)
    pa = PowerAllocation(tuple(w / sum(weights) for w in weights))
    first_user = draw(st.sampled_from([1, 2]))
    rates = draw(st.lists(st.floats(0.01, 4.0), min_size=n_power + first_user - 1,
                          max_size=n_power + first_user - 1))
    targets = OutageTargets(tuple(rates), literal_phi=draw(st.booleans()))
    i = draw(st.integers(first_user, first_user + n_power - 1))
    drawn = draw(st.lists(st.floats(0.0, 1e7), min_size=1, max_size=20))
    return pa, targets, first_user, i, np.array(drawn)


@settings(max_examples=400, deadline=None)
@given(_outage_cases())
def test_outage_threshold_matches_sinr_cascade(case):
    """Outage by the equivalent SNR threshold (what the engine counts) equals
    outage by testing every SINR of the SIC cascade against its target, on
    random SNRs and on each stage's threshold, its one-ulp neighbours and
    points 1e-12 and 1e-9 away; the two may differ only within 1e-13 of a
    stage threshold, where a stage's SINR equals its target up to rounding."""
    pa, targets, first_user, i, drawn = case
    edges = _stage_thresholds(pa, targets, first_user, i)
    gammas = np.concatenate([drawn, edges, np.nextafter(edges, 0.0),
                             np.nextafter(edges, np.inf),
                             *(edges * (1.0 + d) for d in (-1e-9, -1e-12, 1e-12, 1e-9))])
    by_threshold = gammas < outage_threshold_psi(i, pa, targets, first_user)
    coeffs = pa.coefficients
    by_cascade = np.zeros(gammas.size, dtype=bool)
    for k in range(i - first_user + 1):
        sinr = coeffs[k] * gammas / (1.0 + sum(coeffs[k + 1:]) * gammas)
        by_cascade |= sinr < targets.phi(first_user + k)
    at_edge = np.zeros(gammas.size, dtype=bool)
    for t in edges:
        at_edge |= np.abs(gammas - t) <= 1e-13 * t
    assert np.array_equal(by_threshold[~at_edge], by_cascade[~at_edge])


def test_outage_noma_user_is_chi2_cdf():
    pa = PowerAllocation((0.8, 0.2))
    targets = OutageTargets((1.0, 1.0, 1.0))
    psi = outage_threshold_psi(3, pa, targets)
    got = outage_noma_user(3, pa, targets, 20.0, 4.0, 2)
    assert got == pytest.approx(chi2_cdf(psi, 2, 80.0), abs=1e-14)


def test_outage_u1_saturated_rate_reduces_to_error_average():
    """At the maximum target rate the cell-edge outage equals the fading
    average of the conditional error probability (Monte Carlo oracle)."""
    rho, n_r = 100.0, 2
    targets = OutageTargets((2.0, 1.0, 1.0))
    got = outage_u1(targets, 4, PAIRS3, n_r, rho, 1.0)
    rng = rng_stream(77, 0)
    h = np.sqrt(0.5) * (rng.standard_normal((200_000, n_r))
                        + 1j * rng.standard_normal((200_000, n_r)))
    gam = rho * np.sum(np.abs(h) ** 2, axis=1)
    bep = conditional_bep_u1_vec(gam, PAIRS3, 4)
    se = np.std(bep) / np.sqrt(bep.size)
    assert abs(got - np.mean(bep)) < 4.0 * se


def test_outage_u1_monotone_in_rate_and_snr():
    targets_lo = OutageTargets((1.0, 1.0, 1.0))
    targets_hi = OutageTargets((2.0, 1.0, 1.0))
    lo = outage_u1(targets_lo, 4, PAIRS3, 2, 50.0, 1.0)
    hi = outage_u1(targets_hi, 4, PAIRS3, 2, 50.0, 1.0)
    assert lo <= hi
    worse = outage_u1(targets_hi, 4, PAIRS3, 2, 5.0, 1.0)
    assert worse > hi


def test_outage_u1_rejects_excess_rate():
    with pytest.raises(ConfigError):
        outage_u1(OutageTargets((3.0, 1.0, 1.0)), 4, PAIRS3, 2, 10.0, 1.0)
