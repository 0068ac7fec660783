"""Closed-form performance expressions: exact ABEP for the three-user QPSK
network, pairwise-error union bounds with SIC error propagation, ergodic
capacities and outage probabilities, plus the special functions they need.

All fading averages assume the MRC output SNR is chi-square with 2*N_r
degrees of freedom and per-branch mean gamma_bar = rho * sigma_i^2. A
power-multiplexed user is named by its 0-based SIC stage k, its index in
``pa.coefficients``: one form serves SSK-NOMA user k + 2 and baseline user
k + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod
from typing import NamedTuple

import numpy as np
from scipy import special

from .constellation import PowerAllocation
from .errors import ConfigError, InputError, as_tuple

# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------


def q_func(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def exp_integral(x: float) -> float:
    """Exponential integral Ei(x) for negative arguments."""
    if x >= 0:
        raise InputError(f"Ei is only needed for x < 0 here, got {x}")
    return float(special.expi(x))


def chi2_pdf(gamma, n_r: int, gamma_bar: float):
    """PDF of the MRC output SNR (2*N_r-degree chi-square, branch mean gamma_bar)."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise InputError("gamma must be nonnegative")
    return (
        gamma ** (n_r - 1)
        * np.exp(-gamma / gamma_bar)
        / (factorial(n_r - 1) * gamma_bar**n_r)
    )


def chi2_cdf(gamma, n_r: int, gamma_bar: float):
    """CDF matching :func:`chi2_pdf`."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise InputError("gamma must be nonnegative")
    acc = sum((gamma / gamma_bar) ** (lam - 1) / factorial(lam - 1)
              for lam in range(1, n_r + 1))
    out = 1.0 - np.exp(-gamma / gamma_bar) * acc
    return out if out.shape else float(out)


def rayleigh_q_average(mu: float, n_r: int) -> float:
    """Closed-form E[Q(sqrt(c * gamma))] over the chi-square fading density,
    written in terms of mu = sqrt(c*gbar / (2 + c*gbar)). Analytic in mu, so a
    signed mu correctly continues to averages above one half."""
    half_m = (1.0 - mu) / 2.0
    half_p = (1.0 + mu) / 2.0
    return half_m**n_r * sum(
        comb(n_r - 1 + lam, lam) * half_p**lam for lam in range(n_r)
    )


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def zeta_set(a2: float, a3: float) -> tuple:
    """Composite-symbol energy levels (zeta_1, ..., zeta_5) derived from
    (a_2, a_3)."""
    r2, r3 = np.sqrt(a2), np.sqrt(a3)
    return (r2 - r3) ** 2, (r2 + r3) ** 2, a3, (2 * r2 - r3) ** 2, (2 * r2 + r3) ** 2


@dataclass(frozen=True)
class OutageTargets:
    """Target rates for users 1..L."""

    rates: tuple

    def __post_init__(self):
        r = as_tuple("target_rates", self.rates, float)
        object.__setattr__(self, "rates", r)
        if any(x <= 0 for x in r):
            raise ConfigError("target rates must be positive")


def _check_two_user_pa(a2: float, a3: float):
    if abs(a2 + a3 - 1.0) > 1e-9 or a2 <= a3:
        raise ConfigError("need a2 + a3 = 1 with a2 > a3")


def _clamp(p: float) -> float:
    return min(1.0, max(0.0, p))


def _check_stage(k: int, pa: PowerAllocation):
    """A power user's SIC stage k indexes ``pa.coefficients``."""
    if not 0 <= k < pa.n_users:
        raise InputError(f"SIC stage {k} out of 0..{pa.n_users - 1}")


# ---------------------------------------------------------------------------
# Cell-edge user: union bound on the SM detection
# ---------------------------------------------------------------------------


class PairEnergyTable(NamedTuple):
    """The cell-edge union bound's pair table of one composite alphabet:
    its distinct pair energies |chi_k|^2 + |chi_hat|^2 over the ordered
    composite-symbol pairs, quartered, with the share of pairs at each, and
    the level cutoff of :func:`conditional_bep_u1_vec`."""

    quarter: np.ndarray  # each level / 4 (exact), ascending
    weights: np.ndarray  # share of the M_T^2 ordered pairs at each level
    bits: float          # log2 M_T
    gap: np.ndarray      # quarter - quarter[0], ascending from 0
    cutoff: float        # T = 53 ln 2 + ln(sum_{j>=1} w_j / w_0), 0 for one level


def pair_energy_table(alphabet: np.ndarray) -> PairEnergyTable:
    """Pair table of ``alphabet``, built from its distinct symbol energies:
    a pair's energy depends only on the energies of its two symbols, so the
    distinct energies are paired, each pair counted once per symbol pair
    behind it. The energies are taken in order of first appearance, so each
    level, grouped by its value rounded to 12 decimals, is the energy of the
    first of all M_T^2 symbol pairs (row by row) at that level."""
    values, first, counts = np.unique(np.abs(alphabet) ** 2, return_index=True,
                                      return_counts=True)
    order = np.argsort(first)
    distinct, counts = values[order], counts[order]
    e = (distinct[:, None] + distinct[None, :]).ravel()
    _, head, level = np.unique(np.round(e, 12), return_index=True, return_inverse=True)
    pairs = np.bincount(level, np.outer(counts, counts).ravel())
    quarter, weights = e[head] / 4.0, pairs / alphabet.size**2
    # a lone level has nothing to drop
    rest = weights[1:].sum()
    cutoff = 53.0 * np.log(2.0) + np.log(rest / weights[0]) if rest > 0 else 0.0
    return PairEnergyTable(quarter, weights, np.log2(alphabet.size), quarter - quarter[0],
                           float(cutoff))


def abep_u1(table: PairEnergyTable, n_t: int, n_r: int, rho: float,
            sigma1_sq: float, clamp: bool = True) -> float:
    """Cell-edge user's ABEP by the SSK union-bound sum: antenna-pair factor
    times the pairwise error probability averaged uniformly over all ordered
    composite symbol pairs (``table``), each weighted by log2(M_T). It is an
    approximation, not an upper bound: at L = 4 (M_T = 64) it lies below the
    simulated BER."""
    if n_t == 1:
        return 0.0
    if rho <= 0 or sigma1_sq <= 0:
        raise InputError("rho and sigma1_sq must be positive")
    sigma_a_sq = rho * sigma1_sq * table.quarter
    mu = np.sqrt(sigma_a_sq / (2.0 + sigma_a_sq))
    peps = table.bits * rayleigh_q_average(mu, n_r)
    bound = (n_t / 2.0) * float(peps @ table.weights)
    return _clamp(bound) if clamp else bound


# the cell-edge BEP curve evaluates its erfc terms for at most this many SNRs
# at once
BEP_CHUNK_ROWS = 1024
_SQRT2 = np.sqrt(2.0)


def _q_sums(part: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row of ``part`` (gamma * quarter per SNR and level, overwritten)
    turned into its Q terms in place and summed on its own against
    ``weights``."""
    np.sqrt(part, out=part)
    np.divide(part, _SQRT2, out=part)
    special.erfc(part, out=part)
    np.multiply(part, 0.5, out=part)
    return np.einsum("ij,j->i", part, weights)


def conditional_bep_u1_vec(gammas: np.ndarray, table: PairEnergyTable,
                           n_t: int, clamp: bool = True) -> np.ndarray:
    """BEP of the cell-edge user conditioned on each instantaneous MRC SNR,
    clamped to [0, 1] unless ``clamp`` is false.

    Each value is ``(N_t / 2) log2(M_T) * sum_j w_j Q(sqrt(gamma q_j))`` over
    the quartered pair energies q_0 < q_1 < ... and their shares w_j of
    ``table``, summed over the levels its SNR keeps. erfcx(x) = exp(x^2)
    erfc(x) decreases (Mills' ratio), so with x_j^2 = gamma q_j / 2 each term
    is at most w_j erfc(x_0) exp(-gamma (q_j - q_0) / 2). A level with
    gamma (q_j - q_0) / 2 > T = ``table.cutoff`` is dropped: the dropped
    terms sum to at most 2^-53 w_0 erfc(x_0), at most 2^-53 of the value, so
    a value lies within a few ulps of the full sum. An SNR of 0 or NaN keeps
    every level.

    The SNRs are sorted, so that the kept-level count falls along them, and
    walked in runs of equal counts, at most ``BEP_CHUNK_ROWS`` SNRs each.
    Each run evaluates its Q terms in place over exactly its levels, and
    ``np.einsum`` (not a BLAS gemv) sums each row on its own. A value
    therefore depends only on its own SNR, bit for bit: not on how the SNRs
    are grouped into calls, nor on the BLAS build or its thread count.
    """
    gammas = np.asarray(gammas, dtype=float)
    if n_t == 1:
        return np.zeros_like(gammas)
    quarter, weights, gap = table.quarter, table.weights, table.gap
    n = gammas.size
    if n == 1:
        # one SNR (the outage quadrature's calls): no sort and no run walk
        g = float(gammas[0])
        k = gap.searchsorted(2.0 * table.cutoff / g, "right") if g else gap.size
        vals = _q_sums(g * quarter[None, :k], weights[:k])
    else:
        # levels kept per SNR: those with gap <= 2T / gamma, every one at 0
        # (a division by zero) or NaN
        order = np.argsort(gammas)
        g = gammas[order]
        with np.errstate(divide="ignore", invalid="ignore"):
            keep = gap.searchsorted(2.0 * table.cutoff / g, "right")
        starts = np.union1d(np.flatnonzero(np.diff(keep)) + 1,
                            np.arange(0, n, BEP_CHUNK_ROWS))
        scratch = np.empty(min(n, BEP_CHUNK_ROWS) * quarter.size)
        vals = np.empty(n)
        for start, stop in zip(starts, [*starts[1:], n]):
            k = keep[start]
            part = scratch[:(stop - start) * k].reshape(stop - start, k)
            np.multiply(g[start:stop, None], quarter[:k], out=part)
            vals[order[start:stop]] = _q_sums(part, weights[:k])
    vals = ((n_t / 2.0) * table.bits) * vals
    # no sum is negative, so the clamp is a minimum (far cheaper than np.clip
    # on the quadrature's one-SNR calls)
    return np.minimum(vals, 1.0) if clamp else vals


# ---------------------------------------------------------------------------
# Exact three-user QPSK bit error probabilities
# ---------------------------------------------------------------------------


def conditional_bep_u2(gamma2: float, a2: float, a3: float) -> float:
    """Exact conditional BEP of U2 (QPSK, weaker user treated as noise)."""
    z1, z2, *_ = zeta_set(a2, a3)
    return float(0.5 * (q_func(np.sqrt(z1 * gamma2)) + q_func(np.sqrt(z2 * gamma2))))


def abep_u2(a2: float, a3: float, gamma_bar_2: float, n_r: int) -> float:
    """Exact ABEP of U2 for the three-user QPSK network."""
    _check_two_user_pa(a2, a3)
    total = 0.0
    for zc in zeta_set(a2, a3)[:2]:
        mu = np.sqrt(zc * gamma_bar_2 / (2.0 + zc * gamma_bar_2))
        total += 0.5 * rayleigh_q_average(mu, n_r)
    return total


_U3_SIGNS = (1.0, -1.0, 1.0, -1.0, 1.0)
_U3_WEIGHTS = (1.0, 1.0, 2.0, 1.0, 1.0)


def conditional_bep_u3_correct(gamma3: float, a2: float, a3: float) -> float:
    """BEP of U3 jointly with a correct SIC decision on U2's symbol."""
    _, z2, z3, _, _ = zeta_set(a2, a3)
    return float(0.5 * (2 * q_func(np.sqrt(z3 * gamma3)) - q_func(np.sqrt(z2 * gamma3))))


def conditional_bep_u3_error(gamma3: float, a2: float, a3: float) -> float:
    """BEP of U3 jointly with an erroneous SIC decision on U2's symbol."""
    z1, _, _, z4, z5 = zeta_set(a2, a3)
    return float(0.5 * (
        q_func(np.sqrt(z1 * gamma3))
        - q_func(np.sqrt(z4 * gamma3))
        + q_func(np.sqrt(z5 * gamma3))
    ))


def conditional_bep_u3(gamma3: float, a2: float, a3: float) -> float:
    """Exact conditional BEP of U3: correct-SIC and erroneous-SIC branches."""
    return conditional_bep_u3_correct(gamma3, a2, a3) + conditional_bep_u3_error(gamma3, a2, a3)


def abep_u3(a2: float, a3: float, gamma_bar_3: float, n_r: int) -> float:
    """Exact ABEP of U3: five-term alternating sum over the energy levels."""
    _check_two_user_pa(a2, a3)
    total = 0.0
    for zc, sign, weight in zip(zeta_set(a2, a3), _U3_SIGNS, _U3_WEIGHTS):
        mu = np.sqrt(zc * gamma_bar_3 / (2.0 + zc * gamma_bar_3))
        total += 0.5 * weight * sign * rayleigh_q_average(mu, n_r)
    return total


# ---------------------------------------------------------------------------
# Union bound with SIC error propagation (arbitrary L, arbitrary modulation)
# ---------------------------------------------------------------------------


def _average_pep(beta, vartheta, sigma_i_sq: float, n_r: int):
    """Rayleigh-averaged pairwise error probability of decision statistics
    ``beta`` with scale ``vartheta`` (scalars or arrays), clamped to [0, 1]."""
    num = sigma_i_sq * beta**2
    xi = np.sign(beta) * np.sqrt(num / (2.0 * vartheta**2 + num))
    return np.clip(rayleigh_q_average(xi, n_r), 0.0, 1.0)


# joint hypotheses the exact union bound enumerates at most: every user of
# L <= 5 QPSK and L <= 4 16-QAM networks (L = 4 16-QAM user 4 needs 15.7M)
_UNION_BOUND_BUDGET = 1 << 24
# (tuple, path, branch) entries evaluated at once, which bounds the memory
_UNION_BOUND_CHUNK = 1 << 18


def _union_bound_block(s, tx, consts, coeffs, rho, sigma_i_sq, n_r):
    """BER bound of the stage-s power user conditioned on each transmitted
    tuple (rows of ``tx``), one SIC stage at a time over every residual-error
    path.

    A path fixes the decision of every stage before the current one: slot 0
    is the correct symbol, slots 1..M-1 the wrong ones in index order. Each
    stage weighs its wrong decisions by their average PEPs, scaled so they
    sum to at most 1 (a stage error probability is at most 1); the last stage
    sums stage s's bit-distance-weighted own-error PEPs, capped at 1. The
    stages are then folded back: a path's bound is its correct branch plus
    each wrong branch's weight times that branch's bound.
    """
    n_tx = tx.shape[0]
    amps = np.sqrt(np.asarray(coeffs) * rho)
    symbols = [c.points[tx[:, q]] for q, c in enumerate(consts)]
    sic = np.zeros((n_tx, 1), dtype=complex)  # sum of amp*conj(residual error)
    weights = []
    for q in range(s + 1):
        order = consts[q].order
        wrong = np.array([[n for n in range(order) if n != k] for k in range(order)])
        delta = symbols[q][:, None] - consts[q].points[wrong[tx[:, q]]]
        interference = sum((amps[p] * np.conj(symbols[p]) for p in range(q + 1, len(consts))),
                           np.zeros(n_tx, dtype=complex))
        beta = (amps[q] * np.abs(delta) ** 2
                + 2.0 * np.real(delta * interference[:, None]))[:, None, :]
        beta = beta + 2.0 * np.real(delta[:, None, :] * sic[:, :, None])
        pep = _average_pep(beta, np.sqrt(2.0) * np.abs(delta)[:, None, :], sigma_i_sq, n_r)
        if q == s:
            dist = consts[s].bit_distance_table()[tx[:, s][:, None], wrong[tx[:, s]]]
            bound = np.minimum(1.0, np.sum(dist[:, None, :] / consts[s].bits_per_symbol * pep,
                                           axis=2))
            break
        total = pep.sum(axis=2, keepdims=True)
        scale = np.minimum(1.0, np.divide(1.0, total, out=np.zeros_like(total),
                                          where=total > 0.0))
        weights.append(scale * pep)
        erred = sic[:, :, None] + amps[q] * np.conj(delta)[:, None, :]
        sic = np.concatenate([sic[:, :, None], erred], axis=2).reshape(n_tx, -1)
    for w in reversed(weights):
        paths = bound.reshape(n_tx, w.shape[1], -1)
        bound = paths[:, :, 0] + np.sum(w * paths[:, :, 1:], axis=2)
    return bound[:, 0]


def union_bound_ber(s: int, constellations, pa: PowerAllocation, rho: float,
                    sigma_i_sq: float, n_r: int) -> float:
    """Union bound on the BER of the power user at SIC stage s: enumerate the
    transmitted tuple, every joint SIC-decision hypothesis for the stages
    before s and every own-symbol error; each term carries the probability of
    the SIC errors it assumes so the bound stays tight at high SNR.

    The sum is exact, evaluated with numpy in chunks of transmitted tuples.
    Beyond ``_UNION_BOUND_BUDGET`` joint hypotheses it raises ``ConfigError``.
    """
    _check_stage(s, pa)
    consts = list(constellations)
    if len(consts) != pa.n_users:
        raise InputError("one constellation per power-multiplexed user required")
    orders = [c.order for c in consts]
    n_hyp = prod(orders) * prod(orders[:s]) * (orders[s] - 1)
    if n_hyp > _UNION_BOUND_BUDGET:
        raise ConfigError(
            f"{n_hyp} joint hypotheses exceed the enumeration budget {_UNION_BOUND_BUDGET}"
        )
    n_tuples = prod(orders)
    chunk = max(1, _UNION_BOUND_CHUNK // prod(orders[:s + 1]))
    total = 0.0
    for start in range(0, n_tuples, chunk):
        tx = np.stack(np.unravel_index(np.arange(start, min(start + chunk, n_tuples)),
                                       orders), axis=1)
        total += float(np.sum(_union_bound_block(s, tx, consts, pa.coefficients, rho,
                                                 sigma_i_sq, n_r)))
    return _clamp(total / n_tuples)


# ---------------------------------------------------------------------------
# Ergodic capacity
# ---------------------------------------------------------------------------


def _log_capacity_integral(eta: float, n_r: int) -> float:
    """Closed form of E[log2(1 + b*gamma)] with eta = b * gamma_bar."""
    if eta == 0.0:
        return 0.0
    total = 0.0
    for lam in range(n_r):
        coef = factorial(n_r - 1) / factorial(n_r - 1 - lam)
        term = ((-1.0) ** (n_r - lam - 2) / eta ** (n_r - 1 - lam)
                * np.exp(1.0 / eta) * exp_integral(-1.0 / eta))
        term += sum(
            factorial(v - 1) / (-eta) ** (n_r - 1 - lam - v)
            for v in range(1, n_r - lam)
        )
        total += coef * term
    return float(np.log2(np.e) / factorial(n_r - 1) * total)


def ergodic_capacity_fractions(b_with: float, b_without: float, gamma_bar: float,
                               n_r: int) -> float:
    """Ergodic rate E[log2(1 + b_with*gamma)] - E[log2(1 + b_without*gamma)]."""
    return (_log_capacity_integral(b_with * gamma_bar, n_r)
            - _log_capacity_integral(b_without * gamma_bar, n_r))


def ergodic_capacity_noma_user(k: int, pa: PowerAllocation, rho: float,
                               sigma_i_sq: float, n_r: int) -> float:
    """Exact ergodic capacity of the power user at SIC stage k."""
    _check_stage(k, pa)
    own_and_weaker = pa.coefficients[k:]
    return ergodic_capacity_fractions(sum(own_and_weaker), sum(own_and_weaker[1:]),
                                      rho * sigma_i_sq, n_r)


def ergodic_capacity_u1(n_t: int, abep1: float) -> float:
    """Ergodic capacity of the cell-edge user: antenna bits detected correctly."""
    if not 0.0 <= abep1 <= 1.0:
        raise InputError("abep1 must lie in [0, 1]")
    return float(np.log2(n_t) * (1.0 - abep1))


# ---------------------------------------------------------------------------
# Outage
# ---------------------------------------------------------------------------


def outage_threshold_psi(k: int, pa: PowerAllocation, rates) -> float:
    """Equivalent MRC-SNR outage threshold of the power user at SIC stage k:
    the max over stages m = 0..k of the SNR level below which stage m's SINR
    misses its Shannon threshold phi_m = 2**R_m - 1; +inf when a stage can
    never meet it. ``rates`` are the power users' target rates in decoding
    order."""
    _check_stage(k, pa)
    if len(rates) != pa.n_users:
        raise InputError("one target rate per power-multiplexed user required")
    coeffs = pa.coefficients
    worst = 0.0
    for m in range(k + 1):
        phi = 2.0 ** rates[m] - 1.0
        denom = coeffs[m] - phi * sum(coeffs[m + 1:])
        if denom <= 0:
            return float("inf")
        worst = max(worst, phi / denom)
    return worst


def outage_noma_user(k: int, pa: PowerAllocation, rates, rho: float,
                     sigma_i_sq: float, n_r: int) -> float:
    """Average outage probability of the power user at SIC stage k, with the
    power users' target ``rates`` in decoding order."""
    psi = outage_threshold_psi(k, pa, rates)
    if not np.isfinite(psi):
        return 1.0
    return float(chi2_cdf(psi, n_r, rho * sigma_i_sq))


def outage_u1(targets: OutageTargets, n_t: int, table: PairEnergyTable, n_r: int,
              rho: float, sigma1_sq: float) -> float:
    """Outage probability of the cell-edge user: tail integral of the
    conditional BEP against the fading density, as printed in the source
    analysis (the lower limit is applied to the SNR variable)."""
    # the only user of scipy.integrate, whose import would add about half to
    # the package's import time and a third to its memory
    from scipy import integrate

    r1 = targets.rates[0]
    if r1 > np.log2(n_t) + 1e-12:
        raise ConfigError(f"target rate {r1} exceeds log2(N_t) = {np.log2(n_t)}")
    psi1 = 1.0 - r1 / np.log2(n_t)
    gbar = rho * sigma1_sq

    def integrand(g):
        bep = conditional_bep_u1_vec(np.array([g]), table, n_t)[0]
        return float(bep) * chi2_pdf(g, n_r, gbar)

    upper = gbar * (n_r + 40.0 * np.sqrt(n_r))
    full, _ = integrate.quad(integrand, 0.0, upper, epsabs=1e-8, limit=200)
    if psi1 <= 0.0:
        return _clamp(full)
    head, _ = integrate.quad(integrand, 0.0, min(psi1, upper), epsabs=1e-8, limit=200)
    return _clamp(full - head)
