"""Closed-form performance expressions: exact ABEP for the three-user QPSK
network, pairwise-error union bounds with SIC error propagation, ergodic
capacities and outage probabilities, plus the special functions they need.

All fading averages assume the MRC output SNR is chi-square with 2*N_r
degrees of freedom and per-branch mean gamma_bar = rho * sigma_i^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod
from typing import NamedTuple

import numpy as np
from scipy import integrate, special

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
    """Target rates for users 1..L; ``literal_phi`` selects the printed
    threshold form 2**(R-1) instead of the Shannon inversion 2**R - 1."""

    rates: tuple
    literal_phi: bool = False

    def __post_init__(self):
        r = as_tuple("target_rates", self.rates, float)
        object.__setattr__(self, "rates", r)
        if any(x <= 0 for x in r):
            raise ConfigError("target rates must be positive")

    def rate(self, user: int) -> float:
        return self.rates[user - 1]

    def phi(self, user: int) -> float:
        r = self.rate(user)
        return 2.0 ** (r - 1.0) if self.literal_phi else 2.0**r - 1.0


def _check_two_user_pa(a2: float, a3: float):
    if abs(a2 + a3 - 1.0) > 1e-9 or a2 <= a3:
        raise ConfigError("need a2 + a3 = 1 with a2 > a3")


def _clamp(p: float) -> float:
    return min(1.0, max(0.0, p))


def _check_power_user(i: int, pa: PowerAllocation, first_user: int = 2):
    last = pa.n_users + first_user - 1
    if not first_user <= i <= last:
        raise InputError(f"user index {i} out of {first_user}..{last}")


# ---------------------------------------------------------------------------
# Cell-edge user: union bound on the SM detection
# ---------------------------------------------------------------------------


class PairEnergyTable(NamedTuple):
    """The cell-edge union bound's pair table of one composite alphabet:
    its distinct pair energies |chi_k|^2 + |chi_hat|^2 over the ordered
    composite-symbol pairs, quartered, with the share of pairs at each."""

    quarter: np.ndarray  # each level / 4 (exact), ascending
    weights: np.ndarray  # share of the M_T^2 ordered pairs at each level
    bits: float          # log2 M_T


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
    return PairEnergyTable(e[head] / 4.0, pairs / alphabet.size**2, np.log2(alphabet.size))


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


# scipy's erfc is exactly 0 once x*x exceeds MAXLOG = log(DBL_MAX), that is
# from x = 26.6418 on (cephes ndtr.c), so a pair term whose argument is at
# least this contributes nothing
ERFC_ZERO_FROM = 26.65
# the cell-edge BEP curve evaluates an erfc table of up to this many entries
# (2 MB) whole, and a larger one in chunks of BEP_CHUNK_ROWS SNRs
_BEP_WHOLE_ENTRIES = 1 << 18
BEP_CHUNK_ROWS = 1024
_SQRT2 = np.sqrt(2.0)


def conditional_bep_u1_vec(gammas: np.ndarray, table: PairEnergyTable,
                           n_t: int, clamp: bool = True) -> np.ndarray:
    """BEP of the cell-edge user conditioned on each instantaneous MRC SNR,
    clamped to [0, 1] unless ``clamp`` is false.

    Each value is ``(N_t / 2) log2(M_T) * einsum("ij,j->i", Q(sqrt(gamma *
    levels / 4)), weights)`` as one dense table would give it, bit for bit:
    the einsum sums each row on its own, so a row's value does not depend on
    its neighbours or on a BLAS build. A table of up to
    ``_BEP_WHOLE_ENTRIES`` entries is evaluated whole. Beyond it the SNRs are
    sorted and walked in chunks of ``BEP_CHUNK_ROWS``, and each chunk
    evaluates erfc only up to the last level whose argument is below
    ``ERFC_ZERO_FROM`` at the chunk's smallest SNR: the later terms of every
    row in the chunk are exactly 0.
    """
    gammas = np.asarray(gammas, dtype=float)
    if n_t == 1:
        return np.zeros_like(gammas)
    quarter, weights = table.quarter, table.weights
    n = gammas.size
    if n * quarter.size <= _BEP_WHOLE_ENTRIES:
        vals = np.einsum("ij,j->i", 0.5 * special.erfc(
            np.sqrt(gammas[:, None] * quarter) / _SQRT2), weights)
    else:
        order = np.argsort(gammas)
        scratch = np.empty(BEP_CHUNK_ROWS * quarter.size)
        vals = np.empty(n)
        for start in range(0, n, BEP_CHUNK_ROWS):
            idx = order[start:start + BEP_CHUNK_ROWS]
            g = gammas[idx]
            # levels up to the last one whose erfc argument at the chunk's
            # smallest SNR is below ERFC_ZERO_FROM (a NaN stays live), as an
            # erfc table evaluated in place
            x = np.sqrt(g.min() * quarter) / _SQRT2
            live = np.flatnonzero(~(x >= ERFC_ZERO_FROM))
            p = live[-1] + 1 if live.size else 0
            part = scratch[:g.size * p].reshape(g.size, p)
            np.multiply(g[:, None], quarter[:p], out=part)
            np.sqrt(part, out=part)
            np.divide(part, _SQRT2, out=part)
            special.erfc(part, out=part)
            np.multiply(part, 0.5, out=part)
            vals[idx] = np.einsum("ij,j->i", part, weights[:p])
    vals = ((n_t / 2.0) * table.bits) * vals
    return np.clip(vals, 0.0, 1.0) if clamp else vals


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
    """BER bound of user s+2 conditioned on each transmitted tuple (rows of
    ``tx``), one SIC stage at a time over every residual-error path.

    A path fixes the decision of every stage before the current one: slot 0
    is the correct symbol, slots 1..M-1 the wrong ones in index order. Each
    stage weighs its wrong decisions by their average PEPs, scaled so they
    sum to at most 1 (a stage error probability is at most 1); the last stage
    sums user s+2's bit-distance-weighted own-error PEPs, capped at 1. The
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


def union_bound_ber(i: int, constellations, pa: PowerAllocation, rho: float,
                    sigma_i_sq: float, n_r: int) -> float:
    """Union bound on the BER of intra-cell user i (2..L): enumerate the
    transmitted tuple, every joint SIC-decision hypothesis for users decoded
    before i and every own-symbol error; each term carries the probability of
    the SIC errors it assumes so the bound stays tight at high SNR.

    The sum is exact, evaluated with numpy in chunks of transmitted tuples.
    Beyond ``_UNION_BOUND_BUDGET`` joint hypotheses it raises ``ConfigError``.
    """
    _check_power_user(i, pa)
    consts = list(constellations)
    if len(consts) != pa.n_users:
        raise InputError("one constellation per power-multiplexed user required")
    orders = [c.order for c in consts]
    s = i - 2
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


def ergodic_capacity_noma_user(i: int, pa: PowerAllocation, rho: float,
                               sigma_i_sq: float, n_r: int,
                               first_user: int = 2) -> float:
    """Exact ergodic capacity of power-multiplexed user i; ``pa`` covers
    users ``first_user``..L (2 for SSK-NOMA, 1 for the baseline)."""
    _check_power_user(i, pa, first_user)
    own_and_weaker = pa.coefficients[i - first_user:]
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


def outage_threshold_psi(i: int, pa: PowerAllocation, targets: OutageTargets,
                         first_user: int = 2) -> float:
    """Equivalent MRC-SNR outage threshold of power-multiplexed user i: the
    max over decoding stages m = first_user..i of the SNR level below which
    stage m's SINR misses its threshold; +inf when a stage can never meet it.
    ``pa`` covers users ``first_user``..L (2 for SSK-NOMA, 1 for the baseline).
    """
    _check_power_user(i, pa, first_user)
    coeffs = pa.coefficients
    worst = 0.0
    for k in range(i - first_user + 1):
        phi = targets.phi(first_user + k)
        denom = coeffs[k] - phi * sum(coeffs[k + 1:])
        if denom <= 0:
            return float("inf")
        worst = max(worst, phi / denom)
    return worst


def outage_noma_user(i: int, pa: PowerAllocation, targets: OutageTargets,
                     rho: float, sigma_i_sq: float, n_r: int,
                     first_user: int = 2) -> float:
    """Average outage probability of power-multiplexed user i."""
    psi = outage_threshold_psi(i, pa, targets, first_user)
    if not np.isfinite(psi):
        return 1.0
    return float(chi2_cdf(psi, n_r, rho * sigma_i_sq))


def outage_u1(targets: OutageTargets, n_t: int, table: PairEnergyTable, n_r: int,
              rho: float, sigma1_sq: float) -> float:
    """Outage probability of the cell-edge user: tail integral of the
    conditional BEP against the fading density, as printed in the source
    analysis (the lower limit is applied to the SNR variable)."""
    r1 = targets.rate(1)
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
