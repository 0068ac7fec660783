"""Closed forms the package itself does not evaluate, kept as test oracles:
the Gaussian tail Q, the chi-square fading density, the three-user QPSK
network's conditional BEPs, whose fading averages the exact ABEPs
``abep_u2`` and ``abep_u3`` give in closed form, the quadrature of the
mean that the capacity closed form gives, and the cell-edge user's
conditional BEP curve before its clamp, from all M_T^2 symbol pairs: one
SNR at a time over the levels the library keeps, or as one dense table over
every level. Also M-PSK, a constellation the package does not build, on
which the closed forms that take any constellation are tested."""

from math import factorial

import numpy as np
from scipy import integrate, special

from ssknoma.analytics import zeta_set
from ssknoma.constellation import UserConstellation
from ssknoma.errors import InputError


def psk(order: int) -> UserConstellation:
    """M-PSK with reflected-Gray labels, points at angles 2 pi n / M. Above
    order 4 it is not a grid of its real and imaginary parts, so the
    receivers cannot decide on it and ``make_constellation`` rejects it."""
    n = np.arange(order)
    return UserConstellation(np.exp(2j * np.pi * n / order), n ^ (n >> 1))


def q_func(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def chi2_pdf(gamma, n_r: int, gamma_bar: float):
    """PDF of the MRC output SNR (2*N_r-degree chi-square, branch mean
    gamma_bar), whose CDF is ``ssknoma.analytics.chi2_cdf``."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise InputError("gamma must be nonnegative")
    return (
        gamma ** (n_r - 1)
        * np.exp(-gamma / gamma_bar)
        / (factorial(n_r - 1) * gamma_bar**n_r)
    )


def capacity_quad(eta: float, n_r: int) -> float:
    """E[log2(1 + eta * t)] with t ~ Gamma(N_r, 1), by quadrature at 1e-13
    relative, split at the density's mode; the density is taken in log space
    so that no power of t overflows far in the tail."""
    def integrand(t):
        return np.log1p(eta * t) / np.log(2.0) * np.exp(
            (n_r - 1) * np.log(t) - t - special.gammaln(n_r))
    return sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
               for lo, hi in ((0.0, n_r), (n_r, np.inf)))


def conditional_bep_u2(gamma2: float, a2: float, a3: float) -> float:
    """Exact conditional BEP of U2 (QPSK, weaker user treated as noise)."""
    z1, z2, *_ = zeta_set(a2, a3)
    return float(0.5 * (q_func(np.sqrt(z1 * gamma2)) + q_func(np.sqrt(z2 * gamma2))))


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


def pair_energy_levels(alphabet):
    """Distinct pair energies |chi_k|^2 + |chi_hat|^2 over all M_T^2 ordered
    composite-symbol pairs, grouped by their value rounded to 12 decimals,
    each the energy of its group's first pair; with the share of pairs at
    each."""
    energy = np.abs(alphabet) ** 2
    e = (energy[:, None] + energy[None, :]).ravel()
    _, first, counts = np.unique(np.round(e, 12), return_index=True, return_counts=True)
    return e[first], counts / e.size


def level_cutoff(quarter, weights):
    """The gaps q_j - q_0 of the quartered levels ``quarter`` and the level
    cutoff T = 53 ln 2 + ln(sum_{j>=1} w_j / w_0) (0 for one level) of their
    shares ``weights``: an SNR gamma keeps the levels with gap <= 2T / gamma."""
    rest = weights[1:].sum()
    cutoff = 53.0 * np.log(2.0) + np.log(rest / weights[0]) if rest > 0 else 0.0
    return quarter - quarter[0], cutoff


def kept_level_bep_u1(alphabet, n_t: int):
    """The cell-edge BEP curve of ``alphabet`` at ``n_t`` antennas, unclamped,
    as a function of an array of SNRs: ``(N_t / 2) log2(M_T) * sum_j w_j
    Q(sqrt(gamma q_j))`` one SNR at a time, each summed with one einsum over
    exactly the levels it keeps: every level q_j with gamma (q_j - q_0) / 2
    <= T = 53 ln 2 + ln(sum_{j>=1} w_j / w_0) (T = 0 for one level), and
    every level at gamma = 0. This is what
    ``ssknoma.analytics.conditional_bep_u1_vec`` computes, bit for bit,
    before it clamps to 1."""
    levels, weights = pair_energy_levels(alphabet)
    quarter = levels / 4.0
    gap, cutoff = level_cutoff(quarter, weights)
    scale = (n_t / 2.0) * np.log2(alphabet.size)

    def curve(gammas):
        sums = np.empty(len(gammas))
        for i, g in enumerate(map(float, gammas)):
            keep = ~(gap > 2.0 * cutoff / g) if g else np.ones(gap.size, dtype=bool)
            sums[i] = np.einsum("ij,j->i", q_func(np.sqrt(g * quarter[keep]))[None, :],
                                weights[keep])[0]
        return scale * sums

    return curve


def dense_bep_u1(alphabet, n_t: int):
    """The cell-edge BEP curve of ``alphabet`` at ``n_t`` antennas over every
    level, unclamped, as a function of an array of SNRs: one dense erfc
    table and one einsum."""
    levels, weights = pair_energy_levels(alphabet)
    scale = (n_t / 2.0) * np.log2(alphabet.size)
    return lambda gammas: scale * np.einsum(
        "ij,j->i", q_func(np.sqrt(gammas[:, None] * levels / 4.0)), weights)
