"""Closed-form performance expressions: exact ABEP for the three-user QPSK
network, pairwise-error union bounds with SIC error propagation, ergodic
capacities and outage probabilities, plus the special functions they need.

All fading averages assume the MRC output SNR is chi-square with 2*N_r
degrees of freedom and per-branch mean gamma_bar = rho * sigma_i^2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial, prod

import numpy as np
from scipy import integrate, special

from .constellation import PowerAllocation, ScAlphabet
from .errors import ConfigError, InputError

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


@dataclass(frozen=True)
class ZetaSet:
    """Composite-symbol energy levels derived from (a_2, a_3)."""

    zeta1: float
    zeta2: float
    zeta3: float
    zeta4: float
    zeta5: float

    def as_tuple(self):
        return (self.zeta1, self.zeta2, self.zeta3, self.zeta4, self.zeta5)


def zeta_set(a2: float, a3: float) -> ZetaSet:
    r2, r3 = np.sqrt(a2), np.sqrt(a3)
    return ZetaSet(
        (r2 - r3) ** 2, (r2 + r3) ** 2, a3, (2 * r2 - r3) ** 2, (2 * r2 + r3) ** 2
    )


@dataclass(frozen=True)
class PepTerm:
    """Signed decision statistic of one pairwise symbol error."""

    delta_i: complex
    beta_i: float
    vartheta: float


@dataclass(frozen=True)
class OutageTargets:
    """Target rates for users 1..L; ``literal_phi`` selects the printed
    threshold form 2**(R-1) instead of the Shannon inversion 2**R - 1."""

    rates: tuple
    literal_phi: bool = False

    def __post_init__(self):
        r = tuple(float(x) for x in self.rates)
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


def _pair_energy_levels(alphabet: ScAlphabet):
    """Distinct pair energies |chi_k|^2 + |chi_hat|^2 over all ordered
    composite-symbol pairs, with the share of pairs at each level. The pair
    energies collapse to a handful of levels even for large alphabets; each
    level is the energy of its first pair, not the rounded grouping key."""
    energy = np.abs(alphabet.values) ** 2
    e = (energy[:, None] + energy[None, :]).ravel()
    _, first, counts = np.unique(np.round(e, 12), return_index=True,
                                 return_counts=True)
    return e[first], counts / e.size


def abep_u1(alphabet: ScAlphabet, n_t: int, n_r: int, rho: float,
            sigma1_sq: float, clamp: bool = True) -> float:
    """Union bound on the cell-edge user's ABEP: antenna-pair factor times the
    pairwise error probability averaged uniformly over all ordered composite
    symbol pairs, each weighted by log2(M_T)."""
    if n_t == 1:
        return 0.0
    if rho <= 0 or sigma1_sq <= 0:
        raise InputError("rho and sigma1_sq must be positive")
    levels, weights = _pair_energy_levels(alphabet)
    sigma_a_sq = rho * sigma1_sq * levels / 4.0
    mu = np.sqrt(sigma_a_sq / (2.0 + sigma_a_sq))
    peps = np.log2(alphabet.size) * rayleigh_q_average(mu, n_r)
    bound = (n_t / 2.0) * float(peps @ weights)
    return _clamp(bound) if clamp else bound


def _bep_u1_curve(alphabet: ScAlphabet, n_t: int, clamp: bool):
    """Cell-edge BEP as a function of an array of instantaneous MRC SNRs,
    with the pair-energy levels built once."""
    levels, weights = _pair_energy_levels(alphabet)
    scale = (n_t / 2.0) * np.log2(alphabet.size)

    def bep(gammas: np.ndarray) -> np.ndarray:
        vals = scale * (q_func(np.sqrt(gammas[:, None] * levels[None, :] / 4.0)) @ weights)
        return np.clip(vals, 0.0, 1.0) if clamp else vals

    return bep


def conditional_bep_u1_vec(gammas: np.ndarray, alphabet: ScAlphabet,
                           n_t: int, clamp: bool = True) -> np.ndarray:
    """BEP of the cell-edge user conditioned on each instantaneous MRC SNR,
    clamped to [0, 1] unless ``clamp`` is false."""
    gammas = np.asarray(gammas, dtype=float)
    if n_t == 1:
        return np.zeros_like(gammas)
    return _bep_u1_curve(alphabet, n_t, clamp)(gammas)


def conditional_bep_u1(gamma1: float, alphabet: ScAlphabet, n_t: int,
                       clamp: bool = True) -> float:
    """Scalar :func:`conditional_bep_u1_vec`."""
    if gamma1 < 0:
        raise InputError("gamma1 must be nonnegative")
    return float(conditional_bep_u1_vec(np.array([gamma1]), alphabet, n_t, clamp)[0])


# ---------------------------------------------------------------------------
# Exact three-user QPSK bit error probabilities
# ---------------------------------------------------------------------------


def conditional_bep_u2(gamma2: float, a2: float, a3: float) -> float:
    """Exact conditional BEP of U2 (QPSK, weaker user treated as noise)."""
    z = zeta_set(a2, a3)
    return float(0.5 * (q_func(np.sqrt(z.zeta1 * gamma2)) + q_func(np.sqrt(z.zeta2 * gamma2))))


def abep_u2(a2: float, a3: float, gamma_bar_2: float, n_r: int) -> float:
    """Exact ABEP of U2 for the three-user QPSK network."""
    _check_two_user_pa(a2, a3)
    z = zeta_set(a2, a3)
    total = 0.0
    for zc in (z.zeta1, z.zeta2):
        mu = np.sqrt(zc * gamma_bar_2 / (2.0 + zc * gamma_bar_2))
        total += 0.5 * rayleigh_q_average(mu, n_r)
    return total


_U3_SIGNS = (1.0, -1.0, 1.0, -1.0, 1.0)
_U3_WEIGHTS = (1.0, 1.0, 2.0, 1.0, 1.0)


def conditional_bep_u3_correct(gamma3: float, a2: float, a3: float) -> float:
    """BEP of U3 jointly with a correct SIC decision on U2's symbol."""
    z = zeta_set(a2, a3)
    return float(0.5 * (2 * q_func(np.sqrt(z.zeta3 * gamma3)) - q_func(np.sqrt(z.zeta2 * gamma3))))


def conditional_bep_u3_error(gamma3: float, a2: float, a3: float) -> float:
    """BEP of U3 jointly with an erroneous SIC decision on U2's symbol."""
    z = zeta_set(a2, a3)
    return float(0.5 * (
        q_func(np.sqrt(z.zeta1 * gamma3))
        - q_func(np.sqrt(z.zeta4 * gamma3))
        + q_func(np.sqrt(z.zeta5 * gamma3))
    ))


def conditional_bep_u3(gamma3: float, a2: float, a3: float) -> float:
    """Exact conditional BEP of U3: correct-SIC and erroneous-SIC branches."""
    return conditional_bep_u3_correct(gamma3, a2, a3) + conditional_bep_u3_error(gamma3, a2, a3)


def abep_u3(a2: float, a3: float, gamma_bar_3: float, n_r: int) -> float:
    """Exact ABEP of U3: five-term alternating sum over the energy levels."""
    _check_two_user_pa(a2, a3)
    zetas = zeta_set(a2, a3).as_tuple()
    total = 0.0
    for zc, sign, weight in zip(zetas, _U3_SIGNS, _U3_WEIGHTS):
        mu = np.sqrt(zc * gamma_bar_3 / (2.0 + zc * gamma_bar_3))
        total += 0.5 * weight * sign * rayleigh_q_average(mu, n_r)
    return total


# ---------------------------------------------------------------------------
# Union bound with SIC error propagation (arbitrary L, arbitrary modulation)
# ---------------------------------------------------------------------------


def pep_term(s_i: complex, s_hat_i: complex, coeff_i: float, rho: float,
             interferer_terms, sic_terms) -> PepTerm:
    """Decision statistic of the pairwise error s_i -> s_hat_i.

    ``interferer_terms`` holds (a_p, s_p) for users decoded after i (treated
    as noise); ``sic_terms`` holds (a_q, delta_q) residual SIC errors of users
    decoded before i.
    """
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
    return PepTerm(delta, float(beta), float(np.sqrt(2.0) * abs(delta)))


def noma_pep(term: PepTerm, sigma_i_sq: float, n_r: int) -> float:
    """Average pairwise error probability over Rayleigh fading for one
    decision statistic; a negative statistic yields a probability above 1/2."""
    num = sigma_i_sq * term.beta_i**2
    xi = np.sign(term.beta_i) * np.sqrt(num / (2.0 * term.vartheta**2 + num))
    return _clamp(rayleigh_q_average(xi, n_r))


def noma_pep_symbols(i: int, s_i: complex, s_hat_i: complex, interferer_symbols,
                     sic_deltas, pa: PowerAllocation, rho: float,
                     sigma_i_sq: float, n_r: int) -> float:
    """Average PEP of user i's decision s_i -> s_hat_i given the interfering
    symbols s_p (p = i+1..L) and the residual SIC errors delta_q (q = 2..i-1)."""
    _check_power_user(i, pa)
    a = pa.coefficients
    interferers = list(zip(a[i - 1:], interferer_symbols))
    sic = list(zip(a[: i - 2], sic_deltas))
    term = pep_term(s_i, s_hat_i, a[i - 2], rho, interferers, sic)
    return noma_pep(term, sigma_i_sq, n_r)


@dataclass(frozen=True)
class UnionBoundResult:
    value: float
    ci_halfwidth: float
    exact: bool

    def __float__(self):
        return self.value


def _stage_branch_weights(q, tx, deltas, coeffs, consts, rho, sigma_i_sq, n_r):
    """Pairwise error weights of every wrong decision at SIC stage q (0-based
    slot, user q+2), given the residual errors accumulated so far."""
    n_users = len(coeffs)
    s_q = consts[q].points[tx[q]]
    interferers = [(coeffs[p], consts[p].points[tx[p]]) for p in range(q + 1, n_users)]
    branches = []
    for n in range(consts[q].order):
        if n == tx[q]:
            continue
        t = pep_term(s_q, consts[q].points[n], coeffs[q], rho, interferers,
                     list(deltas))
        branches.append((n, noma_pep(t, sigma_i_sq, n_r)))
    return branches


def _own_error_bound(i, tx, deltas, coeffs, consts, rho, sigma_i_sq, n_r) -> float:
    """Bit-distance-weighted own-symbol error sum of user i for one residual
    pattern, capped at 1 since it bounds a bit error ratio."""
    slot = i - 2
    dist = consts[slot].bit_distance_table()[tx[slot]]
    branches = _stage_branch_weights(slot, tx, deltas, coeffs, consts, rho,
                                     sigma_i_sq, n_r)
    return min(1.0, sum(dist[n] / consts[slot].bits_per_symbol * w for n, w in branches))


def _ber_given_tx(i, tx, q, deltas, coeffs, consts, rho, sigma_i_sq, n_r,
                  rng=None) -> float:
    """BER bound of user i conditioned on the transmitted tuple, recursing
    over the SIC stages. The wrong-branch weights at each stage are scaled so
    their sum never exceeds 1 (a stage error probability is at most 1), which
    keeps the bound from inflating once the conditional PEPs saturate.

    With ``rng`` set, one wrong branch per stage is sampled in proportion to
    its weight instead of enumerating all of them; the estimate stays
    unbiased because the branch sum multiplies the sampled subtree.
    """
    if q == i - 2:
        return _own_error_bound(i, tx, deltas, coeffs, consts, rho,
                                sigma_i_sq, n_r)
    total = _ber_given_tx(i, tx, q + 1, deltas, coeffs, consts, rho,
                          sigma_i_sq, n_r, rng)
    branches = _stage_branch_weights(q, tx, deltas, coeffs, consts, rho,
                                     sigma_i_sq, n_r)
    wsum = sum(w for _, w in branches)
    if wsum <= 0.0:
        return total
    scale = min(1.0, 1.0 / wsum)
    if rng is None:
        for n, w in branches:
            d = (coeffs[q], consts[q].points[tx[q]] - consts[q].points[n])
            total += scale * w * _ber_given_tx(i, tx, q + 1, deltas + [d],
                                               coeffs, consts, rho,
                                               sigma_i_sq, n_r, rng)
    else:
        weights = np.array([w for _, w in branches])
        n = branches[int(rng.choice(len(branches), p=weights / wsum))][0]
        d = (coeffs[q], consts[q].points[tx[q]] - consts[q].points[n])
        total += scale * wsum * _ber_given_tx(i, tx, q + 1, deltas + [d],
                                              coeffs, consts, rho,
                                              sigma_i_sq, n_r, rng)
    return total


def union_bound_ber(i: int, constellations, pa: PowerAllocation, rho: float,
                    sigma_i_sq: float, n_r: int, max_enum: int = 4096,
                    n_samples: int = 100_000, seed: int = 0,
                    allow_sampling: bool = True) -> UnionBoundResult:
    """Union bound on the BER of intra-cell user i (2..L): enumerate the
    transmitted tuple, every joint SIC-decision hypothesis for users decoded
    before i and every own-symbol error; each term carries the probability of
    the SIC errors it assumes so the bound stays tight at high SNR.

    Beyond ``max_enum`` joint hypotheses the sum is estimated by uniform
    subsampling and the result reports a 95% confidence half-width.
    """
    _check_power_user(i, pa)
    coeffs = pa.coefficients
    consts = list(constellations)
    if len(consts) != pa.n_users:
        raise InputError("one constellation per power-multiplexed user required")
    orders = [c.order for c in consts]
    m_i = orders[i - 2]
    n_hyp = prod(orders) * prod(orders[: i - 2]) * (m_i - 1)
    if n_hyp <= max_enum:
        total = 0.0
        for tx in itertools.product(*(range(m) for m in orders)):
            total += _ber_given_tx(i, tx, 0, [], coeffs, consts, rho,
                                   sigma_i_sq, n_r)
        return UnionBoundResult(_clamp(total / prod(orders)), 0.0, True)
    if not allow_sampling:
        raise ConfigError(
            f"{n_hyp} joint hypotheses exceed the enumeration budget {max_enum}"
        )
    rng = np.random.default_rng(seed)
    samples = np.empty(n_samples)
    for s in range(n_samples):
        tx = tuple(int(rng.integers(0, m)) for m in orders)
        samples[s] = _ber_given_tx(i, tx, 0, [], coeffs, consts, rho,
                                   sigma_i_sq, n_r, rng)
    mean = float(np.mean(samples))
    hw = 1.96 * float(np.std(samples, ddof=1)) / np.sqrt(n_samples)
    return UnionBoundResult(_clamp(mean), hw, False)


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


def sum_rate(rates) -> float:
    return float(sum(rates))


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


def outage_u1(targets: OutageTargets, n_t: int, alphabet: ScAlphabet, n_r: int,
              rho: float, sigma1_sq: float) -> float:
    """Outage probability of the cell-edge user: tail integral of the
    conditional BEP against the fading density, as printed in the source
    analysis (the lower limit is applied to the SNR variable)."""
    r1 = targets.rate(1)
    if r1 > np.log2(n_t) + 1e-12:
        raise ConfigError(f"target rate {r1} exceeds log2(N_t) = {np.log2(n_t)}")
    psi1 = 1.0 - r1 / np.log2(n_t)
    gbar = rho * sigma1_sq
    bep = _bep_u1_curve(alphabet, n_t, clamp=True)

    def integrand(g):
        return float(bep(np.array([g]))[0]) * chi2_pdf(g, n_r, gbar)

    upper = gbar * (n_r + 40.0 * np.sqrt(n_r))
    full, _ = integrate.quad(integrand, 0.0, upper, epsabs=1e-8, limit=200)
    if psi1 <= 0.0:
        return _clamp(full)
    head, _ = integrate.quad(integrand, 0.0, min(psi1, upper), epsabs=1e-8, limit=200)
    return _clamp(full - head)
