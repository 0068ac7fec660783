"""Closed-form performance expressions: exact ABEP for the three-user QPSK
network, pairwise-error union bounds with SIC error propagation, ergodic
capacities and outage probabilities, plus the special functions they need.

All fading averages assume the MRC output SNR is chi-square with 2*N_r
degrees of freedom and per-branch mean gamma_bar = rho * sigma_i^2. A
power-multiplexed user is named by its 0-based SIC stage k, its index in
the power coefficients ``pa`` (a_i in decoding order): one form serves
SSK-NOMA user k + 2 and baseline user k + 1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial, prod

import numpy as np

from .errors import ConfigError, InputError

# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------
#
# scipy.special is imported only inside the functions that evaluate erfc or
# E_n, so that importing the package or running a BER sweep never loads it:
# its import, which pulls in numpy.f2py and numpy.testing, takes longer than
# the rest of the package's, numpy's included.


def chi2_cdf(gamma, n_r: int, gamma_bar: float):
    """CDF of the MRC output SNR (2*N_r-degree chi-square, branch mean
    gamma_bar)."""
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
# Shared helpers
# ---------------------------------------------------------------------------


def zeta_set(a2: float, a3: float) -> tuple:
    """Composite-symbol energy levels (zeta_1, ..., zeta_5) derived from
    (a_2, a_3)."""
    r2, r3 = np.sqrt(a2), np.sqrt(a3)
    return (r2 - r3) ** 2, (r2 + r3) ** 2, a3, (2 * r2 - r3) ** 2, (2 * r2 + r3) ** 2


def _check_two_user_pa(a2: float, a3: float):
    if abs(a2 + a3 - 1.0) > 1e-9 or a2 <= a3:
        raise ConfigError("need a2 + a3 = 1 with a2 > a3")


def _clamp(p: float) -> float:
    return min(1.0, max(0.0, p))


def _check_stage(k: int, pa):
    """A power user's SIC stage k indexes the power coefficients ``pa``."""
    if not 0 <= k < len(pa):
        raise InputError(f"SIC stage {k} out of 0..{len(pa) - 1}")


# ---------------------------------------------------------------------------
# Cell-edge user: union bound on the SM detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairEnergyTable:
    """The cell-edge union bound's pair table of one composite alphabet and
    antenna count N_t: its distinct pair energies |chi_k|^2 + |chi_hat|^2
    over the ordered composite-symbol pairs, quartered, with the share of
    pairs at each and the level cutoff of :func:`conditional_bep_u1_vec`.

    ``saturation``, the SNR up to which its clamped curve is exactly 1, is
    bisected on first read and then kept on the table, so a pickled copy
    carries it and a table whose curve is never evaluated never bisects."""

    quarter: np.ndarray  # each level / 4 (exact), ascending
    weights: np.ndarray  # share of the M_T^2 ordered pairs at each level
    bits: float          # log2 M_T
    gap: np.ndarray      # quarter - quarter[0], ascending from 0
    cutoff: float        # T = 53 ln 2 + ln(sum_{j>=1} w_j / w_0), 0 for one level
    n_t: int             # transmit antennas N_t

    @cached_property
    def saturation(self) -> float:
        """gamma_sat: the clamped curve is 1.0 on [0, gamma_sat]."""
        return float(_saturation(self.quarter, self.weights, (self.n_t / 2.0) * self.bits))


# the dense curve stays this far above 1 at gamma_sat, far beyond its
# rounding error, so the computed curve clamps to 1 below it
_SATURATION_MARGIN = 2.0**-40


def _saturation(quarter: np.ndarray, weights: np.ndarray, scale: float) -> float:
    """The largest double gamma at which the dense curve ``scale * sum_j w_j
    Q(sqrt(gamma q_j))`` (every level, unclamped) is at least 1 + 2^-40;
    -inf if it is below that at 0 already, +inf if it never falls below it
    (a level q_0 = 0 keeps its Q term at 1/2).

    Bisected on the bit patterns of the doubles in [0, the largest finite
    double], which sort as their values do, to adjacent doubles: the curve
    is >= 1 + 2^-40 at the result and below it one ulp above it."""
    from scipy.special import erfc

    def above(bits):
        g = float(np.int64(bits).view(np.float64))
        return scale * _q_sums(g * quarter[None, :], weights, erfc)[0] >= 1.0 + _SATURATION_MARGIN

    lo, hi = 0, int(np.float64(np.finfo(float).max).view(np.int64))
    # gamma q_j may overflow to inf, whose Q term is 0
    with np.errstate(over="ignore"):
        if not above(lo):
            return -np.inf
        if above(hi):
            return np.inf
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return float(np.int64(lo).view(np.float64))


# Largest accepted count of distinct symbol energies in a composite alphabet.
# The pair table is built from every pair of them, at about 65 bytes and
# 0.25 us a pair on a 2-core Xeon with numpy 2.4: 2^11 energies stay near
# 270 MB and 1 s ([64, 256] has 2 046), where 8 000 (as [16, 4096] has) took
# 3.6 GB and 20 s.
_MAX_ENERGIES = 1 << 11


def distinct_energies(alphabet: np.ndarray):
    """``np.unique`` of the symbol energies |chi|^2 of ``alphabet``, with
    each one's first index and count; a ``ConfigError`` above the
    ``_MAX_ENERGIES`` its pair table takes. Cheap next to the table, so a
    config checks the count before any table is built."""
    values, first, counts = np.unique(np.abs(alphabet) ** 2, return_index=True,
                                      return_counts=True)
    if values.size > _MAX_ENERGIES:
        raise ConfigError(f"the composite alphabet has {values.size} distinct symbol energies, "
                          f"more than the {_MAX_ENERGIES} its pair table takes")
    return values, first, counts


def pair_energy_table(alphabet: np.ndarray, n_t: int) -> PairEnergyTable:
    """Pair table of ``alphabet`` for ``n_t`` >= 2 transmit antennas (fewer
    carry no cell-edge user, an ``InputError``), built from its distinct
    symbol energies: a pair's energy depends only on the energies of its two
    symbols, so the distinct energies are paired, each pair counted once per
    symbol pair behind it. The energies are taken in order of first
    appearance, so each level, grouped by its value rounded to 12 decimals,
    is the energy of the first of all M_T^2 symbol pairs (row by row) at that
    level.

    The table's ``saturation`` is gamma_sat, the largest double at which the
    dense curve (every level, unclamped) is at least 1 + 2^-40. It is not
    computed here but by bisection on its first read, which only the rate
    and outage metrics make, once per table. The exact curve does not
    increase with gamma, and a computed value lies within a few ulps of it
    plus the 2^-53 the level cutoff drops, so on [0, gamma_sat] the clamped
    curve is exactly 1.0 and is not evaluated. It is -inf (nothing skipped)
    when the curve starts below 1 + 2^-40, which N_t log2 M_T <= 4 implies;
    +inf when a composite symbol of zero energy keeps the curve above it."""
    if n_t < 2:
        raise InputError(f"the cell-edge user needs N_t >= 2 transmit antennas, got {n_t}")
    values, first, counts = distinct_energies(alphabet)
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
                           float(cutoff), n_t)


def abep_u1(table: PairEnergyTable, n_r: int, rho: float, sigma_sq: float,
            clamp: bool = True) -> float:
    """Cell-edge user's ABEP by the SSK union-bound sum: antenna-pair factor
    (N_t from ``table``) times the pairwise error probability averaged
    uniformly over all ordered composite symbol pairs (``table``), each
    weighted by log2(M_T). It is an approximation, not an upper bound: at
    L = 4 (M_T = 64) it lies below the simulated BER."""
    n_t = table.n_t
    if rho <= 0 or sigma_sq <= 0:
        raise InputError("rho and sigma_sq must be positive")
    sigma_a_sq = rho * sigma_sq * table.quarter
    mu = np.sqrt(sigma_a_sq / (2.0 + sigma_a_sq))
    peps = table.bits * rayleigh_q_average(mu, n_r)
    bound = (n_t / 2.0) * float(peps @ table.weights)
    return _clamp(bound) if clamp else bound


# the cell-edge BEP curve evaluates at most this many erfc terms at once
# (512 KiB of scratch), or one SNR's where it keeps more levels than that
BEP_CHUNK_ENTRIES = 1 << 16
# 0-d arrays: a ufunc takes them faster than a scalar, which the outage
# integrand's one-row calls feel, and computes the same doubles
_SQRT2 = np.array(np.sqrt(2.0))
_HALF = np.array(0.5)


def _q_sums(part: np.ndarray, weights: np.ndarray, erfc) -> np.ndarray:
    """Each row of ``part`` (gamma * quarter per SNR and level, overwritten)
    turned into its Q terms in place and summed on its own against
    ``weights``; ``erfc`` is scipy.special's, bound once by the caller."""
    np.sqrt(part, out=part)
    np.divide(part, _SQRT2, out=part)
    erfc(part, out=part)
    np.multiply(part, _HALF, out=part)
    return np.einsum("ij,j->i", part, weights)


def conditional_bep_u1_vec(gammas: np.ndarray, table: PairEnergyTable,
                           clamp: bool = True) -> np.ndarray:
    """BEP of the cell-edge user conditioned on each instantaneous MRC SNR,
    clamped to [0, 1] unless ``clamp`` is false.

    Each value is ``(N_t / 2) log2(M_T) * sum_j w_j Q(sqrt(gamma q_j))`` over
    the quartered pair energies q_0 < q_1 < ... and their shares w_j of
    ``table`` (which also gives N_t), summed over the levels its SNR keeps.
    erfcx(x) = exp(x^2) erfc(x) decreases (Mills' ratio), so with
    x_j^2 = gamma q_j / 2 each term is at most w_j erfc(x_0)
    exp(-gamma (q_j - q_0) / 2). A level with gamma (q_j - q_0) / 2 > T =
    ``table.cutoff`` is dropped: the dropped terms sum to at most 2^-53 w_0
    erfc(x_0), at most 2^-53 of the value, so a value lies within a few ulps
    of the full sum. An SNR of 0 (of either sign) or NaN keeps every level.
    Clamped, an SNR in [0, gamma_sat] (``table.saturation``) is set to 1.0
    without evaluating any erfc: the curve is at least 1 + 2^-40 there (see
    :func:`pair_energy_table`), so the clamp would return exactly 1.0.

    The SNRs may come in any order: they are sorted here, evaluated by
    :func:`conditional_bep_u1_sorted` and scattered back once. A value
    depends only on its own SNR, bit for bit: not on how the SNRs are
    ordered or grouped into calls, nor on the BLAS build or its thread
    count.
    """
    gammas = np.asarray(gammas, dtype=float)
    order = np.argsort(gammas)
    vals = np.empty(gammas.size)
    vals[order] = conditional_bep_u1_sorted(gammas[order], table, clamp)
    return vals


def conditional_bep_u1_sorted(g: np.ndarray, table: PairEnergyTable,
                              clamp: bool = True) -> np.ndarray:
    """:func:`conditional_bep_u1_vec` of SNRs ``g`` already sorted ascending
    (NaNs last, as ``np.sort`` puts them), its values in that order, bit for
    bit: for a caller that sorts its draws once and scales them at several
    SNR points, since rho * (sorted draws) is sorted for any rho > 0.

    Clamped, the SNRs in [0, gamma_sat] form one slice, set to 1.0. The
    others, the slices below and above it, are walked in runs of equal
    kept-level counts k, in chunks of max(1, ``BEP_CHUNK_ENTRIES`` // k)
    SNRs, so the scratch stays near ``BEP_CHUNK_ENTRIES`` doubles however
    many levels the table holds. Each chunk evaluates its Q terms in place
    over exactly its levels, and ``np.einsum`` (not a BLAS gemv) sums each
    row on its own.
    """
    from scipy.special import erfc

    vals = np.empty(g.size)
    lo = hi = 0
    if clamp:
        lo = g.searchsorted(0.0)
        hi = max(lo, g.searchsorted(table.saturation, "right"))
        vals[lo:hi] = 1.0
    # (first index, levels kept per SNR) of each summed slice: the levels
    # with gap <= 2T / gamma, every one at 0 (a division by zero; adding 0.0
    # turns -0.0 into +0.0) or NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        slices = [(a, table.gap.searchsorted(2.0 * table.cutoff / (g[a:b] + 0.0), "right"))
                  for a, b in ((0, lo), (hi, g.size)) if b > a]
    widest = max((int(keep.max()) for _, keep in slices), default=0)
    scratch = np.empty(min((g.size - (hi - lo)) * widest, max(BEP_CHUNK_ENTRIES, widest)))
    scale = (table.n_t / 2.0) * table.bits
    for offset, keep in slices:
        # the runs of equal counts, as indices into g
        runs = offset + np.flatnonzero(np.diff(keep, prepend=-1))
        for run, run_stop in zip(runs, [*runs[1:], offset + keep.size]):
            k = int(keep[run - offset])
            rows = max(1, BEP_CHUNK_ENTRIES // max(k, 1))
            for start in range(run, run_stop, rows):
                stop = min(start + rows, run_stop)
                part = scratch[:(stop - start) * k].reshape(stop - start, k)
                np.multiply(g[start:stop, None], table.quarter[:k], out=part)
                sums = scale * _q_sums(part, table.weights[:k], erfc)
                # no sum is negative, so the clamp is a minimum
                vals[start:stop] = np.minimum(sums, 1.0, out=sums) if clamp else sums
    return vals


# ---------------------------------------------------------------------------
# Exact three-user QPSK bit error probabilities
# ---------------------------------------------------------------------------


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


def union_bound_ber(s: int, constellations, pa, rho: float,
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
    if len(consts) != len(pa):
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
        total += float(np.sum(_union_bound_block(s, tx, consts, pa, rho,
                                                 sigma_i_sq, n_r)))
    return _clamp(total / n_tuples)


# ---------------------------------------------------------------------------
# Ergodic capacity
# ---------------------------------------------------------------------------


# Above this a = 1 / eta, exp(a) nears overflow (and E_n(a) leaves the normal
# doubles soon after): e^a E_n(a) takes its alternating asymptotic series
# instead. Term j + 1 is (n + j) / a < 1/8 of term j for N_r <= 64, so the
# first omitted term, which bounds the error, is below 1e-21 of the sum.
_ASYMPTOTIC_FROM = 700.0
_ASYMPTOTIC_TERMS = 24


def _log_capacity_integral(eta: float, n_r: int) -> float:
    """Closed form of E[log2(1 + b*gamma)] with eta = b * gamma_bar:
    log2(e) * sum over n = 1..N_r of e^a E_n(a), a = 1/eta, every term
    positive (the MRC capacity of Alouini & Goldsmith, IEEE TVT 1999)."""
    if eta == 0.0:
        return 0.0
    a, n = 1.0 / eta, np.arange(1, n_r + 1)
    if a > _ASYMPTOTIC_FROM:
        # e^a E_n(a) ~ sum_j (-1)^j (n)_j / a^(j+1), the rising factorial in floats
        term = np.full(n_r, 1.0 / a)
        scaled = term.copy()
        for j in range(1, _ASYMPTOTIC_TERMS):
            term *= -(n + j - 1) / a
            scaled += term
    else:
        from scipy.special import expn

        scaled = np.exp(a) * expn(n, a)
    return float(np.log2(np.e) * scaled.sum())


def ergodic_capacity_noma_user(k: int, pa, rho: float,
                               sigma_i_sq: float, n_r: int) -> float:
    """Exact ergodic capacity of the power user at SIC stage k:
    E[log2(1 + sum(pa[k:]) * gamma)] - E[log2(1 + sum(pa[k+1:]) * gamma)]."""
    _check_stage(k, pa)
    gamma_bar = rho * sigma_i_sq
    return (_log_capacity_integral(sum(pa[k:]) * gamma_bar, n_r)
            - _log_capacity_integral(sum(pa[k + 1:]) * gamma_bar, n_r))


def ergodic_capacity_u1(n_t: int, abep1: float) -> float:
    """Ergodic capacity of the cell-edge user: antenna bits detected correctly."""
    if not 0.0 <= abep1 <= 1.0:
        raise InputError("abep1 must lie in [0, 1]")
    return float(np.log2(n_t) * (1.0 - abep1))


# ---------------------------------------------------------------------------
# Outage
# ---------------------------------------------------------------------------


def outage_threshold_psi(k: int, pa, rates) -> float:
    """Equivalent MRC-SNR outage threshold of the power user at SIC stage k:
    the max over stages m = 0..k of the SNR level below which stage m's SINR
    misses its Shannon threshold phi_m = 2**R_m - 1; +inf when a stage can
    never meet it. ``rates`` are the power users' target rates in decoding
    order."""
    _check_stage(k, pa)
    if len(rates) != len(pa):
        raise InputError("one target rate per power-multiplexed user required")
    worst = 0.0
    for m in range(k + 1):
        phi = 2.0 ** rates[m] - 1.0
        denom = pa[m] - phi * sum(pa[m + 1:])
        if denom <= 0:
            return float("inf")
        worst = max(worst, phi / denom)
    return worst


def outage_threshold_u1(rate: float, n_t: int) -> float:
    """Outage threshold psi_1 = 1 - R_1 / log2(N_t) of the cell-edge user,
    whose target rate R_1 is set against the log2(N_t) bits its antenna
    index carries; a ``ConfigError`` when R_1 exceeds them by more than
    1e-12."""
    if rate > np.log2(n_t) + 1e-12:
        raise ConfigError(f"target rate {rate} of user 1 exceeds log2(N_t) = {np.log2(n_t):g}")
    return 1.0 - rate / np.log2(n_t)


def outage_noma_user(k: int, pa, rates, rho: float,
                     sigma_i_sq: float, n_r: int) -> float:
    """Average outage probability of the power user at SIC stage k, with the
    power users' target ``rates`` in decoding order."""
    psi = outage_threshold_psi(k, pa, rates)
    if not np.isfinite(psi):
        return 1.0
    return float(chi2_cdf(psi, n_r, rho * sigma_i_sq))


def outage_u1(rate: float, table: PairEnergyTable, n_r: int, rho: float,
              sigma_sq: float) -> float:
    """Outage probability of the cell-edge user at target rate ``rate``
    (R_1, see :func:`outage_threshold_u1`): tail integral of the
    clamped conditional BEP (N_t from ``table``) against the fading density,
    as printed in the source analysis (the lower limit is applied to the SNR
    variable).

    The integrand is the clamped curve of :func:`conditional_bep_u1_vec`,
    bit for bit, times the fading density, computed inline as
    gamma^(N_r - 1) * exp(-gamma / gamma_bar) / ((N_r - 1)! gamma_bar^N_r)
    in that order. At an SNR in [0, gamma_sat] the clamped curve is exactly
    1.0 (see :func:`pair_energy_table`), so there the integrand is the bare
    density, and no erfc is evaluated. Above it, the kept-level count k is a
    ``bisect_right`` on the gaps as a list, and the Q terms are evaluated in
    place in the first k entries of one (1, levels) scratch row made once
    per call, so a node allocates no array of the table's size."""
    # the only user of scipy.integrate, whose import adds about a third to
    # the package's memory
    from scipy import integrate
    from scipy.special import erfc

    n_t = table.n_t
    psi1 = outage_threshold_u1(rate, n_t)
    gbar = rho * sigma_sq
    quarter, weights, gaps = table.quarter, table.weights, table.gap.tolist()
    two_t, saturation = 2.0 * table.cutoff, table.saturation
    scale = (n_t / 2.0) * table.bits
    norm = factorial(n_r - 1) * gbar**n_r
    row = np.empty((1, quarter.size))
    # kept-level count k -> (scratch, levels, weights) views of its first k
    views = {}

    def integrand(g):
        # the density as documented; quad passes no negative SNR
        density = np.asarray(g) ** (n_r - 1) * np.exp(-g / gbar) / norm
        if g <= saturation:
            return density
        k = bisect_right(gaps, two_t / g) if g else len(gaps)
        if k not in views:
            views[k] = row[:, :k], quarter[None, :k], weights[:k]
        part, levels, kept_weights = views[k]
        bep = scale * _q_sums(np.multiply(levels, g, out=part), kept_weights, erfc)[0]
        return min(float(bep), 1.0) * density

    upper = gbar * (n_r + 40.0 * np.sqrt(n_r))
    full, _ = integrate.quad(integrand, 0.0, upper, epsabs=1e-8, limit=200)
    if psi1 <= 0.0:
        return _clamp(full)
    head, _ = integrate.quad(integrand, 0.0, min(psi1, upper), epsabs=1e-8, limit=200)
    return _clamp(full - head)
