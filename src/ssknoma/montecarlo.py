"""Trial engine: draws block-vectorized transmit -> channel -> detect chains
and accumulates BER / outage / rate statistics with confidence intervals, for
the SSK-NOMA scheme and a conventional single-antenna NOMA baseline.

The baseline is modelled as SSK-NOMA without the antenna-index user: both
schemes share one receiver (the batched joint antenna/symbol search, ML
detection and SIC below), and the power-multiplexed users start at
``SimConfig.first_power_user``.

Determinism: every block of trials draws from a counter-based stream keyed by
(seed, metric, SNR point, block index), and the stopping rule is evaluated on
fixed-size rounds of blocks, so results are identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import analytics
from .channel import FadingProfile, complex_normal, default_profile, rng_stream
from .constellation import (
    PowerAllocation,
    ScAlphabet,
    antenna_label,
    enumerate_sc_alphabet,
    hamming_table,
    make_constellation,
)
from .errors import ConfigError
from .analytics import OutageTargets

SSK_NOMA = "ssk-noma"
NOMA_BASELINE = "noma-baseline"

# §IV defaults keyed by the number of power-multiplexed users.
DEFAULT_PA = {
    2: (0.8, 0.2),
    3: (0.7, 0.2, 0.1),
    4: (0.6, 0.25, 0.1, 0.05),
    5: (0.4, 0.25, 0.2, 0.1, 0.05),
}

_METRIC_CODE = {"ber": 1, "outage": 2, "rate": 3}

# index of the first power-multiplexed user: SSK-NOMA carries user 1 on the
# antenna index, the baseline power-multiplexes every user
_FIRST_POWER_USER = {SSK_NOMA: 2, NOMA_BASELINE: 1}


def _first_power_user(scheme: str) -> int:
    try:
        return _FIRST_POWER_USER[scheme]
    except KeyError:
        raise ConfigError(f"unknown scheme {scheme!r}") from None


def default_pa(n_noma_users: int) -> PowerAllocation:
    try:
        return PowerAllocation(DEFAULT_PA[n_noma_users])
    except KeyError:
        raise ConfigError(
            f"no default power allocation for {n_noma_users} NOMA users"
        ) from None


@dataclass(frozen=True)
class SimConfig:
    """Full experiment description.

    ``modulations`` and ``pa`` cover the power-multiplexed users
    ``first_power_user``..L: users 2..L for SSK-NOMA, users 1..L for the
    baseline (whose ``n_t`` must be 1).
    """

    scheme: str
    n_users: int
    n_t: int
    n_r: int
    modulations: tuple
    pa: PowerAllocation
    fading: FadingProfile
    snr_grid_db: tuple
    seed: int
    target_rates: OutageTargets | None = None
    min_bit_errors: int = 400
    max_trials: int = 1_000_000
    genie_antenna: bool = True
    noise: bool = True
    block_size: int = 25_000
    blocks_per_round: int = 4

    def __post_init__(self):
        n_power_users = self.n_users + 1 - self.first_power_user
        if len(self.modulations) != n_power_users:
            raise ConfigError(
                f"expected {n_power_users} modulation orders, got {len(self.modulations)}"
            )
        if self.pa.n_users != n_power_users:
            raise ConfigError("power allocation length does not match the scheme")
        if self.fading.n_users != self.n_users:
            raise ConfigError("fading profile must cover all users")
        if not self.snr_grid_db:
            raise ConfigError("SNR grid must not be empty")
        keys = [_snr_key(snr) for snr in self.snr_grid_db]
        if len(set(keys)) != len(keys):
            raise ConfigError("SNR grid points closer than 0.01 dB would share "
                              f"random streams: {list(self.snr_grid_db)}")
        if self.first_power_user > 1 and (self.n_t < 2 or self.n_t & (self.n_t - 1)):
            raise ConfigError("SSK-NOMA needs a power-of-2 antenna count >= 2")
        if self.first_power_user == 1 and self.n_t != 1:
            raise ConfigError("the baseline uses a single transmit antenna")
        if self.min_bit_errors < 100:
            raise ConfigError("min_bit_errors must be >= 100")
        if self.max_trials < 10_000:
            raise ConfigError("max_trials must be >= 1e4")

    @property
    def first_power_user(self) -> int:
        """User index of the first power-multiplexed user: 2 for SSK-NOMA,
        1 for the baseline. Users below it ride on the antenna index."""
        return _first_power_user(self.scheme)

    def constellations(self):
        return [make_constellation(m) for m in self.modulations]

    def sc_alphabet(self) -> ScAlphabet:
        return enumerate_sc_alphabet(self.constellations(), self.pa)

    def canonical_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "n_users": self.n_users,
            "n_t": self.n_t,
            "n_r": self.n_r,
            "modulations": list(self.modulations),
            "pa": list(self.pa.coefficients),
            "fading": list(self.fading.variances),
            "snr_grid_db": list(map(float, self.snr_grid_db)),
            "seed": self.seed,
            "target_rates": list(self.target_rates.rates) if self.target_rates else None,
            "min_bit_errors": self.min_bit_errors,
            "max_trials": self.max_trials,
            "genie_antenna": self.genie_antenna,
            "noise": self.noise,
        }

    def config_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def make_config(scheme: str, n_users: int, n_r: int, snr_grid_db, seed: int,
                n_t: int | None = None, modulations=None, pa=None, fading=None,
                target_rates=None, **kwargs) -> SimConfig:
    """SimConfig with the §IV defaults filled in: QPSK users, geometric fading
    profile, fixed PA set for the NOMA user count, N_t = N_r for SSK-NOMA."""
    first = _first_power_user(scheme)
    n_power = n_users + 1 - first
    if modulations is None:
        modulations = (4,) * n_power
    if pa is None:
        pa = default_pa(n_power)
    elif not isinstance(pa, PowerAllocation):
        pa = PowerAllocation(tuple(pa))
    if fading is None:
        fading = default_profile(n_users)
    elif not isinstance(fading, FadingProfile):
        fading = FadingProfile(tuple(fading))
    if n_t is None:
        n_t = n_r if first > 1 else 1
    if target_rates is not None and not isinstance(target_rates, OutageTargets):
        target_rates = OutageTargets(tuple(target_rates))
    return SimConfig(scheme, n_users, n_t, n_r, tuple(modulations), pa, fading,
                     tuple(snr_grid_db), seed, target_rates, **kwargs)


@dataclass(frozen=True)
class PointEstimate:
    metric: str
    user: int  # 0 denotes the sum over users (rate metric only)
    snr_db: float
    value: float
    ci_halfwidth: float
    n_trials: int
    n_events: int
    analytic: float | None = None


@dataclass(frozen=True)
class SweepResult:
    config_hash: str
    points: tuple


def wilson_halfwidth(k: int, n: int, z: float = 1.959963984540054) -> float:
    if n == 0:
        return 0.0
    p = k / n
    denom = 1.0 + z * z / n
    return z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom


def _n_workers() -> int:
    """Worker processes from ``SSKNOMA_WORKERS``: an integer in 1..cpu_count."""
    raw = os.environ.get("SSKNOMA_WORKERS", "1")
    limit = os.cpu_count() or 1
    if not (raw.isdecimal() and 1 <= int(raw) <= limit):
        raise ConfigError(f"SSKNOMA_WORKERS must be an integer in 1..{limit}, got {raw!r}")
    return int(raw)


def _snr_key(snr_db: float) -> int:
    return int(round(snr_db * 100.0)) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Vectorized per-block simulation
# ---------------------------------------------------------------------------


class _SmGrid(NamedTuple):
    """A composite alphabet that is the full Cartesian grid of its distinct
    real and imaginary parts, so its nearest point is found axis by axis."""

    re_mid: np.ndarray  # midpoints between consecutive distinct real parts
    im_mid: np.ndarray  # the same for the imaginary parts
    index: np.ndarray   # (re, im) grid position -> first alphabet index


class _Tables(NamedTuple):
    """Per-config tables every block of an SNR point shares."""

    consts: tuple                # power users' constellations, decoding order
    bit_tables: tuple            # their label Hamming distances
    alphabet: ScAlphabet | None  # composite alphabet (None without user 1)
    sm_grid: _SmGrid | None      # its nearest-point grid (None if not Cartesian)
    antenna_bits: np.ndarray     # Hamming distances of the antenna labels


def _sm_grid(chi_values: np.ndarray) -> _SmGrid | None:
    """Nearest-point grid of a composite alphabet that is a full Cartesian
    grid (superpositions of QPSK, square QAM and BPSK users); ``None`` for any
    other alphabet (M-PSK with M > 4, say), which the joint search then scans
    point by point."""
    re_axis, re_pos = np.unique(chi_values.real, return_inverse=True)
    im_axis, im_pos = np.unique(chi_values.imag, return_inverse=True)
    cells, first = np.unique(re_pos * im_axis.size + im_pos, return_index=True)
    if cells.size != re_axis.size * im_axis.size:
        return None
    return _SmGrid((re_axis[:-1] + re_axis[1:]) / 2.0, (im_axis[:-1] + im_axis[1:]) / 2.0,
                   first.reshape(re_axis.size, im_axis.size))


def _tables(cfg: SimConfig) -> _Tables:
    consts = tuple(cfg.constellations())
    alphabet = sm_grid = None
    if cfg.first_power_user > 1:
        alphabet = enumerate_sc_alphabet(consts, cfg.pa)
        sm_grid = _sm_grid(alphabet.values)
    antenna_labels = [antenna_label(v, cfg.n_t) for v in range(1, cfg.n_t + 1)]
    return _Tables(consts, tuple(c.bit_distance_table() for c in consts), alphabet,
                   sm_grid, hamming_table(antenna_labels))


def _ml_detect_block(resid, h, h_norm, amp, points):
    """Vectorized argmin_n ||resid - amp*h*s_n||^2 per trial (constant term
    dropped); first minimum keeps the lexicographic tie-break."""
    inner = np.sum(resid * np.conj(h), axis=1)
    metrics = (-2.0 * amp * np.real(np.outer(inner, np.conj(points)))
               + amp * amp * np.outer(h_norm, np.abs(points) ** 2))
    return np.argmin(metrics, axis=1)


# complex entries of one chunk of the point-by-point joint search
_SM_CHUNK_ENTRIES = 1 << 22


def _sm_metric(inner, h_norm, sqrt_p, chi):
    """ML metric ||r - sqrt(P) h_t chi||^2 less its constant ||r||^2."""
    return (-2.0 * sqrt_p * np.real(inner * np.conj(chi))
            + sqrt_p * sqrt_p * h_norm * np.abs(chi) ** 2)


def _sm_detect_block(r, h_full, sqrt_p, chi_values, grid):
    """Vectorized joint (antenna, composite symbol) ML search; returns the
    0-based antenna and composite-symbol indices, first minimum on ties.

    Per antenna t the metric is P||h_t||^2 |chi - z_t|^2 plus a constant,
    with z_t = h_t^H r / (sqrt(P) ||h_t||^2), so with a nearest-point
    ``grid`` each antenna's best symbol is the grid point nearest z_t (two
    ``searchsorted`` calls) and only those N_t candidates are scored. Without
    one, every (antenna, symbol) pair is scored, in chunks of trials that keep
    the metric tensor near ``_SM_CHUNK_ENTRIES`` entries.
    """
    inner = np.einsum("btr,br->bt", np.conj(h_full), r)
    h_norm = np.sum(np.abs(h_full) ** 2, axis=2)
    if grid is None:
        m_t = chi_values.size
        chunk = max(1, _SM_CHUNK_ENTRIES // (inner.shape[1] * m_t))
        flat = np.concatenate([
            _sm_metric(inner[s:s + chunk, :, None], h_norm[s:s + chunk, :, None], sqrt_p,
                       chi_values).reshape(-1, inner.shape[1] * m_t).argmin(axis=1)
            for s in range(0, len(inner), chunk)
        ])
        return flat // m_t, flat % m_t
    live = h_norm > 0.0
    z = np.divide(inner, sqrt_p * h_norm, out=np.zeros_like(inner), where=live)
    k = grid.index[np.searchsorted(grid.re_mid, z.real), np.searchsorted(grid.im_mid, z.imag)]
    # a zero channel scores every symbol 0, where the first one wins
    k = np.where(live, k, 0)
    t = _sm_metric(inner, h_norm, sqrt_p, chi_values[k]).argmin(axis=1)
    return t, k[np.arange(len(t)), t]


def _sic_detect_block(r, h, amps, points):
    """Successive interference cancellation: ML-detect each stage (amplitude
    ``amps[m]``, constellation ``points[m]``) on the residual left by
    cancelling the stages before it. Returns every stage's decisions and the
    residual the last stage saw."""
    h_norm = np.sum(np.abs(h) ** 2, axis=1)
    resid = r
    decisions = [_ml_detect_block(resid, h, h_norm, amps[0], points[0])]
    for m in range(1, len(amps)):
        resid = resid - amps[m - 1] * points[m - 1][decisions[-1]][:, None] * h
        decisions.append(_ml_detect_block(resid, h, h_norm, amps[m], points[m]))
    return decisions, resid


def _ber_block(cfg: SimConfig, tables: _Tables, snr_db: float, block: int):
    """Simulate one block of trials; returns (bit_errors, bits) per user."""
    rng = rng_stream(cfg.seed, _METRIC_CODE["ber"], _snr_key(snr_db), block)
    b, n_t, n_r = cfg.block_size, cfg.n_t, cfg.n_r
    first = cfg.first_power_user
    rows = np.arange(b)
    rho = 10.0 ** (snr_db / 10.0)
    sqrt_p = np.sqrt(rho)
    coeffs = cfg.pa.coefficients
    amps = [np.sqrt(a * rho) for a in coeffs]
    points = [c.points for c in tables.consts]
    variances = cfg.fading.variances
    errors = np.zeros(cfg.n_users)
    bits = np.zeros(cfg.n_users)

    if first > 1:
        v = rng.integers(0, n_t, b)
        chi_values = tables.alphabet.values
    ks = [rng.integers(0, c.order, b) for c in tables.consts]
    chi = sum(np.sqrt(a) * pts[k] for a, pts, k in zip(coeffs, points, ks))

    genie = cfg.genie_antenna or n_t == 1  # one antenna: nothing to estimate
    for i in range(1, cfg.n_users + 1):
        # the cell-edge user, and any user without the genie antenna index,
        # runs the joint antenna/symbol search over its full channel matrix
        search = i < first or not genie
        if search:
            h_full = complex_normal(rng, (b, n_t, n_r), variances[i - 1])
            h = h_full[rows, v, :]
        else:
            h = complex_normal(rng, (b, n_r), variances[i - 1])
        r = sqrt_p * h * chi[:, None]
        if cfg.noise:
            r = r + complex_normal(rng, (b, n_r), 1.0)
        if search:
            v_hat, _ = _sm_detect_block(r, h_full, sqrt_p, chi_values, tables.sm_grid)
            h = h_full[rows, v_hat, :]
        if i < first:
            errors[0] += tables.antenna_bits[v, v_hat].sum()
            bits[0] += b * int(np.log2(n_t))
            continue
        k = i - first
        decisions, _ = _sic_detect_block(r, h, amps[:k + 1], points[:k + 1])
        errors[i - 1] += tables.bit_tables[k][ks[k], decisions[-1]].sum()
        bits[i - 1] += b * tables.consts[k].bits_per_symbol
    return errors, bits


def _gamma_block(cfg: SimConfig, metric: str, snr_db: float, block: int):
    """Per-user MRC output SNR draws for one block (rate/outage metrics)."""
    rng = rng_stream(cfg.seed, _METRIC_CODE[metric], _snr_key(snr_db), block)
    rho = 10.0 ** (snr_db / 10.0)
    gammas = []
    for var in cfg.fading.variances:
        h = complex_normal(rng, (cfg.block_size, cfg.n_r), var)
        gammas.append(rho * np.sum(np.abs(h) ** 2, axis=1))
    return gammas


def _outage_block(cfg: SimConfig, tables: _Tables, snr_db: float, block: int):
    gammas = _gamma_block(cfg, "outage", snr_db, block)
    targets = cfg.target_rates
    coeffs = cfg.pa.coefficients
    first = cfg.first_power_user
    events = np.zeros(cfg.n_users)
    if first > 1:
        # the cell-edge outage metric is the conditional error probability
        # averaged over the fading tail above the rate-derived limit, so it
        # reduces to the ABEP when the target rate saturates the antenna bits
        psi1 = 1.0 - targets.rate(1) / np.log2(cfg.n_t)
        bep = analytics.conditional_bep_u1_vec(gammas[0], tables.alphabet, cfg.n_t)
        events[0] = float(np.sum(bep[gammas[0] >= psi1]))
    for k, g in enumerate(gammas[first - 1:]):
        i = first + k
        by_threshold = g < analytics.outage_threshold_psi(i, cfg.pa, targets, first)
        # independent route: check every SINR in the SIC cascade
        by_cascade = np.zeros_like(g, dtype=bool)
        for m in range(k + 1):
            sinr = coeffs[m] * g / (1.0 + sum(coeffs[m + 1:]) * g)
            by_cascade |= sinr < targets.phi(first + m)
        if not np.array_equal(by_threshold, by_cascade):
            raise RuntimeError(
                f"outage implementations disagree for user {i} at {snr_db} dB"
            )
        events[i - 1] = np.count_nonzero(by_threshold)
    return events, np.full(cfg.n_users, float(cfg.block_size))


def _rate_block(cfg: SimConfig, tables: _Tables, snr_db: float, block: int):
    """Returns, per user plus the per-draw sum rate in the last slot, the sum
    of the per-draw rates, their mean m rounded to a double, the sum of the
    deviations from m and the sum of their squares; then the draw count."""
    gammas = _gamma_block(cfg, "rate", snr_db, block)
    coeffs = cfg.pa.coefficients
    first = cfg.first_power_user
    rates = []
    if first > 1:
        bep = analytics.conditional_bep_u1_vec(gammas[0], tables.alphabet, cfg.n_t)
        rates.append(np.log2(cfg.n_t) * (1.0 - bep))
    for k, g in enumerate(gammas[first - 1:]):
        with_own = sum(coeffs[k:])
        without = sum(coeffs[k + 1:])
        rates.append(np.log2(1.0 + with_own * g) - np.log2(1.0 + without * g))
    rates.append(sum(rates))
    sums = np.array([r.sum() for r in rates])
    means = sums / cfg.block_size
    devs = [r - m for r, m in zip(rates, means)]
    return (sums, means, np.array([d.sum() for d in devs]),
            np.array([np.sum(d * d) for d in devs]), float(cfg.block_size))


_BLOCK_FN = {"ber": _ber_block, "outage": _outage_block, "rate": _rate_block}


def _worker(args):
    cfg, tables, metric, snr_db, block = args
    return _BLOCK_FN[metric](cfg, tables, snr_db, block)


def _run_rounds(cfg: SimConfig, metric: str, snr_db: float, stop_fn=None):
    """Run fixed-size rounds of blocks until the trial cap or the optional
    early stop ``stop_fn(results)``; block results merge in block order so
    worker count never changes the outcome."""
    workers = _n_workers()
    tables = _tables(cfg)
    results = []
    block = 0
    pool = ProcessPoolExecutor(workers) if workers > 1 else None
    try:
        while True:
            idxs = list(range(block, block + cfg.blocks_per_round))
            args = [(cfg, tables, metric, snr_db, j) for j in idxs]
            if pool is None:
                batch = [_worker(a) for a in args]
            else:
                batch = list(pool.map(_worker, args))
            results.extend(batch)
            block += cfg.blocks_per_round
            if block * cfg.block_size >= cfg.max_trials or (stop_fn and stop_fn(results)):
                return results
    finally:
        if pool is not None:
            pool.shutdown()


def _ratio_estimates(metric: str, cfg: SimConfig, snr_db: float, results):
    """Per-user event ratios with Wilson 95% intervals, from blocks that each
    return (events, totals) per user."""
    events = sum(r[0] for r in results)
    totals = sum(r[1] for r in results)
    n_trials = len(results) * cfg.block_size
    return [
        PointEstimate(metric, u + 1, float(snr_db), float(events[u] / totals[u]),
                      wilson_halfwidth(int(events[u]), int(totals[u])),
                      n_trials, int(events[u]))
        for u in range(cfg.n_users)
    ]


def run_ber_point(cfg: SimConfig, snr_db: float):
    """Per-user BER estimates at one SNR point with Wilson 95% intervals."""

    def stop(results):
        errors = sum(r[0] for r in results)
        return bool(np.all(errors >= cfg.min_bit_errors))

    return _ratio_estimates("ber", cfg, snr_db, _run_rounds(cfg, "ber", snr_db, stop))


def run_outage_point(cfg: SimConfig, snr_db: float):
    """Per-user outage frequencies; both the SNR-threshold and the SINR
    cascade definitions are evaluated and must agree on every draw."""
    if cfg.target_rates is None:
        raise ConfigError("outage simulation requires target rates")
    return _ratio_estimates("outage", cfg, snr_db, _run_rounds(cfg, "outage", snr_db))


def run_rate_point(cfg: SimConfig, snr_db: float):
    """Per-user ergodic rate estimates plus the sum rate (user index 0)."""
    results = _run_rounds(cfg, "rate", snr_db)
    sums = sum(r[0] for r in results)
    n = sum(r[4] for r in results)
    # Chan et al.'s merge of per-block centred sums of squares, in block
    # order; block means are taken relative to the first block's, so their
    # differences keep full precision when the spread is tiny
    base = results[0][1]
    count, mean, m2 = 0.0, 0.0, 0.0
    for _, mean_b, dev_b, sq_b, count_b in results:
        offset = (mean_b - base) + dev_b / count_b
        merged = count + count_b
        delta = offset - mean
        mean = mean + delta * (count_b / merged)
        m2 = m2 + (sq_b - dev_b * dev_b / count_b) + delta * delta * (count * count_b / merged)
        count = merged
    out = []
    for slot in range(len(sums)):
        hw = 1.959963984540054 * np.sqrt(max(0.0, m2[slot]) / n / n)
        user = 0 if slot == len(sums) - 1 else slot + 1
        out.append(PointEstimate("rate", user, float(snr_db), float(sums[slot] / n),
                                 float(hw), int(n), int(n)))
    return out


# ---------------------------------------------------------------------------
# Sweeps with analytic companions
# ---------------------------------------------------------------------------


def _analytic_ber(cfg: SimConfig, user: int, rho: float):
    first = cfg.first_power_user
    if first == 1:
        return None  # the BER closed forms cover SSK-NOMA only
    sigma_sq = cfg.fading.variances[user - 1]
    if user < first:
        return analytics.abep_u1(cfg.sc_alphabet(), cfg.n_t, cfg.n_r, rho,
                                 sigma_sq)
    a = cfg.pa.coefficients
    exact = cfg.n_users == 3 and cfg.modulations == (4, 4)
    if exact and user == 2:
        return analytics.abep_u2(a[0], a[1], rho * sigma_sq, cfg.n_r)
    if exact and user == 3:
        return analytics.abep_u3(a[0], a[1], rho * sigma_sq, cfg.n_r)
    return analytics.union_bound_ber(user, cfg.constellations(), cfg.pa, rho,
                                     sigma_sq, cfg.n_r)


def _analytic_rate(cfg: SimConfig, user: int, rho: float):
    if user == 0:
        return sum(_analytic_rate(cfg, u, rho) for u in range(1, cfg.n_users + 1))
    sigma_sq = cfg.fading.variances[user - 1]
    if user < cfg.first_power_user:
        abep = analytics.abep_u1(cfg.sc_alphabet(), cfg.n_t, cfg.n_r, rho,
                                 sigma_sq)
        return analytics.ergodic_capacity_u1(cfg.n_t, abep)
    return analytics.ergodic_capacity_noma_user(user, cfg.pa, rho, sigma_sq, cfg.n_r,
                                                cfg.first_power_user)


def _analytic_outage(cfg: SimConfig, user: int, rho: float):
    sigma_sq = cfg.fading.variances[user - 1]
    if user < cfg.first_power_user:
        return analytics.outage_u1(cfg.target_rates, cfg.n_t, cfg.sc_alphabet(),
                                   cfg.n_r, rho, sigma_sq)
    return analytics.outage_noma_user(user, cfg.pa, cfg.target_rates, rho, sigma_sq,
                                      cfg.n_r, cfg.first_power_user)


_ANALYTIC_FN = {"ber": _analytic_ber, "rate": _analytic_rate, "outage": _analytic_outage}
_POINT_FN = {"ber": run_ber_point, "rate": run_rate_point, "outage": run_outage_point}


def run_sweep(cfg: SimConfig, metrics=("ber",)) -> SweepResult:
    """Evaluate the requested metrics over the whole SNR grid and attach the
    closed-form companion value wherever the configuration is covered."""
    for metric in metrics:
        if metric not in _POINT_FN:
            raise ConfigError(f"unknown metric {metric!r}")
        if metric == "outage" and cfg.target_rates is None:
            raise ConfigError("outage metric requires target rates")
    points = []
    for metric in metrics:
        for snr_db in cfg.snr_grid_db:
            rho = 10.0 ** (snr_db / 10.0)
            for est in _POINT_FN[metric](cfg, snr_db):
                try:
                    analytic = _ANALYTIC_FN[metric](cfg, est.user, rho)
                except ConfigError:
                    analytic = None
                points.append(replace(est, analytic=analytic))
    return SweepResult(cfg.config_hash(), tuple(points))
