"""Trial engine: draws block-vectorized transmit -> channel -> detect chains
and estimates BER / outage / rate, each the mean of one per-trial quantity
with a confidence interval from its trial-level variance, for the SSK-NOMA
scheme and a conventional single-antenna NOMA baseline.

The baseline is modelled as SSK-NOMA without the antenna-index user: both
schemes share one receiver (the batched joint antenna/symbol search, ML
detection and SIC below), and the power-multiplexed users start at
``SimConfig.first_power_user``. User ``first_power_user + k`` is SIC stage
k, both in the receiver and in the stage-indexed closed forms of
:mod:`ssknoma.analytics` that ``companion`` attaches to each point.

Determinism: every block of trials draws from a SeedSequence-keyed SFC64
stream of (seed, metric, block index), once for every SNR point it serves,
and each point's stopping rule is evaluated on fixed-size rounds of blocks,
so results are identical for any worker count and any SNR grid. The users
of a trial share its one MRC gain (and, for BER, unit noise), each scaled
to its fading variance, so each user's draws keep exactly their own law.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from math import prod
from typing import NamedTuple

import numpy as np

from . import analytics
from .channel import complex_normal, erlang, rng_stream
from .constellation import bit_errors, enumerate_sc_alphabet, make_constellation
from .errors import ConfigError, as_int, as_tuple

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

# Largest accepted antenna count, a power of 2. A BER block's time grows
# with N_t, and beyond the 2^19-entry chunk budget below so does its memory;
# no preset uses more than 16.
_MAX_N_T = 4096
# Largest accepted receive antenna count: the closed forms are tested up to
# it (above N_r = 171 the outage forms' k! leaves double range, so every
# outage companion would be empty), and no preset uses more than 8.
_MAX_N_R = 64
# Largest accepted constellation order, and for SSK-NOMA composite alphabet
# size M_T: the alphabet and its tables take memory and time that grow with
# M_T, and the largest documented alphabet is [256, 256].
_MAX_ORDER = 1 << 16
# Largest accepted distance of the power coefficients' sum from 1.
_PA_SUM_TOL = 1e-12

# index of the first power-multiplexed user: SSK-NOMA carries user 1 on the
# antenna index, the baseline power-multiplexes every user
_FIRST_POWER_USER = {SSK_NOMA: 2, NOMA_BASELINE: 1}


def _first_power_user(scheme: str) -> int:
    try:
        return _FIRST_POWER_USER[scheme]
    except (KeyError, TypeError):  # TypeError: a list or object is unhashable
        raise ConfigError(f"unknown scheme {scheme!r}") from None


def default_pa(n_noma_users: int) -> tuple:
    try:
        return DEFAULT_PA[n_noma_users]
    except KeyError:
        raise ConfigError(
            f"no default power allocation for {n_noma_users} NOMA users"
        ) from None


@dataclass(frozen=True)
class SimConfig:
    """Full experiment description, built by ``make_config``.

    ``modulations`` and ``pa`` (the power coefficients a_i) cover the
    power-multiplexed users ``first_power_user``..L in decoding order, entry
    k for SIC stage k: users 2..L for SSK-NOMA, users 1..L for the baseline
    (whose ``n_t`` must be 1). ``fading`` (the variances sigma_i^2) and
    ``target_rates`` (R_i, or None) cover users 1..L. ``tables`` holds what
    every block and companion derives from the config, built once here;
    ``pairs``, the cell-edge pair-energy table, is built on first read.
    """

    scheme: str
    n_users: int
    n_t: int
    n_r: int
    modulations: tuple
    pa: tuple
    fading: tuple
    snr_grid_db: tuple
    seed: int
    target_rates: tuple | None
    min_bit_errors: int
    max_trials: int
    tables: _Tables = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # each run key as the type its checks compare: an int, or a tuple of
        # ints or finite floats (a NaN would pass every range check below, as
        # each comparison is false), so a SimConfig built directly is
        # checked as make_config's is
        for name in _INT_KEYS:
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        for name, kind in _TUPLE_KEYS.items():
            value = getattr(self, name)
            if value is not None or name != "target_rates":  # it alone may be None
                object.__setattr__(self, name, as_tuple(name, value, kind))
        pa, fading, rates = self.pa, self.fading, self.target_rates
        # an empty pa fails the sum, an empty fading profile its length check
        if abs(sum(pa) - 1.0) > _PA_SUM_TOL:
            raise ConfigError(f"power allocation must sum to 1, got {sum(pa)}")
        if any(a <= 0 or a > 1 for a in pa):
            raise ConfigError("power allocation coefficients must lie in (0, 1]")
        if any(a <= b for a, b in zip(pa, pa[1:])):
            raise ConfigError("power allocation must be strictly decreasing")
        if any(v < 0 for v in fading):
            raise ConfigError("fading variances must be nonnegative")
        if any(a > b for a, b in zip(fading, fading[1:])):
            raise ConfigError("fading variances must be in ascending order")
        if rates is not None and any(r <= 0 for r in rates):
            raise ConfigError("target rates must be positive")
        n_power_users = self.n_users + 1 - self.first_power_user
        if len(pa) != n_power_users:
            raise ConfigError("power allocation length does not match the scheme")
        if len(self.modulations) != n_power_users:
            raise ConfigError(
                f"expected {n_power_users} modulation orders, got {len(self.modulations)}"
            )
        if len(fading) != self.n_users:
            raise ConfigError("fading profile must cover all users")
        if rates is not None and len(rates) != self.n_users:
            raise ConfigError(f"expected {self.n_users} target rates: {rates}")
        if not 1 <= self.n_r <= _MAX_N_R:
            raise ConfigError(f"n_r must be in 1..{_MAX_N_R}, got {self.n_r}")
        if any(m > _MAX_ORDER for m in self.modulations) or (
                self.first_power_user > 1 and prod(self.modulations) > _MAX_ORDER):
            raise ConfigError(f"constellation orders and the SSK-NOMA composite alphabet size "
                              f"must be <= {_MAX_ORDER}, got {list(self.modulations)}")
        # the streams take the seed as one 32-bit key word: seed 2^32 + s would
        # spill into a second word, and its (metric, block 0) stream would be
        # seed s's (1, metric) stream
        if not 0 <= self.seed < 2**32:
            raise ConfigError(f"seed must be in 0..2^32 - 1, got {self.seed}")
        if not self.snr_grid_db:
            raise ConfigError("SNR grid must not be empty")
        if any(abs(snr) > 300.0 for snr in self.snr_grid_db):
            raise ConfigError(f"SNR points must lie within +-300 dB: {list(self.snr_grid_db)}")
        if len(set(self.snr_grid_db)) != len(self.snr_grid_db):
            raise ConfigError(f"SNR grid repeats a point: {list(self.snr_grid_db)}")
        # the powers of 2 in 2.._MAX_N_T are the divisors of _MAX_N_T above 1
        if self.first_power_user > 1 and (self.n_t < 2 or _MAX_N_T % self.n_t):
            raise ConfigError(f"SSK-NOMA needs N_t a power of 2 in 2..{_MAX_N_T}, got {self.n_t}")
        if self.first_power_user == 1 and self.n_t != 1:
            raise ConfigError("the baseline uses a single transmit antenna")
        # raises when user 1's target rate exceeds the log2 N_t bits it carries
        if self.first_power_user > 1 and rates is not None:
            analytics.outage_threshold_u1(rates[0], self.n_t)
        if self.min_bit_errors < 100:
            raise ConfigError("min_bit_errors must be >= 100")
        if self.max_trials < 10_000:
            raise ConfigError("max_trials must be >= 1e4")
        object.__setattr__(self, "tables", _tables(self))

    @cached_property
    def pairs(self) -> analytics.PairEnergyTable | None:
        """The composite alphabet's pair-energy table (None for the
        baseline), built on first read and then kept, so a pickled copy
        carries it: only the cell-edge closed forms and the rate and outage
        metrics read it, and for [64, 256] it takes about 1 s and 270 MB."""
        if self.first_power_user == 1:
            return None
        return analytics.pair_energy_table(enumerate_sc_alphabet(self.tables.consts, self.pa),
                                           self.n_t)

    @property
    def first_power_user(self) -> int:
        """User index of the first power-multiplexed user: 2 for SSK-NOMA,
        1 for the baseline. Users below it ride on the antenna index."""
        return _first_power_user(self.scheme)

    def canonical_dict(self) -> dict:
        """The ``RUN_KEYS`` fields as JSON values, for ``make_config``."""
        return {name: getattr(self, name) for name in RUN_KEYS}

    def config_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


# the fields a config document sets, every SimConfig field but the derived
# tables; also make_config's parameters
RUN_KEYS = tuple(f.name for f in fields(SimConfig) if f.init)
# the run keys SimConfig converts (``as_int``, ``as_tuple``); the scheme is
# checked by name
_INT_KEYS = ("n_users", "n_t", "n_r", "seed", "min_bit_errors", "max_trials")
_TUPLE_KEYS = {"modulations": int, "pa": float, "fading": float, "snr_grid_db": float,
               "target_rates": float}


def make_config(scheme=SSK_NOMA, n_users=None, n_r=None, snr_grid_db=None, seed=1,
                n_t=None, modulations=None, pa=None, fading=None, target_rates=None,
                min_bit_errors=400, max_trials=1_000_000) -> SimConfig:
    """The one path from config values to a SimConfig: fills the §IV
    defaults, QPSK users, geometric fading, the fixed PA set for the NOMA
    user count, N_t = N_r for SSK-NOMA (1 for the baseline) and no target
    rates, wherever those fields are None; SimConfig converts and checks
    every value. n_users, n_r and snr_grid_db have no default."""
    for name, value in (("n_users", n_users), ("n_r", n_r), ("snr_grid_db", snr_grid_db)):
        if value is None:
            raise ConfigError(f"config is missing required field {name!r}")
    first = _first_power_user(scheme)
    # the defaults take pa from n_users, and the others from pa's length
    if pa is None:
        pa = default_pa(as_int("n_users", n_users) + 1 - first)
    pa = as_tuple("pa", pa, float)
    if modulations is None:
        modulations = (4,) * len(pa)
    if fading is None:  # geometric: sigma_i^2 = 2 sigma_{i-1}^2 from sigma_1^2 = 0 dB
        fading = tuple(2.0**i for i in range(first - 1 + len(pa)))
    if n_t is None:
        n_t = n_r if first > 1 else 1
    return SimConfig(scheme, n_users, n_t, n_r, modulations, pa, fading, snr_grid_db, seed,
                     target_rates, min_bit_errors, max_trials)


@dataclass(frozen=True)
class PointEstimate:
    metric: str
    user: int  # 0 denotes the sum over users (rate metric only)
    snr_db: float
    value: float
    ci_halfwidth: float
    n_trials: int
    analytic: float | None = None


def _n_workers() -> int:
    """Worker processes from ``SSKNOMA_WORKERS``: an integer in 1..cpu_count."""
    raw = os.environ.get("SSKNOMA_WORKERS", "1")
    limit = os.cpu_count() or 1
    if not (raw.isdecimal() and 1 <= int(raw) <= limit):
        raise ConfigError(f"SSKNOMA_WORKERS must be an integer in 1..{limit}, got {raw!r}")
    return int(raw)


def _block_trials(cfg: SimConfig, block: int) -> int:
    """Trials of block ``block``: ``_BLOCK_SIZE``, but in the round that
    reaches ``max_trials`` an equal share of what is left of it, rounded up."""
    left = cfg.max_trials - block // _BLOCKS_PER_ROUND * _BLOCKS_PER_ROUND * _BLOCK_SIZE
    return min(_BLOCK_SIZE, -(-left // _BLOCKS_PER_ROUND))


# ---------------------------------------------------------------------------
# Vectorized per-block simulation
# ---------------------------------------------------------------------------


class _SmGrid(NamedTuple):
    """A point set (a constellation or a composite alphabet) that is the full
    Cartesian grid of its distinct real and imaginary parts, so its nearest
    point is found axis by axis."""

    re_mid: np.ndarray  # midpoints between consecutive distinct real parts
    im_mid: np.ndarray  # the same for the imaginary parts
    index: np.ndarray   # (re, im) grid position -> first point index


class _Tables(NamedTuple):
    """What every block and analytic companion of a config derives from it,
    built once per SimConfig (``SimConfig.tables``)."""

    consts: tuple                # power users' constellations, decoding order
    levels: tuple                # their level tables (``_levels``)
    grids: tuple                 # their nearest-point grids (None if not Cartesian)
    alphabet_levels: np.ndarray | None  # composite alphabet's level table (None without user 1)
    sm_grid: _SmGrid | None      # its nearest-point grid (None if not Cartesian)
    bits: tuple                  # each user's bits per trial


def _levels(points: np.ndarray) -> np.ndarray:
    """Level table of a point set, the (3, M) real array the receivers
    gather from: each point's real part, imaginary part and energy |s|^2."""
    return np.stack([points.real, points.imag, points.real ** 2 + points.imag ** 2])


def _sm_grid(values: np.ndarray) -> _SmGrid | None:
    """Nearest-point grid of a point set that is a full Cartesian grid (BPSK,
    QPSK, square QAM and their superpositions); ``None`` for any other set
    (M-PSK with M > 4, say), which the detectors then scan point by point."""
    re_axis, re_pos = np.unique(values.real, return_inverse=True)
    im_axis, im_pos = np.unique(values.imag, return_inverse=True)
    cells, first = np.unique(re_pos * im_axis.size + im_pos, return_index=True)
    if cells.size != re_axis.size * im_axis.size:
        return None
    return _SmGrid((re_axis[:-1] + re_axis[1:]) / 2.0, (im_axis[:-1] + im_axis[1:]) / 2.0,
                   first.reshape(re_axis.size, im_axis.size))


def _axis_position(coord, mids, scale):
    """Per coordinate, the number of ``mids`` scaled by ``scale`` that it
    exceeds, counted in the smallest unsigned type that holds them."""
    pos = np.zeros(coord.shape, dtype=np.min_scalar_type(mids.size))
    for m in mids:
        pos += coord > scale * m
    return pos


def _nearest_point(grid: _SmGrid, re, im, scale):
    """Index of the grid point nearest each (re, im) / ``scale`` (> 0), from
    real arrays of one shape. Per axis the position is the number of
    midpoints, scaled by ``scale``, that the coordinate exceeds
    (``searchsorted``'s ``side="left"``), so a coordinate exactly on a scaled
    midpoint takes the lower of its two neighbours."""
    pos = _axis_position(re, grid.re_mid, scale).astype(np.intp)
    pos *= grid.im_mid.size + 1
    pos += _axis_position(im, grid.im_mid, scale)
    # gather in place: take reads each position before it writes it, and
    # every position is in range
    return np.take(grid.index.ravel(), pos, out=pos, mode="clip")


def _tables(cfg: SimConfig) -> _Tables:
    consts = tuple(make_constellation(m) for m in cfg.modulations)
    alphabet_levels = sm_grid = None
    if cfg.first_power_user > 1:
        alphabet = enumerate_sc_alphabet(consts, cfg.pa)
        alphabet_levels = _levels(alphabet)
        sm_grid = _sm_grid(alphabet)
        # the pair table (SimConfig.pairs) is built on first read, but a
        # config whose table would not fit is rejected here
        analytics.distinct_energies(alphabet)
    # log2 N_t bits on the antenna index, else bits per symbol
    bits = ((cfg.n_t.bit_length() - 1,) * (cfg.first_power_user - 1)
            + tuple(c.bits_per_symbol for c in consts))
    return _Tables(consts, tuple(_levels(c.points) for c in consts),
                   tuple(_sm_grid(c.points) for c in consts), alphabet_levels, sm_grid,
                   bits)


# entries of one chunk of the metric scan
_SM_CHUNK_ENTRIES = 1 << 22
# trial-antenna entries of one chunk of the cell-edge statistics: the
# search holds the statistics, the decided symbols and their gathered levels,
# about 80 traced bytes per entry at any N_r, so a chunk peaks near 40 MiB.
# The chunk size depends on N_t alone, so the streams do not depend on the
# worker count.
_SM_DRAW_ENTRIES = 1 << 19
# trials per block, and blocks per round of the stopping rule
_BLOCK_SIZE = 25_000
_BLOCKS_PER_ROUND = 4


def _dead(g):
    """Mask of the trials with channel energy g = 0, where every point
    scores 0 and the receivers decide index 0; None if there is none."""
    return None if g.all() else g == 0.0


def _unit_gain(x, g):
    """x / g for a complex x and g >= 0 broadcast to it, as a (2, *x.shape)
    array of real and imaginary parts: the per-unit-gain coordinates the
    receivers decide on. 0 where g = 0, without a RuntimeWarning."""
    out = np.zeros((2, *x.shape))
    live = True if g.all() else g != 0.0
    np.divide(x.real, g, out=out[0], where=live)
    np.divide(x.imag, g, out=out[1], where=live)
    return out


def _ml_detect_block(u, dead, amp, levels, grid=None):
    """Vectorized ML point decision per trial on per-unit-gain coordinates
    u, a (2, n) array of real and imaginary parts: a SIC stage's y / g
    (y = h^H r the MRC combiner output, g = ||h||^2, stage amplitude
    ``amp``), or one antenna's y / (sqrt(P) g) in the joint search (amp 1).
    ``dead`` flags the trials with g = 0, or is None if there is none.
    The decision is the point s of the level table ``levels`` that minimises
    |u - amp s|^2, which is the ML metric amp^2 g |s - u / amp|^2 divided by
    g > 0. With a nearest-point ``grid`` of the points, it is the point
    nearest u / amp (``_nearest_point``, midpoints scaled by amp). Without
    one (M-PSK with M > 4) every point scores amp |s|^2 - 2 Re(u s*), in
    chunks of trials that keep the metric table near ``_SM_CHUNK_ENTRIES``
    entries, and the first minimum wins. Dead trials, where every point
    scores 0, decide index 0. Both paths make the same decisions except
    where u / amp lies within rounding error of a decision boundary (on one,
    the grid takes the lower neighbour and the scan the lower index), which
    noise makes a null event."""
    if grid is None:
        chunk = max(1, _SM_CHUNK_ENTRIES // levels.shape[1])
        k = np.concatenate([
            (amp * levels[2] - 2.0 * (u[0, s:s + chunk, None] * levels[0]
                                      + u[1, s:s + chunk, None] * levels[1])).argmin(axis=1)
            for s in range(0, u.shape[1], chunk)
        ])
    else:
        k = _nearest_point(grid, u[0], u[1], amp)
    if dead is not None:
        k[dead] = 0
    return k


def _sm_detect_block(z, g, dead, levels, grid):
    """Vectorized joint (antenna, composite symbol) ML search on each
    antenna's per-unit-gain coordinates z_t = h_t^H r / (sqrt(P) ||h_t||^2),
    a (2, N_t, B) array, and channel energies g_t = ||h_t||^2, an (N_t, B)
    array, one row per antenna (``dead`` flags the zeros of g, where z must
    be finite); returns per trial the row of the least metric, the first
    row on ties (``_first_min_row``). A trial whose every g_t is 0 scores 0
    on every row and decides row 0.

    Less ||r||^2 and divided by P, the metric ||r - sqrt(P) h_t chi||^2 is
    g_t (|chi|^2 - 2 Re(chi* z_t)), for each antenna that of an ML decision
    on z_t at amplitude 1. So ``_ml_detect_block`` decides each antenna's
    best symbol, and only those N_t candidates are scored, from real gathers
    of the alphabet's level table ``levels``.
    """
    n_t, b = g.shape
    k = _ml_detect_block(z.reshape(2, -1), None if dead is None else dead.ravel(), 1.0,
                         levels, grid).reshape(n_t, b)
    re, im, energy = np.take(levels, k, axis=1)
    return _first_min_row(g * (energy - 2.0 * (z[0] * re + z[1] * im)))


def _first_min_row(metric):
    """Per column of an (N_t, B) array of finite metrics, the row of the
    least entry, the lower row on ties: ``metric.argmin(axis=0)``, bit for
    bit; ``metric[0]`` may be overwritten. The rows are walked as a running
    minimum, a whole row per step (``argmin(axis=0)`` copies the array
    transposed and scans N_t entries per trial): row t takes a trial only
    where its metric is strictly below the least so far."""
    best, row = metric[0], np.zeros(metric.shape[1], dtype=np.intp)
    for t in range(1, metric.shape[0]):
        row[metric[t] < best] = t
        np.minimum(best, metric[t], out=best)
    return row


def _sic_detect_block(u, dead, amps, levels, grids=None):
    """Successive interference cancellation on each trial's per-unit-gain
    coordinates u = y / g (a (2, B) array; ``dead`` flags the trials with
    g = 0): ML-detect each stage (amplitude ``amps[m]``, level table
    ``levels[m]``, nearest-point grid ``grids[m]``, or the metric scan where
    that is None or ``grids`` is) on what is left after cancelling the stages
    before it, amp times the decided point's real and imaginary levels per
    cancelled stage. Returns every stage's decisions and the coordinates the
    last stage saw."""
    grids = grids or (None,) * len(amps)
    resid = u
    decisions = [_ml_detect_block(resid, dead, amps[0], levels[0], grids[0])]
    for m in range(1, len(amps)):
        resid = resid - amps[m - 1] * np.take(levels[m - 1][:2], decisions[-1], axis=1)
        decisions.append(_ml_detect_block(resid, dead, amps[m], levels[m], grids[m]))
    return decisions, resid


def _mrc_statistic(rng, var, n_r, b):
    """MRC statistics of one user with a known channel over ``b`` trials,
    drawn from their joint law rather than from a channel vector and noise:
    the energy g = ||h||^2 over N_r Rayleigh branches of variance ``var`` is
    var * Gamma(N_r, 1), and given g the combiner output h^H r is
    g * sqrt(P) * chi plus w = sqrt(g) * CN(0, 1). Returns g and the
    per-unit-gain noise w / g = CN(0, 1) / sqrt(g), a (2, b) array of real
    and imaginary parts (0 where g = 0); neither depends on the SNR. Draw
    order: g (``erlang``: N_r * b uniforms for N_r <= 4), then b complex
    normals. The BER engine draws it once per block at var = 1, for every
    user (``_user_statistics``)."""
    g = var * erlang(rng, n_r, b)
    return g, _unit_gain(complex_normal(rng, b, 1.0), np.sqrt(g))


def _user_statistics(g, e, var):
    """One user's MRC statistics from the unit-variance ones (g, e) of
    ``_mrc_statistic`` at var = 1: var * g and e / sqrt(var), which have
    exactly the law of ``_mrc_statistic`` at variance ``var``. Exact zeros at
    var = 0, without a RuntimeWarning, so every trial of the user is dead."""
    if var == 0.0:
        return np.zeros_like(g), np.zeros_like(e)
    return var * g, e / np.sqrt(var)


def _sm_statistics(rng, g_v, e_v, var, n_t, n_r, chi, sqrt_ps):
    """The cell-edge joint search's per-unit-gain coordinates
    z_t = h_t^H r / (sqrt(P) g_t) and channel energies g_t = ||h_t||^2, one
    row per antenna, a (2, N_t, B) and an (N_t, B) array, drawn from their
    joint law rather than from a (B, N_t, N_r) channel and noise (Jeganathan
    et al., "Space shift keying modulation for MIMO channels", IEEE TWC
    2009). ``chi`` holds the composite symbols' real and imaginary parts, a
    (2, B) array. Yields (z, g, ``_dead(g)``) for each sqrt(P) of
    ``sqrt_ps``; g is the same array every time, and so is z, overwritten
    for each point.

    Row 0 is the active antenna v, whose MRC statistics the caller gives:
    ``g_v``, a (B,) array, and ``e_v`` = w_v / g_v, a (2, B) array (the
    cell-edge user's ``_user_statistics``). So z_v = chi + e_v / sqrt(P),
    and ||r||^2 = P g_v |z_v|^2 + Gamma(N_r - 1), the second term being the
    noise energy orthogonal to h_v. Rows 1..N_t - 1 are the other antennas,
    in an order the caller chooses: each h_t is independent of r, so by
    unitary invariance h_t^H r = ||r|| c_t and
    g_t = |c_t|^2 + var Gamma(N_r - 1) with c_t ~ CN(0, var), i.i.d. over
    those rows; c_t / g_t is formed once. Draw order, once before the first
    yield: the noise energy, c (N_t - 1, B), then the gamma term
    (N_t - 1, B). Each Gamma(k) term of n values is ``erlang``'s, k * n
    uniforms for k <= 4; a Gamma(0) term (N_r = 1) draws nothing."""
    b = chi.shape[1]
    g = np.empty((n_t, b))
    g[0] = g_v
    perp = erlang(rng, n_r - 1, b) if n_r > 1 else 0.0
    c = complex_normal(rng, (n_t - 1, b), var)
    g[1:] = c.real ** 2 + c.imag ** 2
    if n_r > 1:
        g[1:] += var * erlang(rng, n_r - 1, (n_t - 1, b))
    c_unit = _unit_gain(c, g[1:])
    del c  # the SNR loop needs only c / g
    dead = _dead(g)
    z = np.empty((2, n_t, b))
    z_v = z[:, 0]
    for sqrt_p in sqrt_ps:
        z_v[:] = chi + e_v / sqrt_p
        # ||r|| / sqrt(P)
        r_norm = np.sqrt(g[0] * (z_v[0] ** 2 + z_v[1] ** 2) + perp / (sqrt_p * sqrt_p))
        np.multiply(c_unit, r_norm, out=z[:, 1:])
        yield z, g, dead


def _ber_trials(cfg: SimConfig, snrs, block: int):
    """Simulate one block of trials at every SNR point of ``snrs``; yields
    per point, in order, each user's bit errors per trial, one (B,) integer
    array per user.

    Draw order: the antenna index (SSK-NOMA), each power user's symbol, the
    trial's unit-variance MRC statistics (``_mrc_statistic`` at var = 1: a
    Gamma(N_r) draw, N_r uniforms for N_r <= 4, and one complex normal per
    trial), then the cell-edge user's other per-antenna statistics
    (``_sm_statistics``) in chunks of ``_SM_DRAW_ENTRIES // N_t`` trials,
    each chunk searched at every point before the next is drawn; the
    search's row 0 is the active antenna v and row j the antenna
    v + j mod N_t, so a decided row maps back to the antenna
    (v + row) & (N_t - 1). Every user, the cell-edge user's active antenna
    included, scales the one MRC draw by its fading variance
    (``_user_statistics``): the users of a trial share one gain and one unit
    noise, each with exactly its own law, so only the correlation between
    different users' estimates changes, and no output reads it. Each
    point's SIC chain runs on the per-unit-gain coordinates
    u = sqrt(P) chi + w / g, whose noise term is formed once per block.
    What no SNR changes is formed once per block too: chi, summed as real
    and imaginary parts gathered from the power users' level tables, and
    each power user's sent labels; each point's decided antennas are
    written into one (points, B) array."""
    rng = rng_stream(cfg.seed, _METRIC_CODE["ber"], block)
    tables = cfg.tables
    b, n_t, n_r = _block_trials(cfg, block), cfg.n_t, cfg.n_r
    first = cfg.first_power_user
    rhos = [10.0 ** (snr_db / 10.0) for snr_db in snrs]
    sqrt_ps = [np.sqrt(rho) for rho in rhos]

    if first > 1:
        v = rng.integers(0, n_t, b)
    ks = [rng.integers(0, c.order, b) for c in tables.consts]
    # the receivers' real coordinates of the composite symbols, (2, B)
    chi = np.zeros((2, b))
    for a, levels, k in zip(cfg.pa, tables.levels, ks):
        chi += np.sqrt(a) * np.take(levels[:2], k, axis=1)
    sent = [c.labels[k] for c, k in zip(tables.consts, ks)]
    unit = _mrc_statistic(rng, 1.0, n_r, b)
    users = [_user_statistics(*unit, var) for var in cfg.fading]

    if first > 1:
        v_hats = np.empty((len(snrs), b), dtype=v.dtype)
        chunk = max(1, _SM_DRAW_ENTRIES // n_t)
        g_v, e_v = users[0]
        for s in range(0, b, chunk):
            v_chunk = v[s:s + chunk]
            stats = _sm_statistics(rng, g_v[s:s + chunk], e_v[:, s:s + chunk], cfg.fading[0],
                                   n_t, n_r, chi[:, s:s + chunk], sqrt_ps)
            for t_hat, (z, g, dead) in zip(v_hats[:, s:s + chunk], stats):
                row = _sm_detect_block(z, g, dead, tables.alphabet_levels, tables.sm_grid)
                # row j holds antenna v + j mod N_t; a trial whose every g_t
                # is 0 decides antenna 0, as the full search would
                np.add(v_chunk, row, out=t_hat)
                t_hat &= n_t - 1
                if dead is not None:
                    t_hat[dead.all(axis=0)] = 0
    mrc = [(e, _dead(g)) for g, e in users[first - 1:]]
    for i, (rho, sqrt_p) in enumerate(zip(rhos, sqrt_ps)):
        # an antenna's label is its index
        errors = [bit_errors(v, v_hats[i])] if first > 1 else []
        signal = sqrt_p * chi
        amps = [np.sqrt(a * rho) for a in cfg.pa]
        for k, (e, dead) in enumerate(mrc):
            decisions, _ = _sic_detect_block(signal + e, dead, amps[:k + 1],
                                             tables.levels[:k + 1], tables.grids[:k + 1])
            errors.append(bit_errors(sent[k], tables.consts[k].labels[decisions[-1]]))
        yield errors


def _gamma_draws(cfg: SimConfig, metric: str, block: int):
    """Per-user MRC output SNR draws of one block (rate/outage metrics) at
    0 dB, in user order: rho * ||h||^2 over N_r Rayleigh branches of
    variance sigma^2 is rho * sigma^2 * Gamma(N_r, 1), so the block draws one
    Gamma(N_r, 1) per trial (``erlang``: N_r * B uniforms for N_r <= 4,
    numpy's sampler above), every user takes sigma^2 times it, and each SNR
    point scales them by its rho (exact zeros for a zero-variance user).
    Each user's draws have exactly their own law; the users of a trial share
    the one gain, as in the BER engine (``_ber_trials``)."""
    rng = rng_stream(cfg.seed, _METRIC_CODE[metric], block)
    gain = erlang(rng, cfg.n_r, _block_trials(cfg, block))
    return [var * gain for var in cfg.fading]


def _cell_edge_curve(cfg: SimConfig, draws: np.ndarray):
    """The cell-edge user's conditional BEP of each trial, in draw order, as
    a function of rho, from its ``draws`` at 0 dB (finite and >= 0). The
    draws are sorted once here: rho * (sorted draws) is sorted and holds
    exactly the doubles rho * d, as rho > 0 and rounding is monotone, so
    each SNR point runs ``conditional_bep_u1_vec``, which takes its SNRs
    sorted, on it and scatters the values back once."""
    order = np.argsort(draws)
    ordered = draws[order]

    def at(rho: float) -> np.ndarray:
        bep = np.empty(ordered.size)
        bep[order] = analytics.conditional_bep_u1_vec(rho * ordered, cfg.pairs)
        return bep

    return at


def _outage_trials(cfg: SimConfig, snrs, block: int):
    """Yields per SNR point of ``snrs`` the per-user outage outcome of each
    trial of one block, one (B,) float array per user: 1 or 0 for a
    power-multiplexed user, and for the cell-edge user its conditional BEP
    (``_cell_edge_curve``: one sort per block, then one clamped curve per
    point) where gamma >= psi_1, else 0."""
    rates = cfg.target_rates
    first = cfg.first_power_user
    # gamma >= psi_k iff every SINR of stage k's SIC cascade meets its
    # target, up to rounding at the stage thresholds (a property test in
    # tests/test_analytics.py checks it against the cascade)
    psis = [analytics.outage_threshold_psi(k, cfg.pa, rates[first - 1:])
            for k in range(len(cfg.pa))]
    draws = _gamma_draws(cfg, "outage", block)
    if first > 1:
        # the cell-edge outage metric is the conditional error probability
        # averaged over the fading tail above the rate-derived limit, so it
        # reduces to the ABEP when the target rate saturates the antenna bits
        psi1 = analytics.outage_threshold_u1(rates[0], cfg.n_t)
        bep_at = _cell_edge_curve(cfg, draws[0])
    for snr_db in snrs:
        rho = 10.0 ** (snr_db / 10.0)
        gammas = [rho * d for d in draws]
        outcomes = [np.where(gammas[0] >= psi1, bep_at(rho), 0.0)] if first > 1 else []
        outcomes += [(g < psi).astype(float) for g, psi in zip(gammas[first - 1:], psis)]
        yield outcomes


def _rate_trials(cfg: SimConfig, snrs, block: int):
    """Yields per SNR point of ``snrs`` the per-draw rate of each user of
    one block, one (B,) array per user, plus the per-draw sum rate last; the
    cell-edge user's from its conditional BEP (``_cell_edge_curve``: one
    sort per block, then one clamped curve per point)."""
    first = cfg.first_power_user
    draws = _gamma_draws(cfg, "rate", block)
    if first > 1:
        bep_at = _cell_edge_curve(cfg, draws[0])
    for snr_db in snrs:
        rho = 10.0 ** (snr_db / 10.0)
        rates = [np.log2(cfg.n_t) * (1.0 - bep_at(rho))] if first > 1 else []
        for k, d in enumerate(draws[first - 1:]):
            g = rho * d
            with_own = sum(cfg.pa[k:])
            without = sum(cfg.pa[k + 1:])
            rates.append(np.log2(1.0 + with_own * g) - np.log2(1.0 + without * g))
        rates.append(sum(rates))
        yield rates


_TRIALS_FN = {"ber": _ber_trials, "outage": _outage_trials, "rate": _rate_trials}


def _moments(trials):
    """Per slot of one block's (B,) trial arrays: the sum, the mean m rounded
    to a double, the sum of the deviations from m and the sum of their
    squares; then the trial count."""
    sums = np.array([t.sum() for t in trials])
    count = float(trials[0].size)
    means = sums / count
    dev_sums, sq_sums = [], []
    for t, m in zip(trials, means):
        d = t - m
        dev_sums.append(d.sum())
        sq_sums.append(np.square(d, out=d).sum())  # in place: one scratch array per slot
    return sums, means, np.array(dev_sums), np.array(sq_sums), count


def _block_moments(cfg: SimConfig, metric: str, snrs, block: int):
    return [_moments(trials) for trials in _TRIALS_FN[metric](cfg, snrs, block)]


# the config a pool worker serves, received once when the worker starts
_pool_cfg = None


def _init_pool_worker(cfg: SimConfig):
    global _pool_cfg
    _pool_cfg = cfg


def _pool_task(task):
    """A block's moments in a pool worker; ``task`` is (metric, SNR points,
    block index)."""
    return _block_moments(_pool_cfg, *task)


_Z95 = 1.959963984540054


def _sweep_points(cfg: SimConfig, metric: str):
    """Yield (SNR point, per-user estimates) of each SNR point as it stops.

    Rounds of ``_BLOCKS_PER_ROUND`` blocks run until every point has stopped,
    each block drawn once for all points still running. A point stops at the
    trial cap or, for BER, once every user has ``min_bit_errors`` errors. An
    estimate is the mean of one i.i.d. per-trial quantity: a trial's bit
    errors (BER, divided by the user's bits per trial at the end), outage
    outcome (``_outage_trials``) or rate (the sum rate as user 0), with a 95%
    interval from its trial-level variance, or the rule-of-three half-width
    3/n where the trials do not spread at all. A point's blocks merge in
    block order, so its estimate depends neither on the worker count nor on
    the other grid points."""
    users = list(range(1, cfg.n_users + 1)) + ([0] if metric == "rate" else [])
    bits = cfg.tables.bits if metric == "ber" else (1,) * len(users)
    workers = _n_workers()
    # SNR point -> (base, sums, count, mean, m2) of its blocks so far
    running = {snr_db: None for snr_db in cfg.snr_grid_db}
    block = 0
    pool = None
    if workers > 1:
        # imported here: it loads multiprocessing, which one worker never uses
        from concurrent.futures import ProcessPoolExecutor

        if metric != "ber" and cfg.pairs is not None:
            # computed once here and sent with cfg, not once per worker
            cfg.pairs.saturation
        # each worker receives cfg once; a task is (metric, SNR points, block)
        pool = ProcessPoolExecutor(workers, initializer=_init_pool_worker, initargs=(cfg,))
    try:
        while running:
            tasks = [(metric, tuple(running), block + j) for j in range(_BLOCKS_PER_ROUND)]
            # the round's blocks are all drawn before any is merged: merging
            # between blocks left small arrays among the freed block arrays,
            # and a long run's peak RSS rose by about 3 MB
            for per_point in list(pool.map(_pool_task, tasks) if pool is not None
                                  else (_block_moments(cfg, *task) for task in tasks)):
                # Chan et al.'s merge of per-block centred sums of squares,
                # each block into its point's state, in block order; block
                # means are taken relative to the first block's (base), so
                # their differences keep full precision when the spread is
                # tiny
                for snr_db, (sums_b, mean_b, dev_b, sq_b, count_b) in zip(running, per_point):
                    base, sums, count, mean, m2 = running[snr_db] or (mean_b, 0, 0.0, 0.0, 0.0)
                    merged = count + count_b
                    delta = (mean_b - base) + dev_b / count_b - mean
                    running[snr_db] = (
                        base, sums + sums_b, merged, mean + delta * (count_b / merged),
                        (m2 + (sq_b - dev_b * dev_b / count_b))
                        + delta * delta * (count * count_b / merged))
            block += _BLOCKS_PER_ROUND
            for snr_db, (_, sums, n, _, m2) in list(running.items()):
                if n < cfg.max_trials and not (metric == "ber"
                                               and np.all(sums >= cfg.min_bit_errors)):
                    continue
                del running[snr_db]
                hw = [_Z95 * np.sqrt(m2[s] / n / n) / bits[s] if m2[s] > 0.0 else 3.0 / n
                      for s in range(len(users))]
                yield snr_db, [PointEstimate(metric, user, snr_db, float(sums[s] / (n * bits[s])),
                                             float(hw[s]), int(n))
                               for s, user in enumerate(users)]
    finally:
        if pool is not None:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Sweeps with analytic companions
# ---------------------------------------------------------------------------


def companion(cfg: SimConfig, metric: str, user: int, rho: float):
    """Closed form of ``metric`` for ``user`` (1..L) at SNR ``rho``: the
    cell-edge user's SSK forms or a power user's at SIC stage
    ``user - first_power_user``. None where there is none: BER of the
    baseline, a user of fading variance 0 (the forms average over positive
    variance), a form beyond its budget, or one that leaves double range
    (overflows, divides by zero or is not finite)."""
    sigma_sq = cfg.fading[user - 1]
    k = user - cfg.first_power_user
    if sigma_sq == 0.0 or (metric == "ber" and cfg.first_power_user == 1):
        return None
    # only the cell-edge forms read the pair table, built on first read
    pairs, pa, n_r = cfg.pairs if k < 0 else None, cfg.pa, cfg.n_r
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if metric == "outage" and k < 0:
                value = analytics.outage_u1(cfg.target_rates[0], pairs, n_r, rho, sigma_sq)
            elif metric == "outage":
                rates = cfg.target_rates[cfg.first_power_user - 1:]
                value = analytics.outage_noma_user(k, pa, rates, rho, sigma_sq, n_r)
            elif k < 0:
                value = analytics.abep_u1(pairs, n_r, rho, sigma_sq)
                if metric == "rate":
                    value = analytics.ergodic_capacity_u1(cfg.n_t, value)
            elif metric == "rate":
                value = analytics.ergodic_capacity_noma_user(k, pa, rho, sigma_sq, n_r)
            elif cfg.n_users == 3 and cfg.modulations == (4, 4):
                exact = analytics.abep_u3 if k else analytics.abep_u2
                value = exact(*pa, rho * sigma_sq, n_r)
            else:
                value = analytics.union_bound_ber(k, cfg.tables.consts, pa, rho, sigma_sq, n_r)
    except (ConfigError, ArithmeticError):
        return None
    return float(value) if np.isfinite(value) else None


# Largest pair-table level count the rate and outage metrics take: their
# blocks evaluate the cell-edge curve on every draw, at about 26 us of erfc
# per 1 000 level terms on a 2-core Xeon, so a 25 000-trial block of a table
# at the cap takes at most about 2.7 s. Every preset and benchmark config has
# at most 329 levels and [16, 64] has 2 242, where [64, 256] has 198 581
# (about 130 s a block).
_MAX_LEVELS = 1 << 12


def check_metrics(cfg: SimConfig, metrics) -> None:
    """Reject metrics ``run_sweep`` cannot run on ``cfg``: anything but a
    non-empty list of distinct known names, outage without target rates, or
    rate or outage on an SSK-NOMA run whose pair table (built here, on first
    read) has more than ``_MAX_LEVELS`` levels. BER never builds the table."""
    if (not isinstance(metrics, (list, tuple)) or not all(isinstance(m, str) for m in metrics)
            or not metrics or len(set(metrics)) != len(metrics)):
        raise ConfigError(f"metrics must be a list naming each metric once, got {metrics!r}")
    for metric in metrics:
        if metric not in _TRIALS_FN:
            raise ConfigError(f"unknown metric {metric!r}")
        if metric == "outage" and cfg.target_rates is None:
            raise ConfigError("outage metric requires target rates")
        if metric != "ber" and cfg.pairs is not None and cfg.pairs.quarter.size > _MAX_LEVELS:
            raise ConfigError(f"the cell-edge pair table has {cfg.pairs.quarter.size} levels, "
                              f"more than the {_MAX_LEVELS} the {metric} metric evaluates")


def run_sweep(cfg: SimConfig, metrics=("ber",)) -> tuple:
    """Evaluate the requested metrics (``check_metrics``) over the whole SNR
    grid, one round loop per metric (``_sweep_points``), and attach each
    point's closed-form ``companion``; the sum rate's (user 0, last) is the
    sum of the users' in user order, None if any of them is."""
    check_metrics(cfg, metrics)
    points = []
    for metric in metrics:
        by_point = dict(_sweep_points(cfg, metric))
        for snr_db in cfg.snr_grid_db:
            rho = 10.0 ** (snr_db / 10.0)
            values = []
            for est in by_point[snr_db]:
                if est.user:
                    value = companion(cfg, metric, est.user, rho)
                    values.append(value)
                else:
                    value = None if None in values else sum(values)
                points.append(replace(est, analytic=value))
    return tuple(points)
