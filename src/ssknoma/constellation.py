"""Transmit-side primitives: Gray-mapped user constellations, power-domain
superposition coding, composite-alphabet enumeration and antenna-index mapping.

Bit-string conventions
----------------------
Bit strings are plain ``str`` objects of '0'/'1'. For QPSK the label is read
as (b2 b1): the last character selects the sign of the real axis and the
first character the sign of the imaginary axis, so "00" -> (+1+1j)/sqrt(2)
and "01" -> (-1+1j)/sqrt(2). Antenna labels are natural binary, zero maps to
the first antenna.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, as_tuple

_ENERGY_TOL = 1e-12


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _gray_code(n: int) -> int:
    return n ^ (n >> 1)


@dataclass(frozen=True)
class UserConstellation:
    """A unit-average-energy constellation with Gray-ordered labels.

    ``symbols[k]`` is labeled by ``labels[k]``; consecutive labels differ in
    exactly one bit.
    """

    order: int
    symbols: tuple
    labels: tuple

    def __post_init__(self):
        m = self.order
        if m < 2 or not _is_pow2(m):
            raise ConfigError(f"constellation order must be a power of 2 >= 2, got {m}")
        if len(self.symbols) != m or len(self.labels) != m:
            raise ConfigError("symbols/labels length must equal the order")
        nbits = self.bits_per_symbol
        if any(len(lab) != nbits or set(lab) - {"0", "1"} for lab in self.labels):
            raise ConfigError("labels must be bit strings of length log2(M)")
        if len(set(self.labels)) != m:
            raise ConfigError("labels must be distinct")
        pts = np.asarray(self.symbols, dtype=complex)
        if abs(np.mean(np.abs(pts) ** 2) - 1.0) > _ENERGY_TOL:
            raise ConfigError("constellation must have unit average energy")
        if len({complex(p) for p in self.symbols}) != m:
            raise ConfigError("constellation symbols must be distinct")
        for a, b in zip(self.labels, self.labels[1:]):
            if sum(x != y for x, y in zip(a, b)) != 1:
                raise ConfigError("adjacent Gray labels must differ in exactly one bit")

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    @property
    def points(self) -> np.ndarray:
        return np.asarray(self.symbols, dtype=complex)

    def index_of_label(self, bits: str) -> int:
        try:
            return self.labels.index(bits)
        except ValueError:
            raise InputError(f"unknown label {bits!r}") from None

    def bit_distance_table(self) -> np.ndarray:
        """Hamming distance between the labels of every symbol pair."""
        return hamming_table(self.labels)


def hamming_table(labels) -> np.ndarray:
    """Hamming distance between every pair of equal-length bit-string labels."""
    bits = np.array([[int(b) for b in lab] for lab in labels], dtype=int)
    bits = bits.reshape(len(labels), -1)  # keeps empty labels two-dimensional
    return np.count_nonzero(bits[:, None, :] != bits[None, :, :], axis=2)


def bpsk() -> UserConstellation:
    return UserConstellation(2, (1 + 0j, -1 + 0j), ("0", "1"))


def qpsk() -> UserConstellation:
    """Diagonal QPSK: (b2 b1) with b1 flipping the real axis, b2 the imaginary."""
    s = 1 / np.sqrt(2)
    return UserConstellation(
        4,
        (complex(s, s), complex(-s, s), complex(-s, -s), complex(s, -s)),
        ("00", "01", "11", "10"),
    )


def mpsk(order: int) -> UserConstellation:
    """M-PSK with reflected-Gray labeling, points at angles 2*pi*n/M."""
    if order == 2:
        return bpsk()
    if order == 4:
        return qpsk()
    if not _is_pow2(order):
        raise ConfigError(f"M-PSK order must be a power of 2, got {order}")
    nbits = order.bit_length() - 1
    symbols = tuple(np.exp(2j * np.pi * n / order) for n in range(order))
    labels = tuple(format(_gray_code(n), f"0{nbits}b") for n in range(order))
    return UserConstellation(order, symbols, labels)


def square_qam(order: int) -> UserConstellation:
    """Square M-QAM, per-axis Gray labels, unit average energy.

    Symbols are listed in boustrophedon (snake) order through the grid so
    consecutive entries stay Gray-adjacent.
    """
    m_axis = int(round(np.sqrt(order)))
    if m_axis * m_axis != order or not _is_pow2(order) or order < 4:
        raise ConfigError(f"square QAM order must be an even power of 2 >= 4, got {order}")
    bits_axis = m_axis.bit_length() - 1
    levels = 2 * np.arange(m_axis) - (m_axis - 1)
    scale = np.sqrt(np.mean(levels**2) * 2)
    symbols, labels = [], []
    for qi in range(m_axis):
        i_range = range(m_axis) if qi % 2 == 0 else range(m_axis - 1, -1, -1)
        for ii in i_range:
            symbols.append(complex(levels[ii], levels[qi]) / scale)
            labels.append(
                format(_gray_code(ii), f"0{bits_axis}b")
                + format(_gray_code(qi), f"0{bits_axis}b")
            )
    return UserConstellation(order, tuple(symbols), tuple(labels))


def make_constellation(order: int) -> UserConstellation:
    """Default constellation family: PSK up to order 4, square QAM above."""
    if order <= 4:
        return mpsk(order)
    m_axis = int(round(np.sqrt(order)))
    if m_axis * m_axis == order:
        return square_qam(order)
    return mpsk(order)


@dataclass(frozen=True)
class PowerAllocation:
    """NOMA coefficients a_2..a_L: positive, summing to one, strictly
    decreasing. A singleton [1.0] is accepted for single-NOMA-user setups."""

    coefficients: tuple

    def __post_init__(self):
        a = as_tuple("pa", self.coefficients, float)
        object.__setattr__(self, "coefficients", a)
        if not a:
            raise ConfigError("power allocation must not be empty")
        if abs(sum(a) - 1.0) > _ENERGY_TOL:
            raise ConfigError(f"power allocation must sum to 1, got {sum(a)}")
        if any(c <= 0 or c > 1 for c in a):
            raise ConfigError("power allocation coefficients must lie in (0, 1]")
        if len(a) > 1 and any(x <= y for x, y in zip(a, a[1:])):
            raise ConfigError("power allocation must be strictly decreasing")

    @property
    def n_users(self) -> int:
        """Number of power-multiplexed users."""
        return len(self.coefficients)


@dataclass(frozen=True)
class ScAlphabet:
    """All composite superposition-coded symbols, lexicographic by the
    per-user symbol index tuple."""

    entries: tuple  # of (index tuple, complex symbol)
    size: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "size", len(self.entries))
        if self.size == 0:
            raise ConfigError("SC alphabet must not be empty")

    @property
    def values(self) -> np.ndarray:
        return np.array([chi for _, chi in self.entries], dtype=complex)


def superpose(symbols, pa: PowerAllocation) -> complex:
    """Superposition-coded composite symbol sum(sqrt(a_i) * s_i)."""
    if len(symbols) != pa.n_users:
        raise InputError(
            f"expected {pa.n_users} symbols, got {len(symbols)}"
        )
    return complex(sum(np.sqrt(a) * s for a, s in zip(pa.coefficients, symbols)))


def enumerate_sc_alphabet(constellations, pa: PowerAllocation) -> ScAlphabet:
    """Enumerate all prod(M_i) composite symbols in lexicographic index order."""
    if len(constellations) != pa.n_users:
        raise InputError("one constellation per power-multiplexed user required")
    entries = []
    for idx in itertools.product(*(range(c.order) for c in constellations)):
        chi = superpose([c.symbols[k] for c, k in zip(constellations, idx)], pa)
        entries.append((idx, chi))
    return ScAlphabet(tuple(entries))


def antenna_label(v: int, n_antennas: int) -> str:
    """Natural-binary log2(N_t)-bit label of antenna index v in 1..N_t."""
    nbits = n_antennas.bit_length() - 1
    if not 1 <= v <= n_antennas:
        raise InputError(f"antenna index {v} out of 1..{n_antennas}")
    return format(v - 1, f"0{nbits}b") if nbits else ""

