"""Transmit-side primitives: Gray-labelled user constellations (BPSK, QPSK
and square QAM, each a full grid of its real and imaginary parts), the
power-domain superposition of their points into the composite alphabet, and
the bit errors between two labels.

Bit labels
----------
A symbol's bits are the binary digits of an integer label: ``labels[k]``
labels ``points[k]``, both numpy arrays. For QPSK the labels are
[0, 1, 3, 2]: the low bit selects the sign of the real axis and the high bit
the sign of the imaginary axis, so 0 -> (+1+1j)/sqrt(2) and
1 -> (-1+1j)/sqrt(2). The cell-edge user's bits are the natural-binary
0-based index of the active antenna, so that index is its label. A decision
costs ``bit_errors(label, decided label)`` bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError

_ENERGY_TOL = 1e-12


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _gray_code(n):
    return n ^ (n >> 1)


def bit_errors(a, b):
    """Bits in which the integer labels ``a`` and ``b`` differ, elementwise:
    the popcount of ``a ^ b``, as ``intp``."""
    return np.bitwise_count(np.bitwise_xor(a, b)).astype(np.intp)


@dataclass(frozen=True, eq=False)
class UserConstellation:
    """A unit-average-energy constellation with Gray-ordered integer labels.

    ``points[k]`` is labeled by ``labels[k]``; consecutive labels differ in
    exactly one bit. Both arrays are read-only.
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=complex)
        labels = np.array(self.labels, dtype=np.intp)
        for name, values in (("points", pts), ("labels", labels)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        m = pts.size
        if m < 2 or not _is_pow2(m):
            raise ConfigError(f"constellation order must be a power of 2 >= 2, got {m}")
        if sorted(labels.tolist()) != list(range(m)):
            raise ConfigError("labels must be the log2(M)-bit integers, one per point")
        if abs(np.mean(np.abs(pts) ** 2) - 1.0) > _ENERGY_TOL:
            raise ConfigError("constellation must have unit average energy")
        if len(set(pts.tolist())) != m:
            raise ConfigError("constellation symbols must be distinct")
        if np.any(bit_errors(labels[:-1], labels[1:]) != 1):
            raise ConfigError("adjacent Gray labels must differ in exactly one bit")

    @property
    def order(self) -> int:
        return self.points.size

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    def bit_distance_table(self) -> np.ndarray:
        """Bit errors between the labels of every symbol pair."""
        return bit_errors(self.labels[:, None], self.labels[None, :])


def bpsk() -> UserConstellation:
    return UserConstellation([1 + 0j, -1 + 0j], [0, 1])


def qpsk() -> UserConstellation:
    """Diagonal QPSK: the low label bit flips the real axis, the high bit the
    imaginary."""
    s = 1 / np.sqrt(2)
    return UserConstellation([complex(s, s), complex(-s, s), complex(-s, -s), complex(s, -s)],
                             [0, 1, 3, 2])


def _square_qam(order: int) -> UserConstellation:
    """Square QAM of an even power of 2 ``order``, per-axis Gray labels
    (in-phase bits high), unit average energy, listed in boustrophedon
    (snake) order through the grid so consecutive entries stay Gray-adjacent."""
    m_axis = int(round(np.sqrt(order)))
    levels = 2 * np.arange(m_axis) - (m_axis - 1)
    scale = np.sqrt(np.mean(levels**2) * 2)
    qi, ii = np.divmod(np.arange(order), m_axis)
    ii = np.where(qi % 2 == 0, ii, m_axis - 1 - ii)
    # each axis divided on its own: dividing the complex sum by the scale
    # rounds differently in the last bit
    points = levels[ii] / scale + 1j * (levels[qi] / scale)
    bits_axis = m_axis.bit_length() - 1
    return UserConstellation(points, (_gray_code(ii) << bits_axis) | _gray_code(qi))


def make_constellation(order: int) -> UserConstellation:
    """BPSK (order 2), QPSK (4) or square QAM (an even power of 2 >= 16),
    each a full grid of its real and imaginary parts, as the receivers need;
    any other order is a ConfigError, raised before any numeric work."""
    if order == 2:
        return bpsk()
    if order == 4:
        return qpsk()
    # 2^(2k) has 2k + 1 binary digits
    if order >= 16 and _is_pow2(order) and int(order).bit_length() % 2:
        return _square_qam(order)
    raise ConfigError(f"modulation order must be 2, 4 or an even power of 2 >= 16, got {order}")


def enumerate_sc_alphabet(constellations, pa) -> np.ndarray:
    """All prod(M_i) composite symbols sum(sqrt(a_i) * s_i) of the power
    coefficients ``pa``, lexicographic in the per-user symbol indices, as
    one complex array."""
    if len(constellations) != len(pa):
        raise InputError("one constellation per power-multiplexed user required")
    alphabet = np.zeros(1, dtype=complex)
    for c, a in zip(constellations, pa):
        alphabet = (alphabet[:, None] + np.sqrt(a) * c.points).ravel()
    return alphabet
