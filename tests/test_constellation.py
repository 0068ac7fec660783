"""Transmit-side unit tests: constellations and their integer bit labels,
superposition coding, the antenna index as a label. Oracle values are
computed independently inside the tests."""

import itertools

import numpy as np
import pytest

from ssknoma.constellation import (
    UserConstellation,
    bit_errors,
    bpsk,
    enumerate_sc_alphabet,
    make_constellation,
    qpsk,
)
from ssknoma.errors import ConfigError, InputError

S = 1 / np.sqrt(2)

# label -> expected point, fixed by the bit-direction convention in the module:
# the low bit flips the real axis, the high bit the imaginary one
QPSK_POINTS = {
    0b00: complex(S, S),
    0b01: complex(-S, S),
    0b11: complex(-S, -S),
    0b10: complex(S, -S),
}


def test_qpsk_labels_and_points():
    c = qpsk()
    assert c.order == 4
    got = dict(zip(c.labels.tolist(), c.points.tolist()))
    for lab, want in QPSK_POINTS.items():
        assert got[lab] == pytest.approx(want, abs=1e-15)


def test_qpsk_gray_order():
    assert qpsk().labels.tolist() == [0, 1, 3, 2]


@pytest.mark.parametrize("order", [2, 4, 16, 64, 256])
def test_constellation_unit_energy_and_gray(order):
    c = make_constellation(order)
    pts = c.points
    assert pts.dtype == complex and c.labels.dtype == np.intp
    assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)
    # the labels are the log2(M)-bit integers, each once
    assert sorted(c.labels.tolist()) == list(range(order))
    for a, b in zip(c.labels.tolist(), c.labels[1:].tolist()):
        assert bin(a ^ b).count("1") == 1


def test_square_qam_grid():
    c = make_constellation(16)
    # 4 amplitude levels per axis, equally spaced
    re = sorted(set(np.round(p.real, 12) for p in c.points))
    assert len(re) == 4
    gaps = np.diff(re)
    assert np.allclose(gaps, gaps[0])
    # a numpy integer order builds the same constellation
    assert np.array_equal(make_constellation(np.int64(16)).points, c.points)


@pytest.mark.parametrize("order", [0, 1, 3, 6, 8, 32, 128, -4])
def test_make_constellation_rejects_order(order):
    """BPSK, QPSK and square QAM only: any other order, M-PSK's 8 and 32
    among them, is a ConfigError naming it and the accepted orders, raised
    before any numeric work (np.sqrt(-4) would be nan)."""
    accepted = "must be 2, 4 or an even power of 2 >= 16"
    with pytest.raises(ConfigError, match=rf"{accepted}, got {order}$"):
        make_constellation(order)


def test_bad_constellations_rejected():
    with pytest.raises(ConfigError):
        UserConstellation([2 + 0j, -2 + 0j], [0, 1])  # energy 4
    with pytest.raises(ConfigError):
        UserConstellation(qpsk().points, [0, 3, 1, 2])  # not Gray
    with pytest.raises(ConfigError):
        UserConstellation(qpsk().points[:3], [0, 1, 3])  # order not a power of 2
    with pytest.raises(ConfigError):
        UserConstellation(qpsk().points, [0, 1, 1, 0])  # labels not distinct
    with pytest.raises(ConfigError):
        UserConstellation(qpsk().points, [0, 1, 3])  # a point without a label
    with pytest.raises(ConfigError):
        UserConstellation([1 + 0j, 1 + 0j, -1 + 0j, -1 + 0j], [0, 1, 3, 2])  # repeated points


def test_bit_distance_table_properties():
    c = make_constellation(16)
    t = c.bit_distance_table()
    assert t.dtype == np.intp
    assert (np.diag(t) == 0).all()
    assert (t == t.T).all()
    assert t.max() <= c.bits_per_symbol
    # adjacent labels sit at Hamming distance one
    for k in range(15):
        assert t[k, k + 1] == 1


@pytest.mark.parametrize("n_antennas", [1, 2, 4, 8, 16])
def test_hamming_table_of_antenna_labels(n_antennas):
    """An antenna's label is its 0-based index, so the bits a wrong antenna
    decision costs are ``bit_errors`` of the two indices, for every pair."""
    v = np.arange(n_antennas)
    want = [[bin(a ^ b).count("1") for b in range(n_antennas)] for a in range(n_antennas)]
    got = bit_errors(v[:, None], v[None, :])
    assert got.dtype == np.intp
    assert got.tolist() == want


def test_gray_map_rejects_wrong_length():
    """Labels wider than log2(M) bits are rejected, even when distinct and
    Gray-adjacent, and so are negative ones."""
    with pytest.raises(ConfigError):
        UserConstellation(bpsk().points, [0, 2])
    with pytest.raises(ConfigError):
        UserConstellation(qpsk().points, [0, 1, 5, 4])
    with pytest.raises(ConfigError):
        UserConstellation(bpsk().points, [-1, 0])


# --- superposition ------------------------------------------------------------


def test_superpose_matches_direct_sum():
    """The composite symbol of the label pair (0b00, 0b01) is the direct sum."""
    pa = (0.8, 0.2)
    s2 = QPSK_POINTS[0b00]
    s3 = QPSK_POINTS[0b01]
    want = np.sqrt(0.8) * s2 + np.sqrt(0.2) * s3
    chi = enumerate_sc_alphabet([qpsk(), qpsk()], pa)[1]  # indices (0, 1)
    assert chi == pytest.approx(want, abs=1e-15)
    # pinned numeric value for the canonical pair
    assert chi == pytest.approx(0.31622777 + 0.94868330j, abs=1e-7)


def test_superpose_length_check():
    with pytest.raises(InputError):
        enumerate_sc_alphabet([qpsk()], (0.8, 0.2))


def test_sc_alphabet_enumeration_order_and_values():
    pa = (0.8, 0.2)
    alphabet = enumerate_sc_alphabet([qpsk(), qpsk()], pa)
    assert alphabet.dtype == complex and alphabet.shape == (16,)
    # entry j is the direct weighted sum of the j-th index tuple in
    # lexicographic order
    q = qpsk().points
    for (k2, k3), chi in zip(itertools.product(range(4), range(4)), alphabet):
        want = np.sqrt(0.8) * q[k2] + np.sqrt(0.2) * q[k3]
        assert abs(chi - want) < 1e-14


def test_sc_alphabet_mean_energy_is_one():
    pa = (0.7, 0.2, 0.1)
    alphabet = enumerate_sc_alphabet([qpsk()] * 3, pa)
    assert np.mean(np.abs(alphabet) ** 2) == pytest.approx(1.0, abs=1e-12)


# --- the antenna index as a label ---------------------------------------------


@pytest.mark.parametrize("n_t", [1, 2, 4, 8, 16])
def test_antenna_map_bijection(n_t):
    """Antenna indices 0..N_t-1 are their own natural-binary labels of
    log2(N_t) bits: distinct antennas differ in at least one bit and at most
    log2(N_t), and each bit differs between half of the ordered pairs."""
    nbits = n_t.bit_length() - 1
    v = np.arange(n_t)
    table = bit_errors(v[:, None], v[None, :])
    assert ((table == 0) == np.eye(n_t, dtype=bool)).all()
    assert table.max() <= nbits
    assert table.sum() == nbits * n_t * n_t // 2


def test_bpsk_points():
    assert bpsk().points.tolist() == [1 + 0j, -1 + 0j]
    assert bpsk().labels.tolist() == [0, 1]


def test_constellation_arrays_are_read_only():
    """Every config shares its constellations' arrays through its tables."""
    c = qpsk()
    for values in (c.points, c.labels):
        with pytest.raises(ValueError):
            values[0] = 0
