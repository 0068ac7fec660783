"""Transmit-side unit tests: constellations, superposition coding, antenna
mapping. Oracle values are computed independently inside the tests."""

import itertools

import numpy as np
import pytest

from ssknoma.constellation import (
    PowerAllocation,
    UserConstellation,
    antenna_label,
    bpsk,
    enumerate_sc_alphabet,
    hamming_table,
    make_constellation,
    mpsk,
    qpsk,
    square_qam,
    superpose,
)
from ssknoma.errors import ConfigError, InputError

S = 1 / np.sqrt(2)

# label -> expected point, fixed by the bit-direction convention in the module
QPSK_POINTS = {
    "00": complex(S, S),
    "01": complex(-S, S),
    "11": complex(-S, -S),
    "10": complex(S, -S),
}


def test_qpsk_labels_and_points():
    c = qpsk()
    assert c.order == 4
    for lab, want in QPSK_POINTS.items():
        got = c.symbols[c.index_of_label(lab)]
        assert got == pytest.approx(want, abs=1e-15)


def test_qpsk_gray_order():
    assert qpsk().labels == ("00", "01", "11", "10")


@pytest.mark.parametrize("order", [2, 4, 8, 16, 32, 64])
def test_constellation_unit_energy_and_gray(order):
    c = make_constellation(order)
    pts = c.points
    assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert len(set(c.labels)) == order
    for a, b in zip(c.labels, c.labels[1:]):
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_square_qam_grid():
    c = square_qam(16)
    # 4 amplitude levels per axis, equally spaced
    re = sorted(set(np.round(p.real, 12) for p in c.points))
    assert len(re) == 4
    gaps = np.diff(re)
    assert np.allclose(gaps, gaps[0])


def test_bad_constellations_rejected():
    with pytest.raises(ConfigError):
        mpsk(3)
    with pytest.raises(ConfigError):
        square_qam(8)
    with pytest.raises(ConfigError):
        UserConstellation(2, (2 + 0j, -2 + 0j), ("0", "1"))  # energy 4
    with pytest.raises(ConfigError):
        UserConstellation(4, qpsk().symbols, ("00", "11", "01", "10"))  # not Gray


def test_bit_distance_table_properties():
    c = make_constellation(16)
    t = c.bit_distance_table()
    assert (np.diag(t) == 0).all()
    assert (t == t.T).all()
    assert t.max() <= c.bits_per_symbol
    # adjacent labels sit at Hamming distance one
    for k in range(15):
        assert t[k, k + 1] == 1


@pytest.mark.parametrize("n_antennas", [1, 2, 4, 8])
def test_hamming_table_of_antenna_labels(n_antennas):
    labels = [antenna_label(v, n_antennas) for v in range(1, n_antennas + 1)]
    want = [[bin(a ^ b).count("1") for b in range(n_antennas)] for a in range(n_antennas)]
    assert hamming_table(labels).tolist() == want


def test_gray_map_rejects_wrong_length():
    with pytest.raises(InputError):
        qpsk().index_of_label("0")
    with pytest.raises(InputError):
        qpsk().index_of_label("02")


# --- power allocation -------------------------------------------------------


def test_power_allocation_validation():
    PowerAllocation((0.8, 0.2))
    PowerAllocation((1.0,))
    with pytest.raises(ConfigError):
        PowerAllocation((0.5, 0.5))  # not strictly decreasing
    with pytest.raises(ConfigError):
        PowerAllocation((0.7, 0.2))  # sum != 1
    with pytest.raises(ConfigError):
        PowerAllocation(())


def test_superpose_matches_direct_sum():
    pa = PowerAllocation((0.8, 0.2))
    s2 = QPSK_POINTS["00"]
    s3 = QPSK_POINTS["01"]
    want = np.sqrt(0.8) * s2 + np.sqrt(0.2) * s3
    assert superpose([s2, s3], pa) == pytest.approx(want, abs=1e-15)
    # pinned numeric value for the canonical pair
    assert superpose([s2, s3], pa) == pytest.approx(0.31622777 + 0.94868330j, abs=1e-7)


def test_superpose_length_check():
    with pytest.raises(InputError):
        superpose([1 + 0j], PowerAllocation((0.8, 0.2)))


def test_sc_alphabet_enumeration_order_and_values():
    pa = PowerAllocation((0.8, 0.2))
    alphabet = enumerate_sc_alphabet([qpsk(), qpsk()], pa)
    assert alphabet.size == 16
    assert [idx for idx, _ in alphabet.entries] == list(itertools.product(range(4), range(4)))
    # every entry equals the direct weighted sum of its component symbols
    q = qpsk().points
    for (k2, k3), chi in alphabet.entries:
        want = np.sqrt(0.8) * q[k2] + np.sqrt(0.2) * q[k3]
        assert abs(chi - want) < 1e-14


def test_sc_alphabet_mean_energy_is_one():
    pa = PowerAllocation((0.7, 0.2, 0.1))
    alphabet = enumerate_sc_alphabet([qpsk()] * 3, pa)
    assert np.mean(np.abs(alphabet.values) ** 2) == pytest.approx(1.0, abs=1e-12)


# --- antenna mapping --------------------------------------------------------


@pytest.mark.parametrize("n_t", [1, 2, 4, 8, 16])
def test_antenna_map_bijection(n_t):
    """Antenna v in 1..N_t carries the natural-binary label of v - 1."""
    nbits = n_t.bit_length() - 1
    labels = [antenna_label(v, n_t) for v in range(1, n_t + 1)]
    assert labels == [format(n, f"0{nbits}b") if nbits else "" for n in range(n_t)]


def test_map_antenna_errors():
    for v in (0, 5):
        with pytest.raises(InputError):
            antenna_label(v, 4)


def test_bpsk_points():
    assert bpsk().symbols == (1 + 0j, -1 + 0j)
