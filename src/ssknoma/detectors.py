"""Receiver-complexity accounting: the complex-operation counts of the
SSK-NOMA and conventional NOMA receiver chains.

The receiver itself (joint antenna/symbol search, ML detection and SIC) is
the batched one the trial engine runs, in :mod:`ssknoma.montecarlo`.
"""

from __future__ import annotations

from math import prod

from .errors import InputError


def _ml_sic_ops(m, n_r: int) -> int:
    """ML detection for every power-multiplexed user (orders ``m`` in
    decoding order) plus the SIC stages each one cancels first."""
    ml = sum(4 * n_r * mi for mi in m)
    sic = sum(4 * n_r * m[q] + 2 * n_r for j in range(len(m)) for q in range(j))
    return ml + sic


def complexity_ssk_noma(n_users: int, m: int, n_t: int, n_r: int) -> int:
    """Complex-operation count of the full SSK-NOMA receiver chain, every
    power user of order ``m``: SM search at the cell-edge user plus ML + SIC
    at intra-cell users."""
    if n_users < 2:
        raise InputError("need at least 2 users")
    orders = [m] * (n_users - 1)  # users 2..L
    m_t = prod(orders)
    return 2 * n_r * n_t + n_t * m_t + m_t + _ml_sic_ops(orders, n_r)


def complexity_noma(n_users: int, m: int, n_r: int) -> int:
    """Complex-operation count of a conventional single-antenna NOMA receiver
    chain over all L power-multiplexed users, each of order ``m``."""
    if n_users < 2:
        raise InputError("need at least 2 users")
    return _ml_sic_ops([m] * n_users, n_r)  # users 1..L
