"""Acceptance suite: one test per published-claim criterion. Each test prints
a single PASS/FAIL verdict line (also reflected by the pytest -v status).

The heavier simulations are sized for a desk-scale run; the whole module
finishes in a few minutes.
"""

import collections
import csv
import itertools
import json
import math
import os

import numpy as np
import pytest
from scipy import integrate, special

from ssknoma import cli
from ssknoma import montecarlo as mc
from ssknoma.analytics import (
    OutageTargets,
    abep_u1,
    abep_u2,
    abep_u3,
    chi2_pdf,
    conditional_bep_u1_vec,
    ergodic_capacity_fractions,
    ergodic_capacity_noma_user,
    exp_integral,
    pair_energy_table,
    q_func,
    union_bound_ber,
    zeta_set,
)
from ssknoma.constellation import (
    PowerAllocation,
    enumerate_sc_alphabet,
    make_constellation,
    qpsk,
)
from ssknoma.detectors import complexity_noma, complexity_ssk_noma

PA2 = PowerAllocation((0.8, 0.2))
ALPHABET3 = enumerate_sc_alphabet([qpsk(), qpsk()], PA2)
# per N_t
PAIRS3 = {n_t: pair_energy_table(ALPHABET3, n_t) for n_t in (2, 4)}


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d} ({name}) failed: {detail}"


def _ber_curves(cfg):
    curves = collections.defaultdict(list)
    for p in mc.run_sweep(cfg, metrics=("ber",)).points:
        curves[p.user].append(p)
    return curves


# -------------------------------------------------------------------------


def test_c01_operation_count_table():
    """All six published receiver-complexity rows reproduced exactly."""
    reference = {
        (3, 2, 2): (72, 108),
        (3, 4, 4): (312, 408),
        (4, 2, 2): (140, 184),
        (4, 4, 4): (760, 688),
        (5, 2, 2): (240, 280),
        (5, 4, 4): (2000, 1040),
    }
    ok = all(
        complexity_ssk_noma(n, m, m, r) == d_ssk and complexity_noma(n, m, r) == d_noma
        for (n, m, r), (d_ssk, d_noma) in reference.items()
    )
    _verdict(1, "operation-count table", ok)


def test_c02_composite_alphabet_table():
    """All 16 composite symbols match the per-cell sign construction to 1e-12."""
    a2, a3 = 0.8, 0.2
    labels = ("00", "01", "11", "10")  # Gray storage order used by qpsk()
    worst = 0.0
    for (k2, k3), chi in zip(itertools.product(range(4), range(4)), ALPHABET3):
        l2, l3 = labels[k2], labels[k3]
        re = (1 if l2[1] == "0" else -1) * math.sqrt(a2 / 2) + (
            1 if l3[1] == "0" else -1
        ) * math.sqrt(a3 / 2)
        im = (1 if l2[0] == "0" else -1) * math.sqrt(a2 / 2) + (
            1 if l3[0] == "0" else -1
        ) * math.sqrt(a3 / 2)
        worst = max(worst, abs(chi - complex(re, im)))
    _verdict(2, "composite-alphabet table", worst < 1e-12, f"max|err|={worst:.1e}")


def test_c03_exact_abep_agreement():
    """Three-user QPSK: simulated intra-cell BER within 3 CI half-widths of
    the exact forms; cell-edge BER below its bound plus 3 half-widths."""
    grid = [0.0, 4.0, 8.0, 12.0, 16.0, 20.0]
    failures = []
    for n_r in (2, 4):
        cfg = mc.make_config(scheme=mc.SSK_NOMA, n_users=3, n_r=n_r,
                             snr_grid_db=grid, seed=51, min_bit_errors=400,
                             max_trials=2_000_000)
        curves = _ber_curves(cfg)
        for p in curves[1]:
            rho = 10.0 ** (p.snr_db / 10.0)
            bound = abep_u1(PAIRS3[n_r], n_r, rho, 1.0)
            if p.value > bound + 3.0 * p.ci_halfwidth:
                failures.append(f"u1 nr={n_r} {p.snr_db}dB")
        for user, exact_fn, sig in ((2, abep_u2, 2.0), (3, abep_u3, 4.0)):
            for p in curves[user]:
                if p.value < 1e-4:
                    continue
                rho = 10.0 ** (p.snr_db / 10.0)
                want = exact_fn(0.8, 0.2, rho * sig, n_r)
                if abs(p.value - want) > 3.0 * p.ci_halfwidth:
                    failures.append(f"u{user} nr={n_r} {p.snr_db}dB")
    _verdict(3, "exact-ABEP agreement", not failures, ";".join(failures))


def test_c04_union_bound_dominance_and_tightness():
    """Four-user bound dominates the simulation at every point and stays
    within a factor 4 at the highest point with measurable BER."""
    grid = [0.0, 10.0, 20.0, 30.0]
    failures = []
    for n_r in (2, 4):
        cfg = mc.make_config(scheme=mc.SSK_NOMA, n_users=4, n_r=n_r,
                             snr_grid_db=grid, seed=52, min_bit_errors=600,
                             max_trials=2_000_000)
        curves = _ber_curves(cfg)
        for user in (2, 3, 4):
            sig = 2.0 ** (user - 1)
            bounds = {}
            for p in curves[user]:
                rho = 10.0 ** (p.snr_db / 10.0)
                bounds[p.snr_db] = union_bound_ber(
                    user - 2, cfg.tables.consts, cfg.pa, rho, sig, n_r
                )
                if bounds[p.snr_db] < p.value - 3.0 * p.ci_halfwidth:
                    failures.append(f"dominance u{user} nr={n_r} {p.snr_db}dB")
            measurable = [p for p in curves[user] if p.value >= 1e-4]
            top = max(measurable, key=lambda p: p.snr_db)
            ratio = bounds[top.snr_db] / top.value
            if ratio > 4.0:
                failures.append(f"tightness u{user} nr={n_r} ratio={ratio:.2f}")
    _verdict(4, "union-bound dominance/tightness", not failures, ";".join(failures))


def test_c05_capacity_agreement():
    """Closed-form ergodic rates within 0.02 bits of the simulated averages,
    and the cell-edge closed form consistent with conditional-BEP averaging."""
    failures = []
    for n_users in (3, 4):
        for n_r in (2, 4):
            cfg = mc.make_config(scheme=mc.SSK_NOMA, n_users=n_users, n_r=n_r,
                                 snr_grid_db=[10.0], seed=53,
                                 max_trials=1_000_000)
            points = {p.user: p for p in mc.run_sweep(cfg, metrics=("rate",)).points}
            for user in range(2, n_users + 1):
                want = ergodic_capacity_noma_user(
                    user - 2, cfg.pa, 10.0, cfg.fading.variances[user - 1], n_r
                )
                if abs(points[user].value - want) > 0.02:
                    failures.append(f"L={n_users} nr={n_r} u{user}")
    # closed-form cell-edge error rate vs its conditional-BEP average
    for n_r in (2, 4):
        closed = abep_u1(PAIRS3[n_r], n_r, 10.0, 1.0, clamp=False)
        avg, _ = integrate.quad(
            lambda g: conditional_bep_u1_vec(np.array([g]), PAIRS3[n_r], clamp=False)[0]
            * chi2_pdf(g, n_r, 10.0),
            0.0, np.inf, limit=400,
        )
        gap = abs(np.log2(n_r) * (1.0 - closed) - np.log2(n_r) * (1.0 - avg))
        if gap > 1e-3:
            failures.append(f"u1 consistency nr={n_r} gap={gap:.1e}")
    _verdict(5, "capacity agreement", not failures, ";".join(failures))


def test_c06_outage_agreement():
    """Four-user outage: closed form within 3 standard errors of the draw
    frequencies. That counting outage by the equivalent SNR threshold equals
    testing every SINR of the SIC cascade is a property test in
    test_analytics.py (test_outage_threshold_matches_sinr_cascade)."""
    failures = []
    for n_r in (2, 4):
        cfg = mc.make_config(scheme=mc.SSK_NOMA, n_users=4, n_r=n_r,
                             snr_grid_db=[0.0, 10.0, 20.0, 30.0], seed=99,
                             target_rates=(1.0, 1.5, 1.5, 2.0),
                             max_trials=1_000_000)
        for p in mc.run_sweep(cfg, metrics=("outage",)).points:
            if p.user == 1 or p.value < 1e-3 or p.analytic is None:
                continue
            se = max(p.ci_halfwidth / 1.96, 1e-12)
            if abs(p.value - p.analytic) > 3.0 * se:
                failures.append(f"u{p.user} nr={n_r} {p.snr_db}dB")
    _verdict(6, "outage agreement", not failures, ";".join(failures))


def test_c07_diversity_order():
    """High-SNR log-log slopes of the analytic curves (30-40 dB) and of the
    simulated N_r=2 curves (16-26 dB) within 0.3 of -N_r."""
    failures = []

    def fitted_slope(snrs_db, values):
        return float(np.polyfit(np.asarray(snrs_db) / 10.0, np.log10(values), 1)[0])

    for n_r in (2, 4):
        analytic = {
            1: lambda rho, n=n_r: abep_u1(PAIRS3[n], n, rho, 1.0),
            2: lambda rho, n=n_r: abep_u2(0.8, 0.2, rho * 2.0, n),
            3: lambda rho, n=n_r: abep_u3(0.8, 0.2, rho * 4.0, n),
        }
        for user, fn in analytic.items():
            grid = [30.0, 35.0, 40.0]
            slope = fitted_slope(grid, [fn(10.0 ** (s / 10.0)) for s in grid])
            if abs(slope + n_r) > 0.3:
                failures.append(f"analytic u{user} nr={n_r} slope={slope:.2f}")
    cfg = mc.make_config(scheme=mc.SSK_NOMA, n_users=3, n_r=2,
                         snr_grid_db=[16.0, 21.0, 26.0], seed=33,
                         min_bit_errors=400, max_trials=8_000_000)
    for user, points in _ber_curves(cfg).items():
        slope = fitted_slope([p.snr_db for p in points], [p.value for p in points])
        if abs(slope + 2.0) > 0.3:
            failures.append(f"simulated u{user} slope={slope:.2f}")
    _verdict(7, "diversity order", not failures, ";".join(failures))


def test_c08_energy_level_identities():
    z = zeta_set(0.8, 0.2)
    want = (0.2, 1.8, 0.2, 1.8, 5.0)
    worst = max(abs(a - b) for a, b in zip(z, want))
    _verdict(8, "energy-level identities", worst < 1e-12, f"max|err|={worst:.1e}")


def test_c09_special_functions():
    """Q and Ei against quadrature oracles at 1e-9 relative; the single-branch
    capacity closed form against the scalar Rayleigh formula at 1e-6."""
    failures = []
    for x in np.linspace(0.0, 8.0, 33):
        want, _ = integrate.quad(
            lambda t: np.exp(-t * t / 2.0) / np.sqrt(2.0 * np.pi),
            x, x + 12.0, epsabs=0.0, epsrel=1e-13,
        )
        if abs(q_func(x) - want) > 1e-9 * abs(want):
            failures.append(f"Q({x:g})")
    for x in np.concatenate([-np.logspace(np.log10(1e-3), np.log10(50.0), 25)]):
        want, _ = integrate.quad(lambda t: np.exp(-t) / t, -x, -x + 60.0,
                                 epsabs=0.0, epsrel=1e-13)
        if abs(exp_integral(float(x)) + want) > 1e-9 * abs(want):
            failures.append(f"Ei({x:.4g})")
    for eta in (0.5, 5.0, 50.0):
        scalar = np.exp(1.0 / eta) * special.exp1(1.0 / eta) / np.log(2.0)
        if abs(ergodic_capacity_fractions(1.0, 0.0, eta, 1) - scalar) > 1e-6:
            failures.append(f"capacity eta={eta:g}")
    _verdict(9, "special functions", not failures, ";".join(failures))


def test_c10_scheme_superiority():
    """At 20 dB with three users the antenna-indexed scheme beats the
    single-antenna baseline on every user's BER and on the sum rate, each by
    more than 3 combined CI half-widths."""
    failures = []
    ssk = mc.make_config(scheme=mc.SSK_NOMA, n_users=3, n_r=2,
                         snr_grid_db=[20.0], seed=41, min_bit_errors=400,
                         max_trials=2_000_000)
    base = mc.make_config(scheme=mc.NOMA_BASELINE, n_users=3, n_r=2,
                          snr_grid_db=[20.0], seed=41, min_bit_errors=400,
                          max_trials=2_000_000)
    ssk_ber = {p.user: p for p in mc.run_sweep(ssk, metrics=("ber",)).points}
    base_ber = {p.user: p for p in mc.run_sweep(base, metrics=("ber",)).points}
    for user in (1, 2, 3):
        a, b = ssk_ber[user], base_ber[user]
        margin = 3.0 * math.hypot(a.ci_halfwidth, b.ci_halfwidth)
        if not b.value - a.value > margin:
            failures.append(f"ber u{user}")
    ssk_r = mc.make_config(scheme=mc.SSK_NOMA, n_users=3, n_r=4,
                           snr_grid_db=[20.0], seed=41, max_trials=1_000_000)
    base_r = mc.make_config(scheme=mc.NOMA_BASELINE, n_users=3, n_r=4,
                            snr_grid_db=[20.0], seed=41, max_trials=1_000_000)
    rs = {p.user: p for p in mc.run_sweep(ssk_r, metrics=("rate",)).points}
    rb = {p.user: p for p in mc.run_sweep(base_r, metrics=("rate",)).points}
    margin = 3.0 * math.hypot(rs[0].ci_halfwidth, rb[0].ci_halfwidth)
    if not rs[0].value - rb[0].value > margin:
        failures.append("sum rate")
    _verdict(10, "scheme superiority", not failures, ";".join(failures))


def test_c11_determinism_across_workers(tmp_path, monkeypatch):
    """The same seed yields byte-identical CSV payloads for 1 and 4 workers
    (fewer on a smaller machine: SSKNOMA_WORKERS is capped at the CPU count)."""
    doc = {
        "scheme": "ssk-noma", "n_users": 3, "n_r": 2,
        "snr_grid_db": [5.0, 10.0], "seed": 60, "max_trials": 200000,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    payloads = []
    for workers in ("1", str(min(4, os.cpu_count()))):
        monkeypatch.setenv("SSKNOMA_WORKERS", workers)
        out = tmp_path / f"workers{workers}"
        rc = cli.main(["ber", "--config", str(cfg_path), "--out", str(out),
                       "--quiet"])
        assert rc == 0
        payloads.append((out / "ber.csv").read_bytes())
    _verdict(11, "determinism across workers", payloads[0] == payloads[1])
