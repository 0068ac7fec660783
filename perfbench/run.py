"""Time-to-curve benchmark for ssknoma.

Drives the public ``ssknoma.cli.main`` entry point in this process, on the
sources under ``src/`` of the checkout this file sits in, and prints one JSON
result as the last line of standard output:

    python3 perfbench/run.py --workload ber-fig3 --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: CPU seconds rescaled to a
reference machine speed by a calibration kernel run between passes, median
over the passes that fit in ``--seconds`` after one warm-up pass. With ``--trace 1``
it alternates untraced passes with traced ones (and, on the pool workload,
two-worker passes) and reports the per-layer metrics. Every pass's CSVs are
checked against the reference CSVs in ``perfbench/reference``;
``python3 perfbench/run.py --write-reference`` regenerates those at
``REFERENCE_SEED``. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

# One BLAS thread, set before numpy is first imported: with one worker the
# program is then single-threaded, and its CPU time is the time it takes on an
# otherwise idle core, whatever else shares the machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import check  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"
CONFIGS = HERE / "configs"
REFERENCE_SEED = 1
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
# CPU seconds of calibration_cpu_s() on the reference machine (Xeon at
# 2.1 GHz, 2 cores, when quiet): timed passes are reported at this speed.
REF_CALIBRATION_S = 0.30
METRIC_OF_COMMAND = {"ber": "ber", "capacity": "rate", "outage": "outage"}


@dataclass(frozen=True)
class Step:
    """One CLI sweep command; ``name`` names its config and reference CSV."""

    name: str
    command: str


@dataclass(frozen=True)
class Workload:
    """Timed passes use one worker; ``pool_workers`` > 1 adds passes with that
    many pool workers to traced runs, for the pool metrics."""

    name: str
    steps: tuple
    pool_workers: int = 0


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("ber-fig2", (Step("ber-fig2", "ber"),), pool_workers=2),
    Workload("ber-fig3", (Step("ber-fig3", "ber"),)),
    Workload("rate-outage", (Step("capacity-fig4-nr4", "capacity"),
                             Step("outage-fig6", "outage"),
                             Step("outage-fig7", "outage"))),
)}


def program_seed(seed: int) -> int:
    """The seed handed to ``--seed``: the program takes a nonnegative seed."""
    return seed % 2**32


# ---------------------------------------------------------------------------
# Set-up: import the package and load and validate the workload's configs
# ---------------------------------------------------------------------------


def setup(workload: Workload, seed: int):
    """Import ssknoma from the checkout and build every run's SimConfig.

    Returns ``(ssknoma.cli.main, {step name: [SimConfig]}, CPU seconds)``. The
    package must come from ``src/`` of this checkout, never from an installed
    copy.
    """
    t0 = time.process_time()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ssknoma
    import ssknoma.cli

    if Path(ssknoma.__file__).resolve().parent != SRC / "ssknoma":
        raise ImportError(f"ssknoma was imported from {ssknoma.__file__}, not {SRC}")
    configs = {}
    for step in workload.steps:
        doc = json.loads((CONFIGS / f"{step.name}.json").read_text())
        shared = {k: v for k, v in doc.items() if k != "runs"}
        configs[step.name] = [ssknoma.make_config(**{**shared, **run, "seed": program_seed(seed)})
                              for run in doc["runs"]]
    return ssknoma.cli.main, configs, time.process_time() - t0


def setup_in_fresh_interpreters(workload: Workload, seed: int, count: int):
    """Set-up CPU seconds measured in ``count`` new interpreters, one at a time."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload.name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def op_sizes(configs, command: str):
    """Rows per operation (run, metric, SNR point), in CSV order."""
    extra = 1 if command == "capacity" else 0  # the sum-rate row
    return [cfg.n_users + extra for cfg in configs for _ in cfg.snr_grid_db]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class PassTime(NamedTuple):
    wall_s: float
    cpu_s: float  # this process and the pool children it reaped
    child_cpu_s: float


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_pass(main, workload: Workload, seed: int, out_dir: Path, workers: int = 1):
    """Run every step once; returns (PassTime, {step name: error text}) with
    the CSVs under ``out_dir/<step>``."""
    argvs = []
    for step in workload.steps:
        step_dir = out_dir / step.name
        argvs.append((step.name, [step.command, "--config", str(CONFIGS / f"{step.name}.json"),
                                  "--seed", str(program_seed(seed)), "--out", str(step_dir),
                                  "--quiet"]))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.environ["SSKNOMA_WORKERS"] = str(workers)
    errors = {}
    child0, cpu0 = _children_cpu(), time.process_time()
    t0 = time.perf_counter()
    for name, argv in argvs:
        try:
            rc = main(argv)
        except Exception:  # a failed command is counted, the benchmark goes on
            errors[name] = traceback.format_exc()
            continue
        if rc != 0:
            errors[name] = f"exit code {rc}"
    wall_s = time.perf_counter() - t0
    child_cpu_s = _children_cpu() - child0
    return PassTime(wall_s, time.process_time() - cpu0 + child_cpu_s, child_cpu_s), errors


def traced_pass(main, workload: Workload, seed: int, out_dir: Path):
    """One single-worker pass with the boundary tracer installed; returns
    (PassTime with the root span's wall time, tracer, errors)."""
    import tracer as tracing  # imports numpy, so only after the timed set-up

    tr = tracing.Tracer()
    tr.install(tracing.package_modules())
    try:
        traced_main = tr.wrap("cli", "main", main)
        with tr.span(tracing.ROOT_LAYER, "pass") as root:
            times, errors = run_pass(traced_main, workload, seed, out_dir)
    finally:
        tr.uninstall()
    return times._replace(wall_s=(root[3] - root[2]) / 1e9), tr, errors


def check_pass(workload: Workload, configs, out_dir: Path, errors):
    total = check.CheckResult()
    for step in workload.steps:
        sizes = op_sizes(configs[step.name], step.command)
        metric = METRIC_OF_COMMAND[step.command]
        if step.name in errors:
            res = check.CheckResult(attempted=len(sizes), failed=len(sizes))
            res.problems.append(f"{out_dir.name}/{step.name}: {errors[step.name].strip()}")
        else:
            res = check.check_csv(out_dir / step.name / f"{metric}.csv",
                                  REFERENCE / workload.name / f"{step.name}.csv",
                                  sizes, f"{out_dir.name}/{step.name}")
        total.add(res)
    return total


def calibration_cpu_s() -> float:
    """CPU seconds of a fixed kernel that runs no ssknoma code: normal draws,
    a nearest-point search, scipy special functions and an interpreter loop,
    the kinds of work the workloads do. Its working set (about 20 MB) stays
    below every workload's peak RSS."""
    import numpy as np
    from scipy import special

    t0 = time.process_time()
    rng = np.random.default_rng(0)
    points = np.exp(2j * np.pi * np.arange(64) / 64)
    for _ in range(30):
        h = rng.standard_normal((2_500, 4)) + 1j * rng.standard_normal((2_500, 4))
        (np.abs(h[:, :, None] - points) ** 2).argmin(axis=2)
        r = np.abs(h).ravel()
        special.erfc(r).sum()
        special.expi(-r - 0.1).sum()
    total = 0
    for i in range(200_000):
        total += i & 7
    return time.process_time() - t0


def run_passes(seconds: float, warm_up, one_round):
    """Call ``warm_up`` once, then ``one_round`` until the next round would
    end past ``seconds`` from the start (at least once); returns the number
    of rounds."""
    t0 = time.perf_counter()
    warm_up()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        one_round(rounds)
        rounds += 1
        now = time.perf_counter()
        if now - t0 + (now - r0) > seconds:
            return rounds


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

FUNCTIONS_REPORTED = {
    "channel": ("rng_stream",),
    "analytics": ("abep_u1", "conditional_bep_u1_vec", "outage_u1", "union_bound_ber"),
    "constellation": ("enumerate_sc_alphabet", "make_constellation"),
}
LAYERS = ("cli", "montecarlo", "channel", "constellation", "analytics", "detectors")


def layer_metrics(summary) -> dict:
    """Per-layer numbers of one traced pass, in seconds and counts."""
    layers, fns = summary["layers"], summary["functions"]

    def fn(name, key):
        return fns.get(name, {}).get(key, 0)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, {}).get("self_ns", 0) / 1e9
        out[f"{layer}.calls"] = layers.get(layer, {}).get("calls", 0)
    out["montecarlo.run_sweep.busy_s"] = fn("montecarlo.run_sweep", "busy_ns") / 1e9
    values = fn("channel.complex_normal", "values")
    out["channel.complex_normal.values"] = values
    out["channel.complex_normal.ns_per_value"] = (
        fn("channel.complex_normal", "busy_ns") / values if values else 0.0)
    for layer, names in FUNCTIONS_REPORTED.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = fn(f"{layer}.{name}", "calls")
            if layer == "analytics":
                out[f"{layer}.{name}.busy_s"] = fn(f"{layer}.{name}", "busy_ns") / 1e9
    return out


def _layer_unit(name: str) -> str:
    if name.endswith((".calls", ".values")):
        return "count"
    if name.endswith(".ns_per_value"):
        return "ns"
    if name.endswith(("_share", ".speedup")):
        return "ratio"
    return "s"


def _median(passes, field: str) -> float:
    return statistics.median(getattr(p, field) for p in passes)


def per_layer_result(workload: Workload, untraced, pooled, traced) -> dict:
    """``{name: (value, unit)}`` from the one-worker ``untraced`` and the
    ``pooled`` [PassTime] passes and the ``traced`` [(PassTime, layer
    metrics)] passes.

    The pool metrics read 0 on workloads without pool passes."""
    traced_times = [t for t, _ in traced]
    metrics = {name: statistics.median([m[name] for _, m in traced]) for name in traced[0][1]}
    if pooled:
        pool_wall = _median(pooled, "wall_s")
        child_cpu = _median(pooled, "child_cpu_s")
        metrics["montecarlo.pool.child_cpu_s"] = child_cpu
        metrics["montecarlo.pool.busy_share"] = child_cpu / (workload.pool_workers * pool_wall)
        metrics["montecarlo.pool.speedup"] = _median(untraced, "wall_s") / pool_wall
    else:
        metrics.update({f"montecarlo.pool.{n}": 0.0 for n in ("child_cpu_s", "busy_share",
                                                              "speedup")})
    metrics["trace.sweep_s"] = _median(traced_times, "wall_s")
    metrics["trace.overhead_share"] = (_median(traced_times, "cpu_s")
                                       / _median(untraced, "cpu_s") - 1.0)
    return {name: (value, _layer_unit(name)) for name, value in metrics.items()}


def end_to_end_result(sweeps_cpu, calibrations, trials_per_pass: int, peak_rss_mb: float,
                      setups) -> dict:
    """``{name: (value, unit)}`` from the timed passes' CPU seconds, the
    calibration kernel's CPU seconds before the first pass and after each
    pass, the trials one pass simulates, peak RSS and the set-up samples.

    The host's speed drifts by tens of percent over minutes, and the kernel
    run on either side of a pass slows with it, so each pass is rescaled by
    the mean of those two kernel times to the reference speed. The set-up
    samples, taken after the passes, are rescaled by the median kernel time."""
    sweep_ref_s = REF_CALIBRATION_S * statistics.median(
        cpu / ((before + after) / 2)
        for cpu, before, after in zip(sweeps_cpu, calibrations, calibrations[1:]))
    return {
        "sweep_ref_s": (sweep_ref_s, "s"),
        "trials_per_ref_s": (trials_per_pass / sweep_ref_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (REF_CALIBRATION_S * statistics.median(setups)
                    / statistics.median(calibrations), "s"),
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _openblas():
    """Config string and thread count of every OpenBLAS loaded in this process."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    found = []
    for path in sorted({line.split()[-1] for line in maps if "openblas" in line}):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if cfg and threads and "config" not in entry:
                    cfg.restype = ctypes.c_char_p
                    entry.update(config=cfg().decode(), threads=threads())
        found.append(entry)
    return found


def environment(workload: Workload) -> dict:
    import platform

    import numpy
    import scipy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SSKNOMA_WORKERS": 1,
        "pool_workers": workload.pool_workers,
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    main, configs, setup_s = setup(workload, seed)
    out_root = OUT / workload.name
    shutil.rmtree(out_root, ignore_errors=True)
    results = check.CheckResult()
    untraced, pooled, traced = [], [], []
    trials_per_pass = []
    calibrations = []  # before the first timed pass and after each one
    last_tracer = None

    def checked_pass(out_dir, workers=1):
        times, errors = run_pass(main, workload, seed, out_dir, workers)
        res = check_pass(workload, configs, out_dir, errors)
        results.add(res)
        trials_per_pass.append(res.trials)
        return times

    def warm_up():
        checked_pass(out_root / "warmup")
        if not trace:
            calibration_cpu_s()  # its first call pays one-time costs
            calibrations.append(calibration_cpu_s())

    def untraced_round(i):
        untraced.append(checked_pass(out_root / f"pass{i}"))
        if not trace:
            calibrations.append(calibration_cpu_s())

    def traced_round(i):
        nonlocal last_tracer
        untraced_round(i)
        if workload.pool_workers > 1:
            pooled.append(checked_pass(out_root / f"pool{i}", workload.pool_workers))
        import tracer as tracing

        out_dir = out_root / f"traced{i}"
        times, tr, errors = traced_pass(main, workload, seed, out_dir)
        traced.append((times, layer_metrics(tracing.summarize(tr.spans))))
        results.add(check_pass(workload, configs, out_dir, errors))
        last_tracer = tr

    rounds = run_passes(seconds, warm_up, traced_round if trace else untraced_round)
    peak_rss_mb = _peak_rss_mb()
    env = environment(workload)
    if trace:
        metrics = per_layer_result(workload, untraced, pooled, traced)
        last_tracer.write(out_root / "spans.jsonl")
    else:
        setups = [setup_s] + setup_in_fresh_interpreters(workload, seed, SETUP_SAMPLES - 1)
        metrics = end_to_end_result([t.cpu_s for t in untraced], calibrations,
                                    statistics.median(trials_per_pass), peak_rss_mb, setups)
    (out_root / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    for problem in results.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    failed_share = results.failed / results.attempted
    print(f"workload {workload.name} seed {seed} rounds {rounds} trace {int(trace)}")
    for label, passes in (("untraced", untraced), ("pool", pooled),
                          ("traced", [t for t, _ in traced])):
        if passes:
            print(f"{label} passes wall s " + " ".join(f"{t.wall_s:.3f}" for t in passes))
            print(f"{label} passes cpu s " + " ".join(f"{t.cpu_s:.3f}" for t in passes))
    if calibrations:
        print("calibration cpu s " + " ".join(f"{c:.4f}" for c in calibrations))
    print(f"env {json.dumps(env)}")
    print(f"operations attempted {results.attempted} failed {results.failed} "
          f"failed_share {failed_share:g} max_z {results.max_z:.2f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": results.failed == 0,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def write_reference() -> None:
    """Regenerate every reference CSV from the current sources."""
    for workload in WORKLOADS.values():
        main, _, _ = setup(workload, REFERENCE_SEED)
        out_dir = OUT / "reference" / workload.name
        _, errors = run_pass(main, workload, REFERENCE_SEED, out_dir)
        if errors:
            raise SystemExit(f"reference run failed: {errors}")
        target = REFERENCE / workload.name
        target.mkdir(parents=True, exist_ok=True)
        for step in workload.steps:
            metric = METRIC_OF_COMMAND[step.command]
            shutil.copyfile(out_dir / step.name / f"{metric}.csv", target / f"{step.name}.csv")
            print(f"wrote {target / (step.name + '.csv')}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time in seconds and exit")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the reference CSVs at the reference seed")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ssknoma" / "__init__.py").is_file():
        print(f"error: no ssknoma sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        print(setup(workload, args.seed)[2])
        return 0
    result = benchmark(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
