"""Command-line front end: preset and custom sweeps, complexity tables,
power-allocation sweeps and simulation-vs-analytics validation, all emitting
CSV plus a JSON run manifest.

Exit codes: 0 success, 2 configuration error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import importlib.resources
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, detectors, montecarlo
from .errors import ConfigError, InputError, as_float, as_tuple

CSV_COLUMNS = ["snr_db", "user", "scheme", "sim_value", "ci_halfwidth",
               "analytic_value", "n_trials"]


# keys of one run, SimConfig's fields: set at the top level of a config
# document (shared by its runs) or in an entry of "runs"
_RUN_KEYS = frozenset(montecarlo.RUN_KEYS)


def _load_config(args) -> dict:
    """The document of --config or --preset. A key the command does not
    read (not in ``args.keys``, or not a run key inside an entry of "runs")
    is a ConfigError naming the key and the command."""
    if args.config is None:
        presets = importlib.resources.files("ssknoma.presets")
        # a shipped preset's name only: a name such as ../x would leave the directory
        if f"{args.preset}.json" not in {p.name for p in presets.iterdir()}:
            raise ConfigError(f"unknown preset {args.preset!r}")
        source = presets.joinpath(f"{args.preset}.json")
    else:
        source = Path(args.config)
        if not source.is_file():
            # as given: Path("") prints as "."
            raise ConfigError(f"config file not found: {args.config!r}")
    try:
        doc = json.loads(source.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {source}: {exc.strerror}") from exc
    # not UTF-8, not JSON, nested past the decoder's recursion limit, or an
    # integer of more digits than int() converts
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {source} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = [repr(k) for k in doc if k not in args.keys]
    if "runs" in doc and "runs" in args.keys:
        runs = doc["runs"]
        if not runs or not isinstance(runs, list) or not all(isinstance(r, dict) for r in runs):
            raise ConfigError("config field 'runs' must be a non-empty list of objects")
        unknown += [f"{k!r} (runs[{j}])" for j, run in enumerate(runs)
                    for k in run if k not in _RUN_KEYS]
    if unknown:
        raise ConfigError(f"{args.command} does not read config key(s): {', '.join(unknown)}")
    return doc


def _make_run(values: dict) -> montecarlo.SimConfig:
    """The run given by the run keys of ``values``; ``make_config`` checks
    them and fills the rest."""
    return montecarlo.make_config(**{k: v for k, v in values.items() if k in _RUN_KEYS})


def _load_runs(doc: dict, args, metrics) -> list:
    """Every run of ``doc``, with the --seed and --trials-max overrides,
    each checked against ``metrics`` (``montecarlo.check_metrics``), and the
    ``SSKNOMA_WORKERS`` count the sweeps will read, before any of them
    simulates or --out is created. A config document is either one run or
    {"runs": [...]} with shared top-level defaults."""
    overrides = {k: v for k, v in (("seed", args.seed), ("max_trials", args.trials_max))
                 if v is not None}
    configs = [_make_run({**doc, **run, **overrides}) for run in doc.get("runs", [{}])]
    for cfg in configs:
        montecarlo.check_metrics(cfg, metrics)
    montecarlo._n_workers()
    return configs


def _out_dir(args) -> Path:
    """The --out directory, created if missing; a path that cannot be a
    directory is a ConfigError naming it."""
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    return out_dir


def _write_manifest(out_dir: Path, command: str, args, configs, seeds, workers) -> None:
    """manifest.json: the command, its config source, the seeds of the runs
    it simulated, the worker count its sweeps ran on (None for ``pa-sweep``,
    which simulates nothing), its wall time so far in seconds (from ``main``
    to this call), each run's resolved config (``make_config`` rebuilds it
    from ``config``) with its hash, and the package, Python and numpy
    versions."""
    manifest = {
        "command": command,
        "config": args.config or f"preset:{args.preset}",
        "output": str(out_dir),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seeds": seeds,
        "workers": workers,
        "wall_s": time.perf_counter() - args.started,
        "runs": [{"config_hash": cfg.config_hash(), "config": cfg.canonical_dict()}
                 for cfg in configs],
        "version": __version__,
        "python": sys.version,
        "numpy": np.__version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _optional(value) -> str:
    """A companion value as written: empty where the closed forms give none."""
    return "" if value is None else f"{value:.10e}"


def _sweep_rows(cfg, points):
    for p in points:
        yield [f"{p.snr_db:g}", p.user, cfg.scheme, f"{p.value:.10e}",
               f"{p.ci_halfwidth:.10e}", _optional(p.analytic), p.n_trials]


def _cmd_metric(args) -> int:
    metric = args.metric
    configs = _load_runs(_load_config(args), args, (metric,))
    out_dir = _out_dir(args)
    rows = []
    for cfg in configs:
        if not args.quiet:
            print(f"running {metric} sweep: {cfg.scheme} L={cfg.n_users} "
                  f"N_r={cfg.n_r} seed={cfg.seed}", file=sys.stderr)
        rows.extend(_sweep_rows(cfg, montecarlo.run_sweep(cfg, metrics=(metric,))))
    _write_csv(out_dir / f"{metric}.csv", CSV_COLUMNS, rows)
    _write_manifest(out_dir, args.command, args, configs, [c.seed for c in configs],
                    montecarlo._n_workers())
    if not args.quiet:
        print(f"wrote {out_dir / (metric + '.csv')}", file=sys.stderr)
    return 0


# pa-sweep's run before the document's run keys are laid over it: the §V
# network, SSK-NOMA (make_config's default scheme) with L = 3 and N_t fixed
# at 2, since no column depends on it; a document sets only n_r of these
_PA_SWEEP_RUN = {"n_users": 3, "n_r": 2, "n_t": 2}


def _cmd_pa_sweep(args) -> int:
    doc = _load_config(args)
    a2_grid = as_tuple("a2_grid", doc.get("a2_grid", np.arange(0.55, 0.951, 0.05).tolist()),
                       float)
    if not a2_grid:
        raise ConfigError("a2_grid must not be empty")
    rho_db = as_float("snr_db", doc.get("snr_db", 20.0))
    rho = 10.0 ** (rho_db / 10.0)
    # one config per a2, so SimConfig checks every run
    configs = [_make_run({**_PA_SWEEP_RUN, **doc, "snr_grid_db": [rho_db], "pa": [a2, 1.0 - a2]})
               for a2 in a2_grid]
    out_dir = _out_dir(args)
    rows = []
    for cfg in configs:
        metrics = ("ber",) if cfg.target_rates is None else ("ber", "outage")
        row = {"a2": f"{cfg.pa[0]:g}", "snr_db": f"{rho_db:g}"}
        row.update((f"{'abep' if metric == 'ber' else metric}_u{user}",
                    _optional(montecarlo.companion(cfg, metric, user, rho)))
                   for metric in metrics
                   for user in range(cfg.first_power_user, cfg.n_users + 1))
        rows.append(row)
    path = out_dir / "pa_sweep.csv"
    _write_csv(path, list(rows[0]), [list(row.values()) for row in rows])
    # closed forms only: no run draws from its seed or uses a worker
    _write_manifest(out_dir, "pa-sweep", args, configs, [], None)
    if not args.quiet:
        print(f"wrote {path}", file=sys.stderr)
    return 0


# Table I's scenarios (L, M, N_r), printed when no --row is given
_TABLE_I = ((3, 2, 2), (3, 4, 4), (4, 2, 2), (4, 4, 4), (5, 2, 2), (5, 4, 4))


def _cmd_complexity(args) -> int:
    rows = _TABLE_I
    if args.row:
        fields = [f.strip() for f in args.row.split(",")]
        # 20 digits hold every accepted value and keep int() fast
        if len(fields) != 3 or not all(f.isdecimal() and len(f) <= 20 for f in fields):
            raise ConfigError(f"--row must be 3 integers L,M,N_r of <= 20 digits: {args.row!r}")
        n_users, m, n_r = (int(x) for x in fields)
        # the counts assume SIC over at least two users and power-of-2 orders;
        # the bound keeps M_T = M^(L-1) within 64 bits
        if (n_users < 2 or m < 2 or m & (m - 1) or n_r < 1
                or (n_users - 1) * (m.bit_length() - 1) > 64):
            raise ConfigError("--row needs L >= 2, M a power of 2 >= 2, N_r >= 1 and "
                              f"(L - 1) log2 M <= 64, got {args.row!r}")
        rows = [(n_users, m, n_r)]
    print(f"{'L':>3} {'M':>3} {'N_r':>4} {'ssk-noma':>10} {'noma':>10}")
    for n_users, m, n_r in rows:
        d_ssk = detectors.complexity_ssk_noma(n_users, m, m, n_r)  # N_t = M
        d_noma = detectors.complexity_noma(n_users, m, n_r)
        print(f"{n_users:>3} {m:>3} {n_r:>4} {d_ssk:>10} {d_noma:>10}")
    return 0


def _cmd_validate(args) -> int:
    doc = _load_config(args)
    metrics = doc.get("metrics", ["ber"])
    configs = _load_runs(doc, args, metrics)
    scores = []
    for cfg in configs:
        for p in montecarlo.run_sweep(cfg, metrics=tuple(metrics)):
            if p.analytic is None or p.user == 0:
                continue
            if p.metric == "ber" and p.user < cfg.first_power_user:
                continue  # the cell-edge value is a union-bound approximation, not an estimate
            if p.metric == "ber" and p.analytic < 1e-4:
                continue  # too few events at this depth to compare
            hw = max(p.ci_halfwidth, 1e-300)
            score = abs(p.value - p.analytic) / hw
            label = f"{p.metric}/user{p.user}@{p.snr_db:g}dB"
            if not args.quiet:
                print(f"{label}: sim={p.value:.4e} analytic={p.analytic:.4e} "
                      f"|diff|/ci={score:.2f}")
            scores.append((score, label))
    if not scores:
        print("validation FAILED: no point compared", file=sys.stderr)
        return 3
    worst, worst_label = max(scores)
    print(f"max |sim-analytic|/ci_halfwidth = {worst:.2f} ({worst_label})")
    if worst > 3.0:
        print("validation FAILED", file=sys.stderr)
        return 3
    print("validation passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Each command, declared once with the flag groups it reads, the config
    document keys it reads (``keys``; an entry of "runs" sets run keys) and
    its handler."""
    document = argparse.ArgumentParser(add_help=False)  # the commands that read a config
    source = document.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON config file")
    source.add_argument("--preset", help="named preset (fig2..fig9)")
    document.add_argument("--quiet", action="store_true")
    output = argparse.ArgumentParser(add_help=False)  # the commands that write files
    output.add_argument("--out", default="results", help="output directory")
    runs = argparse.ArgumentParser(add_help=False)  # the commands that simulate
    runs.add_argument("--seed", type=int, default=None, help="override the config seed")
    runs.add_argument("--trials-max", type=int, default=None,
                      help="override the trial cap per SNR point; trials run in rounds of "
                           f"{montecarlo._BLOCKS_PER_ROUND} blocks, so the cap is rounded up "
                           f"to a multiple of {montecarlo._BLOCKS_PER_ROUND}")
    parser = argparse.ArgumentParser(prog="ssknoma",
                                     description="SSK-NOMA link-level simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    sweep_keys = _RUN_KEYS | {"runs"}
    for name, metric in (("ber", "ber"), ("capacity", "rate"), ("outage", "outage")):
        command = sub.add_parser(name, parents=[document, output, runs])
        command.set_defaults(handler=_cmd_metric, metric=metric, keys=sweep_keys)
    sub.add_parser("validate", parents=[document, runs]).set_defaults(
        handler=_cmd_validate, keys=sweep_keys | {"metrics"})
    # one fixed run per a2 (_PA_SWEEP_RUN), whose pa and SNR grid pa-sweep
    # sets; it draws nothing, so the seed and the trial budget have no use
    sub.add_parser("pa-sweep", parents=[document, output]).set_defaults(
        handler=_cmd_pa_sweep,
        keys={"modulations", "n_r", "fading", "target_rates", "a2_grid", "snr_db"})
    complexity = sub.add_parser("complexity")
    complexity.add_argument("--row", help="single scenario as L,M,N_r")
    complexity.set_defaults(handler=_cmd_complexity)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.started = time.perf_counter()
    try:
        return args.handler(args)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
