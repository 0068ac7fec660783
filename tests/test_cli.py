"""CLI tests: exit codes, CSV schema, manifests, presets, fault injection."""

import argparse
import concurrent.futures
import csv
import importlib.resources
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ssknoma
from ssknoma import analytics, cli
from ssknoma import montecarlo as mc

BER_CONFIG = {
    "scheme": "ssk-noma",
    "n_users": 3,
    "n_r": 2,
    "snr_grid_db": [5.0, 10.0],
    "seed": 17,
    "max_trials": 100000,
}


def _write_config(tmp_path, doc, name="cfg.json"):
    """``doc`` as a JSON file; bytes are written as they are."""
    path = tmp_path / name
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_ber_command_writes_csv_and_manifest(tmp_path):
    cfg = _write_config(tmp_path, BER_CONFIG)
    out = tmp_path / "run"
    rc = cli.main(["ber", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 0
    rows = _read_csv(out / "ber.csv")
    assert rows[0] == cli.CSV_COLUMNS
    # 2 SNR points x 3 users
    assert len(rows) == 1 + 6
    users = {r[1] for r in rows[1:]}
    assert users == {"1", "2", "3"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ber"
    assert manifest["seeds"] == [17]
    assert "timestamp" in manifest and "version" in manifest


@pytest.mark.parametrize("command,csv_name", [("capacity", "rate.csv"), ("outage", "outage.csv")])
def test_manifest_names_the_command_not_the_metric(tmp_path, command, csv_name):
    """``capacity`` writes rate.csv, but its manifest names the command run."""
    cfg = _write_config(tmp_path, dict(BER_CONFIG, snr_grid_db=[10.0], max_trials=10_000,
                                       target_rates=[1.0, 1.0, 1.5]))
    out = tmp_path / "run"
    assert cli.main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / csv_name).exists()
    assert json.loads((out / "manifest.json").read_text())["command"] == command


@pytest.mark.parametrize("command", ["ber", "pa-sweep"])
def test_manifest_records_each_resolved_run(tmp_path, command):
    """Each manifest run entry holds its run's resolved config, defaults
    filled in, which ``make_config`` rebuilds to a config equal to the one
    the command ran, of the recorded hash; the manifest also names the
    Python and numpy versions."""
    if command == "ber":
        doc = {"snr_grid_db": [10.0], "max_trials": 10_000, "n_r": 2,
               "runs": [{"scheme": "ssk-noma", "n_users": 3},
                        {"scheme": "noma-baseline", "n_users": 3, "target_rates": [1, 1, 2]}]}
        flags = ["--seed", "9"]
    else:
        doc, flags = {"a2_grid": [0.6, 0.8], "n_r": 4}, []
    out = tmp_path / "run"
    assert cli.main([command, "--config", _write_config(tmp_path, doc), "--out", str(out),
                     "--quiet", *flags]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    if command == "ber":
        ran = cli._load_runs(doc, argparse.Namespace(seed=9, trials_max=None), ("ber",))
        assert manifest["seeds"] == [9, 9]
    else:
        ran = [mc.make_config(**{**cli._PA_SWEEP_RUN, "n_r": 4}, snr_grid_db=[20.0],
                              pa=[a2, 1.0 - a2])
               for a2 in doc["a2_grid"]]
        assert manifest["seeds"] == []
    assert len(manifest["runs"]) == len(ran) == 2
    for entry, cfg in zip(manifest["runs"], ran):
        rebuilt = mc.make_config(**entry["config"])
        assert rebuilt == cfg
        assert entry["config_hash"] == rebuilt.config_hash() == cfg.config_hash()
    assert manifest["python"] == sys.version and manifest["numpy"] == np.__version__


def test_csv_payload_reproducible_across_workers(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, BER_CONFIG)
    payloads = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SSKNOMA_WORKERS", workers)
        out = tmp_path / f"w{workers}"
        assert cli.main(["ber", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        payloads.append((out / "ber.csv").read_bytes())
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("command,csv_name", [("capacity", "rate.csv"), ("outage", "outage.csv")])
def test_rate_and_outage_csvs_reproducible_across_workers(tmp_path, monkeypatch, command,
                                                          csv_name):
    """Each block's MRC-SNR draws are keyed by (seed, metric, block), so the
    worker count cannot move a byte of the CSV."""
    cfg = _write_config(tmp_path, dict(BER_CONFIG, target_rates=[1.0, 1.0, 1.5],
                                       max_trials=200000))
    payloads = []
    for workers in ("1", str(min(2, os.cpu_count()))):
        monkeypatch.setenv("SSKNOMA_WORKERS", workers)
        out = tmp_path / f"w{workers}"
        assert cli.main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        payloads.append((out / csv_name).read_bytes())
    assert payloads[0] == payloads[1]


def test_csvs_do_not_depend_on_blas_threads(tmp_path):
    """No kernel sums through a BLAS call whose rounding could follow the
    thread count, so one and two OpenBLAS threads write the same bytes."""
    cfg = _write_config(tmp_path, dict(BER_CONFIG, target_rates=[1.0, 1.0, 1.5],
                                       snr_grid_db=[10.0]))
    script = ("import sys\n"
              "from ssknoma import cli\n"
              "for command in ('ber', 'capacity', 'outage'):\n"
              "    assert cli.main([command, '--config', sys.argv[1], '--out', sys.argv[2],\n"
              "                     '--quiet']) == 0\n")
    src = str(Path(ssknoma.__file__).resolve().parents[1])
    payloads = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, SSKNOMA_WORKERS="1",
                   PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script, cfg, str(out)], env=env, check=True)
        payloads.append([(out / name).read_bytes()
                         for name in ("ber.csv", "rate.csv", "outage.csv")])
    assert payloads[0] == payloads[1]


def test_start_ber_sweep_and_complexity_load_no_scipy(tmp_path):
    """Only the rate and outage metrics evaluate an erfc or Ei, and only a
    pool of two or more workers needs ``multiprocessing``, so a fresh
    ``import ssknoma.cli``, the complexity table (with and without
    ``--row``) and a 1-worker BER sweep load neither ``scipy`` nor
    ``multiprocessing``. A fresh interpreter, because the test session's
    warning filter imports ``scipy.integrate``."""
    cfg = _write_config(tmp_path, dict(BER_CONFIG, snr_grid_db=[10.0], max_trials=10_000))
    script = ("import sys\n"
              "def loaded():\n"
              "    return sorted(m for m in sys.modules if m.startswith('scipy')\n"
              "                  or m.split('.')[0] == 'multiprocessing')\n"
              "from ssknoma import cli\n"
              "assert not loaded(), ('import', loaded())\n"
              "assert cli.main(['complexity']) == 0\n"
              "assert cli.main(['complexity', '--row', '3,4,2']) == 0\n"
              "assert not loaded(), ('complexity', loaded())\n"
              "assert cli.main(['ber', '--config', sys.argv[1], '--out', sys.argv[2],\n"
              "                 '--quiet']) == 0\n"
              "assert not loaded(), ('ber', loaded())\n")
    src = str(Path(ssknoma.__file__).resolve().parents[1])
    env = dict(os.environ, SSKNOMA_WORKERS="1", PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", script, cfg, str(tmp_path / "run")], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    assert (tmp_path / "run" / "ber.csv").exists()


# two cell-edge configs and a baseline one, which has no pair table
SATURATION_DOC = {
    "n_users": 3, "snr_grid_db": [0.0, 10.0], "seed": 17, "max_trials": 10_000,
    "target_rates": [1.0, 1.0, 1.5],
    "runs": [{"scheme": "ssk-noma", "n_r": 2}, {"scheme": "ssk-noma", "n_r": 4},
             {"scheme": "noma-baseline", "n_r": 2}],
}


def _count_saturation_calls(monkeypatch):
    calls = []
    real = analytics._saturation

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analytics, "_saturation", counting)
    return calls


def test_saturation_is_computed_at_most_once_per_table(tmp_path, monkeypatch):
    """gamma_sat is bisected on its table's first read and kept there: never
    for a BER sweep, which does not evaluate the cell-edge curve, once per
    cell-edge config for a 1-worker capacity or outage run, and not again
    for a pickled copy of a table that has been read."""
    monkeypatch.setenv("SSKNOMA_WORKERS", "1")
    calls = _count_saturation_calls(monkeypatch)
    cfg = _write_config(tmp_path, SATURATION_DOC)
    assert cli.main(["ber", "--config", cfg, "--out", str(tmp_path / "ber"), "--quiet"]) == 0
    assert len(calls) == 0
    for command in ("capacity", "outage"):
        calls.clear()
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / command),
                         "--quiet"]) == 0
        assert len(calls) == 2, command
    config = mc.make_config(n_users=3, n_r=4, snr_grid_db=[10.0])
    saturation = config.pairs.saturation
    calls.clear()
    copy = pickle.loads(pickle.dumps(config))
    assert copy.pairs.saturation == saturation
    assert len(calls) == 0


# the first start method listed is the default
@pytest.mark.skipif(os.cpu_count() < 2 or multiprocessing.get_all_start_methods()[0] != "fork",
                    reason="needs two workers forked from this process")
def test_pooled_sweeps_send_saturation_to_workers(tmp_path, monkeypatch):
    """A pooled rate or outage sweep reads gamma_sat before it starts the
    pool, so every worker receives it with the config it is started with and
    no worker bisects: the forked workers inherit a ``_saturation`` that
    fails outside this process."""
    monkeypatch.setenv("SSKNOMA_WORKERS", "2")
    calls = _count_saturation_calls(monkeypatch)
    parent, counting = os.getpid(), analytics._saturation

    def parent_only(*args):
        assert os.getpid() == parent, "a worker computed gamma_sat"
        return counting(*args)

    monkeypatch.setattr(analytics, "_saturation", parent_only)
    cfg = _write_config(tmp_path, SATURATION_DOC)
    for command in ("capacity", "outage"):
        calls.clear()
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / command),
                         "--quiet"]) == 0
        assert len(calls) == 2, command


@pytest.mark.parametrize("command,csv_name", [("ber", "ber.csv"), ("capacity", "rate.csv")])
def test_point_rows_do_not_depend_on_the_rest_of_the_grid(tmp_path, command, csv_name):
    """Each block is drawn once for every SNR point and each point stops on
    its own rule, so a point's CSV rows are byte-identical whether it is
    swept alone or in a larger grid. At BER the 0 dB point meets its error
    budget in the first round and the 20 dB point runs to the cap."""
    def rows(grid):
        cfg = _write_config(tmp_path, dict(BER_CONFIG, snr_grid_db=grid, max_trials=200000),
                            f"{len(grid)}-{grid[0]}.json")
        out = tmp_path / f"{len(grid)}-{grid[0]}"
        assert cli.main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        return _read_csv(out / csv_name)[1:]

    grid = [0.0, 10.0, 20.0]
    together = rows(grid)
    assert together == [row for snr_db in grid for row in rows([snr_db])]
    if command == "ber":
        n_trials = {row[0]: row[6] for row in together}
        assert (n_trials["0"], n_trials["20"]) == ("100000", "200000")


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path, BER_CONFIG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["ber", "--config", cfg, "--out", str(out_a), "--quiet",
                     "--seed", "99"]) == 0
    assert cli.main(["ber", "--config", cfg, "--out", str(out_b), "--quiet"]) == 0
    assert (out_a / "ber.csv").read_bytes() != (out_b / "ber.csv").read_bytes()


def test_multi_run_document(tmp_path):
    doc = {
        "snr_grid_db": [10.0],
        "seed": 3,
        "max_trials": 100000,
        "runs": [
            {"scheme": "ssk-noma", "n_users": 3, "n_r": 2},
            {"scheme": "noma-baseline", "n_users": 3, "n_r": 2},
        ],
    }
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "multi"
    assert cli.main(["capacity", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = _read_csv(out / "rate.csv")
    schemes = {r[2] for r in rows[1:]}
    assert schemes == {"ssk-noma", "noma-baseline"}
    # per-user rows plus the sum-rate row (user 0) for each run
    assert {"0", "1", "2", "3"} == {r[1] for r in rows[1:]}


def test_outage_command(tmp_path):
    doc = dict(BER_CONFIG, target_rates=[1.0, 1.0, 1.5], snr_grid_db=[10.0])
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "outage"
    assert cli.main(["outage", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = _read_csv(out / "outage.csv")
    assert len(rows) == 1 + 3
    for r in rows[1:]:
        assert r[5] != ""  # analytic companion attached
        assert 0.0 <= float(r[3]) <= 1.0


@pytest.mark.parametrize("command,csv_name", [("ber", "ber.csv"), ("capacity", "rate.csv"),
                                              ("outage", "outage.csv")])
def test_zero_variance_cell_edge_user_has_no_companion(tmp_path, command, csv_name):
    """A cell-edge user with fading variance 0 is simulated, and the closed
    forms, which average over fading of positive variance, leave its
    analytic_value (and the sum rate's) empty."""
    doc = dict(BER_CONFIG, fading=[0, 2, 4], target_rates=[1.0, 1.0, 1.5],
               snr_grid_db=[10.0], max_trials=10000)
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / command
    assert cli.main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = _read_csv(out / csv_name)[1:]
    assert {r[1] for r in rows} >= {"1", "2", "3"}
    for r in rows:
        assert (r[5] == "") == (r[1] in ("0", "1")), r


# --- error handling -------------------------------------------------------------


def test_missing_config_is_config_error(tmp_path, monkeypatch, capsys):
    """The message names the path as given: ``--config ""`` was once
    reported as ".", the working directory."""
    monkeypatch.chdir(tmp_path)
    for path in ("nope.json", ""):
        assert cli.main(["ber", "--config", path, "--out", "out"]) == 2
        assert capsys.readouterr().err == f"error: config file not found: {path!r}\n"
    assert os.listdir(tmp_path) == []


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["ber", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config {path} is not valid JSON: ")


def _document_commands():
    """The commands ``build_parser`` declares document keys for."""
    [commands] = [action.choices for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return sorted(name for name, command in commands.items()
                  if command.get_default("keys") is not None)


@pytest.mark.parametrize("sources,message", [
    (["--config", "cfg.json", "--preset", "fig2"],
     "argument --preset: not allowed with argument --config"),
    ([], "one of the arguments --config --preset is required"),
], ids=["both", "neither"])
@pytest.mark.parametrize("command", _document_commands())
def test_command_reads_exactly_one_document_source(tmp_path, monkeypatch, capsys, command,
                                                   sources, message):
    """Given both --config and --preset, each command once ran the preset
    and named the config file in its manifest; given neither, or both, it
    is a usage error (exit 2) before any handler runs, so nothing is
    written, not even the default --out directory."""
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path, BER_CONFIG)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *sources, "--quiet"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_empty_grid_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, dict(BER_CONFIG, snr_grid_db=[]))
    assert cli.main(["validate", "--config", cfg]) == 2


def test_missing_field_is_config_error(tmp_path):
    doc = dict(BER_CONFIG)
    del doc["n_r"]
    cfg = _write_config(tmp_path, doc)
    assert cli.main(["ber", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_unknown_preset_is_config_error(tmp_path):
    assert cli.main(["ber", "--preset", "fig99", "--out", str(tmp_path)]) == 2


def test_preset_is_a_shipped_name_not_a_path(tmp_path, monkeypatch, capsys):
    """--preset names a shipped preset: a ``../`` name once loaded and ran
    any JSON file reachable from the presets directory."""
    monkeypatch.chdir(tmp_path)
    _write_config(tmp_path, dict(BER_CONFIG, snr_grid_db=[10.0], max_trials=10_000))
    name = os.path.relpath(tmp_path / "cfg", Path(cli.__file__).parent / "presets")
    assert name.startswith("../")
    assert cli.main(["ber", "--preset", name, "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: unknown preset {name!r}\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("workers", ["two", "", "0", "-1", str(os.cpu_count() + 1)],
                         ids=["word", "empty", "zero", "negative", "above-cpu-count"])
def test_bad_worker_count_is_config_error(tmp_path, monkeypatch, capsys, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    # where the sweep's import finds it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("SSKNOMA_WORKERS", workers)
    cfg = _write_config(tmp_path, dict(BER_CONFIG, snr_grid_db=[10.0]))
    assert cli.main(["ber", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "SSKNOMA_WORKERS" in capsys.readouterr().err
    # checked with the runs, before --out is created
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    """A key this command does not read stops the run before any
    simulation, named in the message, at the top level and inside a run:
    neither ``noise`` nor ``genie_antenna`` is a setting (every draw is
    noisy), so a document that sets them to ask for a noise-free run would
    otherwise get a noisy CSV."""
    doc = dict(BER_CONFIG, noise=False, genie_antenna=False, typo_key=1)
    out = tmp_path / "out"
    assert cli.main(["ber", "--config", _write_config(tmp_path, doc), "--out",
                     str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert all(f"'{key}'" in err for key in ("noise", "genie_antenna", "typo_key"))
    assert not (out / "ber.csv").exists()
    doc = {"snr_grid_db": [10.0], "runs": [{"scheme": "ssk-noma", "n_users": 3, "n_r": 2,
                                            "n_rx": 4}]}
    assert cli.main(["ber", "--config", _write_config(tmp_path, doc), "--out",
                     str(out), "--quiet"]) == 2
    assert "'n_rx' (runs[0])" in capsys.readouterr().err
    # "runs": null once ran the top level as the one run
    for doc in ([BER_CONFIG], {"snr_grid_db": [10.0], "runs": [3]}, dict(BER_CONFIG, runs=None)):
        assert cli.main(["ber", "--config", _write_config(tmp_path, doc), "--out",
                         str(out), "--quiet"]) == 2


# keys of another command: each of these documents, and fig2 under pa-sweep,
# once exited 0 with a CSV that ignored them; fig8 under a sweep failed on
# its missing n_users instead
UNREAD_KEYS = {
    "pa-sweep-runs": (["pa-sweep"], {"n_r": 2, "runs": [{"n_r": 4}]}, ["runs"]),
    "pa-sweep-pa": (["pa-sweep"], {"n_r": 2, "pa": [0.9, 0.1]}, ["pa"]),
    "pa-sweep-snr_grid_db": (["pa-sweep"], {"n_r": 2, "snr_grid_db": [30.0]}, ["snr_grid_db"]),
    "pa-sweep-seed": (["pa-sweep"], {"n_r": 2, "seed": 5}, ["seed"]),
    # pa-sweep's run is fixed: another scheme or L failed its checks, and
    # N_t changed no column
    "pa-sweep-scheme": (["pa-sweep"], {"n_r": 2, "scheme": "ssk-noma"}, ["scheme"]),
    "pa-sweep-n_users": (["pa-sweep"], {"n_r": 2, "n_users": 4}, ["n_users"]),
    "pa-sweep-n_t": (["pa-sweep"], {"n_r": 2, "n_t": 16}, ["n_t"]),
    "ber-metrics": (["ber"], dict(BER_CONFIG, metrics=["rate"]), ["metrics"]),
    "ber-a2_grid": (["ber"], dict(BER_CONFIG, a2_grid=[0.6]), ["a2_grid"]),
    "capacity-rows": (["capacity"], dict(BER_CONFIG, rows=[[3, 2, 2]]), ["rows"]),
    "validate-snr_db": (["validate"], dict(BER_CONFIG, snr_db=10.0), ["snr_db"]),
    # a preset under a command it is not written for
    "outage-preset-fig8": (["outage", "--preset", "fig8"], None, ["a2_grid", "snr_db"]),
    "ber-preset-fig8": (["ber", "--preset", "fig8"], None, ["a2_grid", "snr_db"]),
    "pa-sweep-preset-fig2": (["pa-sweep", "--preset", "fig2"], None,
                             ["snr_grid_db", "seed", "max_trials", "runs"]),
}


@pytest.mark.parametrize("argv,doc,keys", UNREAD_KEYS.values(), ids=UNREAD_KEYS)
def test_key_the_command_does_not_read_is_config_error(tmp_path, monkeypatch, capsys, argv,
                                                       doc, keys):
    """Each command reads only the keys ``build_parser`` declares for it:
    any other key stops it before a run is built, named in the message with
    the command, and nothing is written."""
    def no_run(**kwargs):
        raise AssertionError("a run was built")

    monkeypatch.setattr(mc, "make_config", no_run)
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        argv = argv + ["--config", _write_config(tmp_path, doc)]
    if argv[0] != "validate":  # validate writes no file
        argv = argv + ["--out", "out"]
    assert cli.main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"error: {argv[0]} does not read config key(s): " in err
    assert all(f"'{key}'" in err for key in keys)
    assert os.listdir(tmp_path) == ([] if doc is None else ["cfg.json"])


@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command,doc", [("ber", BER_CONFIG), ("pa-sweep", {"n_r": 2})],
                         ids=["ber", "pa-sweep"])
def test_out_that_cannot_be_a_directory_is_config_error(tmp_path, monkeypatch, capsys,
                                                        command, doc, out):
    """An --out naming a file, or a path under one, once ended in a
    FileExistsError or NotADirectoryError traceback; it is a config error
    naming the path, before any run simulates."""
    def nothing_runs(*args, **kwargs):
        raise AssertionError("a run was evaluated")

    monkeypatch.setattr(mc, "run_sweep", nothing_runs)
    monkeypatch.setattr(mc, "companion", nothing_runs)
    (tmp_path / "file").write_text("kept")
    out = tmp_path / out
    assert cli.main([command, "--config", _write_config(tmp_path, doc), "--out", str(out),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}: ")
    assert (tmp_path / "file").read_text() == "kept"


# each of these once ran to a traceback or to a CSV of nonsense
INVALID_RUNS = {
    # n_t defaults to n_r for SSK-NOMA, which alone would reject these
    "ber-n_r-0": (["ber"], dict(BER_CONFIG, n_r=0, n_t=2)),
    "ber-n_r-negative": (["ber"], dict(BER_CONFIG, n_r=-1, n_t=2)),
    "capacity-n_r-0": (["capacity"], dict(BER_CONFIG, n_r=0, n_t=2)),
    "outage-short-target-rates": (["outage"], dict(BER_CONFIG, target_rates=[1.0, 1.0])),
    "pa-sweep-short-fading": (["pa-sweep"], {"fading": [1.0, 2.0]}),
    "pa-sweep-short-target-rates": (["pa-sweep"], {"target_rates": [1.0, 1.0]}),
    "pa-sweep-empty-a2-grid": (["pa-sweep"], {"a2_grid": []}),
    "pa-sweep-n_r-0": (["pa-sweep"], {"n_r": 0}),
    "pa-sweep-negative-fading": (["pa-sweep"], {"fading": [-1.0, 2.0, 4.0]}),
    "complexity-two-fields": (["complexity", "--row", "3,4"], None),
    "complexity-not-integers": (["complexity", "--row", "a,b,c"], None),
    "complexity-order-not-power-of-2": (["complexity", "--row", "3,3,2"], None),
    "complexity-zero-order-and-n_r": (["complexity", "--row", "3,0,0"], None),
    # M_T = M^(L-1) beyond 64 bits: a traceback on printing the count, and a
    # time without bound for larger L
    "complexity-row-beyond-64-bits": (["complexity", "--row", "2000,1024,1"], None),
    "complexity-row-66-users": (["complexity", "--row", "66,2,1"], None),
    # int() refuses a string of more than 4300 digits, with a traceback
    "complexity-field-of-5000-digits": (["complexity", "--row", "3,4," + "9" * 5000], None),
    # a value of the wrong type: these ran with a truncated value, or ended in
    # a traceback
    "ber-n_users-float": (["ber"], dict(BER_CONFIG, n_users=3.9)),
    "ber-n_users-bool": (["ber"], dict(BER_CONFIG, n_users=True)),
    "ber-n_r-float": (["ber"], dict(BER_CONFIG, n_r=2.7)),
    "ber-n_r-string": (["ber"], dict(BER_CONFIG, n_r="2")),
    "ber-min_bit_errors-float": (["ber"], dict(BER_CONFIG, min_bit_errors=150.9)),
    "ber-snr_grid_db-string": (["ber"], dict(BER_CONFIG, snr_grid_db="10")),
    "ber-seed-string": (["ber"], dict(BER_CONFIG, seed="x")),
    "ber-n_t-float": (["ber"], dict(BER_CONFIG, n_t=2.5)),
    "ber-fading-string-entry": (["ber"], dict(BER_CONFIG, fading=["a", 2, 4])),
    "outage-target_rates-number": (["outage"], dict(BER_CONFIG, target_rates=5)),
    "ber-pa-number": (["ber"], dict(BER_CONFIG, pa=0.5)),
    "pa-sweep-n_r-float": (["pa-sweep"], {"n_r": 2.9}),
    "pa-sweep-a2_grid-string": (["pa-sweep"], {"a2_grid": "0.7"}),
    "pa-sweep-a2_grid-string-entry": (["pa-sweep"], {"a2_grid": ["x"]}),
    "pa-sweep-snr_db-string": (["pa-sweep"], {"snr_db": "x"}),
    "validate-metrics-number": (["validate"], dict(BER_CONFIG, metrics=5)),
    # values the random streams and the SNR conversion cannot take
    "ber-seed-negative": (["ber", "--seed", "-1"], BER_CONFIG),
    "ber-seed-above-32-bits": (["ber", "--seed", str(2**32)], BER_CONFIG),
    # block time grows with N_t, and beyond 2^19 trial-antenna entries per
    # chunk so does its memory
    "ber-n_t-above-4096": (["ber"], dict(BER_CONFIG, n_t=8192)),
    "ber-snr-overflow": (["ber"], dict(BER_CONFIG, snr_grid_db=[1e300])),
    # a document that runs nothing wrote a header-only CSV or passed validation
    "ber-empty-runs": (["ber"], {"snr_grid_db": [10.0], "runs": []}),
    "capacity-empty-runs": (["capacity"], {"snr_grid_db": [10.0], "runs": []}),
    "outage-empty-runs": (["outage"], {"snr_grid_db": [10.0], "runs": []}),
    "validate-empty-runs": (["validate"], {"snr_grid_db": [10.0], "runs": []}),
    # a cell-edge target rate above log2 N_t: outage counted every trial's
    # conditional BEP (an ABEP) and printed no companion value
    "outage-unreachable-cell-edge-rate": (["outage"], {
        "snr_grid_db": [10], "max_trials": 10000,
        "runs": [{"scheme": "ssk-noma", "n_users": 3, "n_r": 2,
                  "target_rates": [1.5, 1.0, 2.0]}]}),
    "pa-sweep-unreachable-cell-edge-rate": (["pa-sweep"], {"target_rates": [1.5, 1.0, 1.0]}),
    # alphabets and antenna counts too large to build or evaluate: [4096, 4096]
    # raised MemoryError after 18 s in its tables, [16, 4096] (M_T = 2^16 but
    # 8 105 distinct energies) took 3.6 GB, and at N_r = 200 the capacity and
    # outage forms overflowed to a traceback
    "ber-alphabet-of-2^24-points": (["ber"], dict(BER_CONFIG, modulations=[4096, 4096])),
    "ber-alphabet-of-8105-energies": (["ber"], dict(BER_CONFIG, modulations=[16, 4096])),
    "ber-n_r-65": (["ber"], dict(BER_CONFIG, n_r=65, n_t=2)),
    "capacity-n_r-200": (["capacity"], dict(BER_CONFIG, n_r=200, n_t=2, snr_grid_db=[10.0])),
    "outage-n_r-200": (["outage"], dict(BER_CONFIG, n_r=200, n_t=2, snr_grid_db=[10.0],
                                        target_rates=[0.5, 1.0, 1.5])),
    # documents json cannot decode: these ended in a UnicodeDecodeError,
    # RecursionError or ValueError traceback (exit 1)
    "ber-config-not-utf-8": (["ber"], b'{"scheme": "\xff"}'),
    "ber-config-nested-past-the-recursion-limit": (["ber"], b"[" * 100_000),
    "pa-sweep-integer-of-5000-digits": (["pa-sweep"], b'{"n_r": ' + b"9" * 5000 + b"}"),
}


@pytest.mark.parametrize("argv,doc", INVALID_RUNS.values(), ids=INVALID_RUNS)
def test_invalid_run_is_config_error(tmp_path, capsys, argv, doc):
    out = tmp_path / "out"
    if doc is not None:
        argv = argv + ["--config", _write_config(tmp_path, doc), "--quiet"]
        if argv[0] != "validate":  # validate writes no file
            argv += ["--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(out.glob("*.csv"))


# each of these once wrote a nan companion or ended in a traceback. The
# capacity form has a value at every SNR; at N_r = 12 the outage forms
# still leave double range at +-300 dB: chi2_cdf's (gamma / gamma_bar)^11
# and outage_u1's gamma_bar^N_r overflow
N_R_12 = dict(BER_CONFIG, n_r=12, n_t=2, max_trials=10_000, target_rates=[0.5, 1.0, 1.5])
OUT_OF_RANGE_COMPANIONS = {
    # case: (command, config document, users whose companion is left empty)
    "capacity-at-minus-25-dB-and-below": (
        "capacity", dict(BER_CONFIG, snr_grid_db=[-25.0, -30.0, -300.0], max_trials=10_000),
        set()),
    "capacity-n_r-12-at-minus-300-dB": ("capacity", dict(N_R_12, snr_grid_db=[-300.0]), set()),
    "capacity-n_r-12-at-300-dB": ("capacity", dict(N_R_12, snr_grid_db=[300.0]), set()),
    "outage-n_r-12-at-minus-300-dB": ("outage", dict(N_R_12, snr_grid_db=[-300.0]), {1, 2, 3}),
    "outage-n_r-12-at-300-dB": ("outage", dict(N_R_12, snr_grid_db=[300.0]), {1}),
}


@pytest.mark.parametrize("command,doc,empty", OUT_OF_RANGE_COMPANIONS.values(),
                         ids=OUT_OF_RANGE_COMPANIONS)
def test_companion_outside_double_range_is_left_empty(tmp_path, command, doc, empty):
    """The run succeeds, without a RuntimeWarning (an error under this
    suite), and a companion is an empty cell exactly where its evaluation
    leaves double range, never nan."""
    out = tmp_path / "out"
    assert cli.main([command, "--config", _write_config(tmp_path, doc), "--out", str(out),
                     "--quiet"]) == 0
    [path] = out.glob("*.csv")
    rows = _read_csv(path)[1:]
    assert {int(row[1]) for row in rows if row[5] == ""} == empty
    assert all(math.isfinite(float(row[5])) for row in rows if row[5])


@pytest.mark.parametrize("command,second", [
    ("ber", {"modulations": [4, 6]}),
    # outage once simulated all of run 1 before finding no target rates in run 2
    ("outage", {"target_rates": None}),
], ids=["ber-bad-modulation", "outage-without-target-rates"])
def test_invalid_second_run_fails_before_the_first_simulates(tmp_path, monkeypatch, capsys,
                                                             command, second):
    """Every run's config, tables included, is built and checked against
    the command's metric before any run simulates, so an invalid run 2
    costs no simulation."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep was started")

    monkeypatch.setattr(mc, "run_sweep", no_sweep)
    first = {"scheme": "ssk-noma", "n_users": 3, "n_r": 2}
    doc = {"snr_grid_db": [10.0], "seed": 3, "max_trials": 10_000,
           "target_rates": [1.0, 1.0, 1.5], "runs": [first, {**first, **second}]}
    out = tmp_path / "out"
    assert cli.main([command, "--config", _write_config(tmp_path, doc), "--out", str(out),
                     "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(out.glob("*.csv"))


# --- presets ---------------------------------------------------------------------


# every preset file shipped in the package
PRESETS = sorted(ref.name[:-len(".json")]
                 for ref in importlib.resources.files("ssknoma.presets").iterdir()
                 if ref.name.endswith(".json"))


# the commands each shipped preset is written for
PRESET_COMMANDS = {
    "fig2": ("ber", "validate"), "fig3": ("ber", "validate"), "fig4": ("capacity",),
    "fig5": ("ber", "validate"), "fig6": ("outage",), "fig7": ("outage",),
    "fig8": ("pa-sweep",), "fig9": ("pa-sweep",),
}


def _load_preset(command, name):
    return cli._load_config(cli.build_parser().parse_args([command, "--preset", name]))


@pytest.mark.parametrize("name", PRESETS)
def test_presets_parse(name):
    """Every shipped preset loads under each command it is written for, so
    it sets no key those commands do not read."""
    for command in PRESET_COMMANDS[name]:
        assert isinstance(_load_preset(command, name), dict)


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7"])
def test_sweep_presets_build_valid_configs(name):
    doc = _load_preset(PRESET_COMMANDS[name][0], name)

    class Args:
        seed = None
        trials_max = None

    configs = cli._load_runs(doc, Args, ("ber",))
    assert configs and all(isinstance(c, mc.SimConfig) for c in configs)
    # the run keys are SimConfig's fields, and a config rebuilds from them
    for cfg in configs:
        assert set(cfg.canonical_dict()) == cli._RUN_KEYS
        assert mc.make_config(**cfg.canonical_dict()) == cfg


# --- complexity ------------------------------------------------------------------


def test_complexity_default_table(capsys):
    """Table I's six scenarios, in its order."""
    assert cli.main(["complexity"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["L", "M", "N_r", "ssk-noma", "noma"]] + [
        [str(v) for v in row] for row in (
            (3, 2, 2, 72, 108), (3, 4, 4, 312, 408), (4, 2, 2, 140, 184),
            (4, 4, 4, 760, 688), (5, 2, 2, 240, 280), (5, 4, 4, 2000, 1040))]


def test_complexity_single_row(capsys):
    assert cli.main(["complexity", "--row", "3,2,2"]) == 0
    out = capsys.readouterr().out
    assert "72" in out and "108" in out


@pytest.mark.parametrize("row", ["65,2,1", "5,65536,1"])
def test_complexity_row_at_the_64_bit_bound(capsys, row):
    """(L - 1) log2 M = 64 is the largest row accepted: M_T = 2^64."""
    assert cli.main(["complexity", "--row", row]) == 0
    d_ssk = int(capsys.readouterr().out.splitlines()[1].split()[3])
    assert d_ssk > 2**64  # counts every composite symbol


# --- pa sweep --------------------------------------------------------------------


def test_pa_sweep_grid(tmp_path):
    doc = {"snr_db": 20.0, "n_r": 2, "target_rates": [1.0, 1.0, 1.5]}
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "pa"
    assert cli.main(["pa-sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = _read_csv(out / "pa_sweep.csv")
    assert len(rows) == 1 + 9  # default a2 grid 0.55..0.95
    assert rows[0][:2] == ["a2", "snr_db"]
    assert "outage_u2" in rows[0]
    # stronger-user error rate never improves as its power share shrinks
    u2 = [float(r[rows[0].index("abep_u2")]) for r in rows[1:]]
    assert all(a >= b for a, b in zip(u2, u2[1:]))


def test_pa_sweep_leaves_a_cell_beyond_the_budget_empty(tmp_path):
    """User 3 of a 64-QAM/256-QAM pair needs 2.7e8 joint hypotheses, beyond
    the union bound's budget: its cell is empty, as in the sweeps, and the
    run still succeeds."""
    cfg = _write_config(tmp_path, {"modulations": [64, 256], "a2_grid": [0.9]})
    out = tmp_path / "pa"
    assert cli.main(["pa-sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    header, row = _read_csv(out / "pa_sweep.csv")
    cells = dict(zip(header, row))
    assert cells["abep_u3"] == "" and 0.0 < float(cells["abep_u2"]) < 1.0


def test_pa_sweep_never_builds_the_pair_table(tmp_path, monkeypatch):
    """pa-sweep reads only the power users' closed forms, so it never builds
    the cell-edge pair table, which for [64, 256] took about 1 s and 270 MB
    per a2 before any output."""
    def fail(*args):
        raise AssertionError("the pair table was built")

    monkeypatch.setattr(analytics, "pair_energy_table", fail)
    cfg = _write_config(tmp_path, {"modulations": [64, 256], "a2_grid": [0.85, 0.9]})
    out = tmp_path / "pa"
    assert cli.main(["pa-sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert len(_read_csv(out / "pa_sweep.csv")) == 1 + 2


@pytest.mark.parametrize("flag", ["--seed", "--trials-max"])
def test_pa_sweep_takes_no_run_overrides(tmp_path, capsys, flag):
    """pa-sweep draws nothing, so it has no seed or trial cap to override;
    both flags once only made its runs fail the config checks."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["pa-sweep", "--preset", "fig8", "--out", str(tmp_path), flag, "5000"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "pa_sweep.csv").exists()


def test_pa_sweep_rejects_out_of_range_a2(tmp_path):
    cfg = _write_config(tmp_path, {"a2_grid": [0.4]})
    assert cli.main(["pa-sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


# --- validate --------------------------------------------------------------------


VALIDATE_CONFIG = {
    "scheme": "ssk-noma",
    "n_users": 3,
    "n_r": 2,
    "snr_grid_db": [5.0, 10.0, 15.0],
    "seed": 23,
    "max_trials": 200000,
}


def test_validate_passes_in_coverage(tmp_path, capsys):
    cfg = _write_config(tmp_path, VALIDATE_CONFIG)
    rc = cli.main(["validate", "--config", cfg, "--quiet"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "validation passed" in out


def test_validate_fails_on_corrupted_constant(tmp_path, monkeypatch, capsys):
    """Fault injection: a wrong closed-form constant must trip the gate and
    name the offending metric."""
    import ssknoma.montecarlo as engine

    real = engine.analytics.abep_u2
    monkeypatch.setattr(engine.analytics, "abep_u2",
                        lambda *a, **k: 2.0 * real(*a, **k))
    cfg = _write_config(tmp_path, VALIDATE_CONFIG)
    rc = cli.main(["validate", "--config", cfg, "--quiet"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "ber/user2" in out


@pytest.mark.parametrize("metrics", [[], ["ber", "ber"], ["fer"], ["ber", "outage"]],
                         ids=["empty", "repeated", "unknown", "outage-without-targets"])
def test_validate_checks_metrics_before_any_run_simulates(tmp_path, monkeypatch, capsys,
                                                          metrics):
    """The metric list is checked against every run before the first one
    simulates; here the second run has no target rates."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep was started")

    monkeypatch.setattr(mc, "run_sweep", no_sweep)
    doc = {"snr_grid_db": [10.0], "max_trials": 10_000, "metrics": metrics,
           "runs": [dict(VALIDATE_CONFIG, target_rates=[1.0, 1.0, 1.5]),
                    VALIDATE_CONFIG]}
    assert cli.main(["validate", "--config", _write_config(tmp_path, doc), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_skips_points_without_a_companion(tmp_path, capsys):
    """The baseline's outage companions at N_r = 12 and -300 dB leave double
    range and are left empty, so only the 0 dB points are compared; such
    points once scored nan, which ``max`` ranked above every later failure,
    and passed."""
    doc = {"scheme": "noma-baseline", "n_users": 3, "n_r": 12, "snr_grid_db": [-300, 0],
           "metrics": ["outage"], "target_rates": [1.0, 1.0, 1.5], "max_trials": 10_000}
    rc = cli.main(["validate", "--config", _write_config(tmp_path, doc)])
    out = capsys.readouterr().out
    compared = [line for line in out.splitlines() if "|diff|/ci=" in line]
    assert [line.split(":")[0] for line in compared] == [
        f"outage/user{user}@0dB" for user in (1, 2, 3)]
    assert "nan" not in out and rc == 0


def test_validate_skips_deep_ber_points(tmp_path, capsys):
    """A power user's BER point whose closed form is below 1e-4 (here at
    25 dB) has too few errors to compare and is skipped, as is the
    cell-edge user's union-bound approximation."""
    doc = dict(VALIDATE_CONFIG, snr_grid_db=[10.0, 25.0], max_trials=10_000)
    rc = cli.main(["validate", "--config", _write_config(tmp_path, doc)])
    out = capsys.readouterr().out
    compared = [line for line in out.splitlines() if "|diff|/ci=" in line]
    assert [line.split(":")[0] for line in compared] == ["ber/user2@10dB", "ber/user3@10dB"]
    assert rc == 0


def test_validate_fails_when_no_point_is_compared(tmp_path, capsys):
    """The baseline has no BER companion, so nothing is compared: that is no
    pass."""
    doc = dict(VALIDATE_CONFIG, scheme="noma-baseline", snr_grid_db=[10.0], max_trials=10_000)
    rc = cli.main(["validate", "--config", _write_config(tmp_path, doc), "--quiet"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert "no point compared" in err and "validation passed" not in out
