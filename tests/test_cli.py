import csv
import dataclasses
import hashlib
import importlib.util
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET

import pytest

import lrts
import lrts.agents
import lrts.core
import lrts.harness
from lrts.cli import OUT_DIR_ENV, ConfigError, main, parse_config, read_config_file
from lrts.harness import DEFAULT_LOOKAHEADS, RUN_COLUMNS, SUMMARY_COLUMNS, ExperimentConfig
from lrts.plots import bar_chart_svg, emit_plots
from lrts.tiles import random_solvable


@pytest.fixture(autouse=True)
def _no_out_dir_env(monkeypatch):
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)


def test_defaults():
    config = parse_config(["--experiment", "convergence"])
    assert config.domain == "puzzle8"
    assert config.folds == 10 and config.instances == 100
    assert config.lookaheads == DEFAULT_LOOKAHEADS
    assert config.out_dir == "lrts-out"
    assert config.jobs == 1 and config.master_seed == 0
    # three discounts for each trap variant, two weights, plain lrta
    labels = [s.label() for s in config.specs]
    assert labels == [
        "gtrap-bt(0.2)", "gtrap-bt(0.5)", "gtrap-bt(1)",
        "gtrap(0.2)", "gtrap(0.5)", "gtrap(1)",
        "lrta",
        "ilrta(eps=0.2)", "ilrta(eps=0.5)",
    ]


def test_first_trial_default_includes_rta():
    config = parse_config(["--experiment", "first-trial"])
    assert "rta" in [s.algorithm.value for s in config.specs]


def test_experiment_is_required():
    with pytest.raises(ConfigError):
        parse_config([])


def test_lookahead_merging():
    config = parse_config(["--experiment", "convergence",
                           "--lookahead", "1,2", "--lookahead", "5"])
    assert config.lookaheads == (1, 2, 5)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# desk-scale smoke\n"
        "experiment = convergence\n"
        "folds = 3\n"
        "algorithms = lrta\n"
        "\n"
    )
    config = parse_config(["--config", str(cfg), "--folds", "2"])
    assert config.experiment == "convergence"
    assert config.folds == 2  # flag beats file
    assert [s.algorithm.value for s in config.specs] == ["lrta"]


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(ConfigError):
        read_config_file(str(missing))
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n")
    with pytest.raises(ConfigError):
        read_config_file(str(bad))
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("depth = 3\n")
    with pytest.raises(ConfigError):
        parse_config(["--experiment", "convergence", "--config", str(unknown)])


_CONV = ["--experiment", "convergence"]

# (argv, the key the error message must name)
_REJECTED = [
    (_CONV + ["--gamma", "0"], "gamma"),
    (_CONV + ["--gamma", "1.5"], "gamma"),
    (_CONV + ["--gamma", "abc"], "gamma"),
    (_CONV + ["--epsilon", "-0.5"], "epsilon"),
    (_CONV + ["--algorithms", "astar"], "algorithm"),
    (_CONV + ["--algorithms", "rta"], "algorithm"),
    (_CONV + ["--lookahead", "0"], "lookahead"),
    (_CONV + ["--folds", "0"], "folds"),
    (_CONV + ["--jobs", "0"], "jobs"),
    (_CONV + ["--domain", "puzzle15"], "korf"),
    (_CONV + ["--domain", "puzzle15", "--korf-file", "/no/such/file"], "korf"),
    (_CONV + ["--epsilon", "nan"], "epsilon"),
    (_CONV + ["--epsilon", "inf"], "epsilon"),
    (_CONV + ["--instances", "0"], "instances"),
    (_CONV + ["--move-limit", "0"], "move_limit"),
    (_CONV + ["--memory-limit", "0"], "memory_limit"),
    (_CONV + ["--ida-budget", "-1"], "ida_budget"),
    (_CONV + ["--seed", "-1000000000000000001"], "seed"),
    # values no listed algorithm takes are still checked
    (_CONV + ["--algorithms", "lrta", "--gamma", "0"], "gamma"),
    (_CONV + ["--algorithms", "lrta", "--epsilon", "nan"], "epsilon"),
]


@pytest.mark.parametrize("argv,key", [
    pytest.param(argv, key, id=f"argv{i}") for i, (argv, key) in enumerate(_REJECTED)
])
def test_rejected_configurations(argv, key):
    with pytest.raises(ConfigError, match=key):
        parse_config(argv)


@pytest.mark.parametrize("text,key", [
    ("experiment = warmup\n", "experiment"),
    ("experiment = convergence\ndomain = chess\n", "domain"),
    ("experiment = convergence\nlookahead = 0\n", "lookahead"),
], ids=["experiment", "domain", "lookahead"])
def test_rejected_config_file_values(tmp_path, text, key):
    """Values argparse's choices never see, because they come from a file."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=key):
        parse_config(["--config", str(cfg)])


def test_malformed_flags_exit_via_argparse():
    with pytest.raises(SystemExit) as exc:
        parse_config(["--experiment", "convergence", "--folds", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        parse_config(["--no-such-flag"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_config(["--version"])
    assert exc.value.code == 0
    assert "lrts" in capsys.readouterr().out


def test_out_dir_env_fallback(monkeypatch, tmp_path):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "from-env"))
    config = parse_config(["--experiment", "convergence"])
    assert config.out_dir == str(tmp_path / "from-env")
    config = parse_config(["--experiment", "convergence",
                           "--out-dir", str(tmp_path / "flag")])
    assert config.out_dir == str(tmp_path / "flag")


def test_puzzle15_defaults_to_one_fold(tmp_path):
    korf = tmp_path / "boards.txt"
    rng = random.Random(2)
    board = random_solvable(4, 4, rng)
    korf.write_text("1 " + " ".join(str(t) for t in board.tiles) + "\n")
    config = parse_config(["--experiment", "convergence", "--domain", "puzzle15",
                           "--korf-file", str(korf), "--instances", "1",
                           "--ida-budget", "0"])
    assert config.folds == 1
    assert config.ida_budget == 0


_SMOKE = ["--experiment", "convergence", "--algorithms", "gtrap-bt",
          "--gamma", "0.5", "--lookahead", "1", "--folds", "2",
          "--instances", "2", "--seed", "3"]


def _run_main(out_dir, extra=()):
    code = main(_SMOKE + ["--out-dir", str(out_dir)] + list(extra))
    assert code == 0
    return {
        "runs": (out_dir / "runs_convergence.csv").read_bytes(),
        "summary": (out_dir / "summary_convergence.csv").read_bytes(),
        "plots": sorted(p.name for p in out_dir.glob("*.svg")),
        "plot_bytes": b"".join(p.read_bytes()
                               for p in sorted(out_dir.glob("*.svg"))),
        "manifest": json.loads((out_dir / "manifest.json").read_text()),
    }


def test_main_end_to_end(tmp_path, capsys):
    out = _run_main(tmp_path / "out")
    lines = out["runs"].decode().splitlines()
    header = lines[0].split(",")
    assert tuple(header) == RUN_COLUMNS
    assert len(lines) == 1 + 4  # 1 spec x 1 lookahead x 2 folds x 2 instances
    reader = csv.DictReader(out["runs"].decode().splitlines())
    for row in reader:
        assert row["algorithm"] == "gtrap-bt"
        assert row["param_gamma"] == "0.5"
        assert row["converged_at"] != ""
        assert row["limit_hit"] == ""
    summary_header = out["summary"].decode().splitlines()[0].split(",")
    assert tuple(summary_header) == SUMMARY_COLUMNS
    assert out["plots"] == ["plot_convergence_cost.svg", "plot_final_ratio_pct.svg"]

    manifest = out["manifest"]
    assert manifest["tool_version"] == "1.0.0"
    assert manifest["algorithms"] == ["gtrap-bt(0.5)"]
    assert manifest["master_seed"] == 3
    assert sorted(manifest["outputs"]) == sorted(
        ["runs_convergence.csv", "summary_convergence.csv"] + out["plots"])
    assert "seed_rule" in manifest and "conventions" in manifest

    printed = capsys.readouterr().out.splitlines()
    assert printed[-1].endswith("manifest.json")

    for name in out["plots"]:
        svg = (tmp_path / "out" / name).read_text()
        ET.fromstring(svg)  # well-formed XML


def test_main_outputs_are_deterministic(tmp_path):
    a = _run_main(tmp_path / "a")
    b = _run_main(tmp_path / "b")
    c = _run_main(tmp_path / "c", extra=["--jobs", "2"])
    assert a["runs"] == b["runs"] == c["runs"]
    assert a["summary"] == b["summary"] == c["summary"]
    assert a["plot_bytes"] == b["plot_bytes"] == c["plot_bytes"]
    for m in (a["manifest"], b["manifest"]):
        m.pop("out_dir")
    assert a["manifest"] == b["manifest"]


# sha256 of runs_<experiment>.csv for fixed argv (default specs, 1 fold x 2
# instances, seed 87). Any change to what an agent decides, to the run seeds
# or to the CSV format changes a digest; a deliberate change updates it and
# says why in CHANGES.md. Seed 87 draws 8-puzzle boards of optimal cost 14 and
# 13, which keeps the lookahead-6 convergence runs to seconds. Summary CSVs are
# not pinned: their std columns come from `statistics`, whose last digits may
# differ across Python versions.
RUNS_CSV_SHA256 = {
    ("convergence", "1,2,3,6"): "068a969f802d92b6f99cf6268ef07c166665f439ef79f2447178832aa3728a67",
    ("first-trial", "1,3"): "05a87959b3a24a5af532cda6e7fc69b5c287d3079b0f5c4cbc6cbd1dd4bd67b2",
}


@pytest.mark.parametrize("experiment,lookahead", sorted(RUNS_CSV_SHA256))
def test_runs_csv_bytes_are_pinned(tmp_path, experiment, lookahead):
    assert main(["--experiment", experiment, "--lookahead", lookahead,
                 "--folds", "1", "--instances", "2", "--seed", "87",
                 "--out-dir", str(tmp_path)]) == 0
    data = (tmp_path / f"runs_{experiment}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == RUNS_CSV_SHA256[(experiment, lookahead)]


# sha256 of manifest.json for _SMOKE with --out-dir out, pinned while the
# manifest was still written field by field; any change to its keys, values
# or layout (a tool_version bump included) changes it.
MANIFEST_SHA256 = "dd8280f4d84135f7724f24a243e7acd66af50e43104751d571a07491fe9f232d"


def test_manifest_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(_SMOKE + ["--out-dir", "out"]) == 0
    data = (tmp_path / "out" / "manifest.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == MANIFEST_SHA256
    renamed = {"specs": "algorithms", "korf_path": "korf_file"}
    config_keys = {renamed.get(f.name, f.name) for f in dataclasses.fields(ExperimentConfig)}
    assert set(json.loads(data)) == config_keys | {
        "tool_version", "seed_rule", "conventions", "outputs"}


def test_main_config_error_exit(tmp_path, capsys):
    assert main(["--experiment", "convergence", "--gamma", "2"]) == 2
    assert "gamma" in capsys.readouterr().err


def test_main_reports_bad_instance_file(tmp_path, capsys):
    korf = tmp_path / "broken.txt"
    korf.write_text("1 2 3\n")
    code = main(["--experiment", "convergence", "--domain", "puzzle15",
                 "--korf-file", str(korf), "--instances", "1",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_bar_heights_scale_linearly():
    svg = bar_chart_svg("t", "y", [("a", 1000.0, None), ("b", 31000.0, None)])
    heights = [float(el.get("height"))
               for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}rect")
               if el.get("fill") == "#4878a8"]
    assert len(heights) == 2
    assert heights[1] / heights[0] == pytest.approx(31.0, rel=1e-2)


def test_bar_chart_rejects_empty():
    with pytest.raises(ValueError):
        bar_chart_svg("t", "y", [])


def test_emit_plots_with_nothing_to_draw(tmp_path):
    assert emit_plots([], str(tmp_path), "convergence") == []
    # rows lacking the metric columns are skipped rather than crashing
    rows = [{"algorithm": "lrta", "param_gamma": None, "param_epsilon": None,
             "lookahead": 1, "mean_convergence_cost": None,
             "mean_final_ratio_pct": None}]
    assert emit_plots(rows, str(tmp_path), "convergence") == []
    assert list(tmp_path.iterdir()) == []


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL])
def test_workers_exit_with_the_cli_process(tmp_path, sig):
    src = os.path.dirname(os.path.dirname(lrts.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, "-m", "lrts.cli", "--experiment", "convergence",
            "--algorithms", "lrta", "--lookahead", "1", "--folds", "2",
            "--instances", "20", "--jobs", "2", "--out-dir", str(tmp_path)]
    proc = subprocess.Popen(argv, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    # a CLI that never reports progress is killed, which ends the read below
    watchdog = threading.Timer(60, _kill_group, (proc.pid,))
    watchdog.start()
    try:
        for line in proc.stderr:
            if line.startswith("  run "):
                break
        else:
            pytest.fail("the CLI printed no progress line")
        watchdog.cancel()
        proc.send_signal(sig)
        proc.wait(timeout=5)  # reap the parent; only its workers may be left
        deadline = time.monotonic() + 5
        while _group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _group_alive(proc.pid), "worker processes outlived the CLI"
    finally:
        watchdog.cancel()
        _kill_group(proc.pid)
        proc.wait()
        proc.stderr.close()


def test_bench_tracer_wraps_a_cli_run(tmp_path):
    """The benchmark's tracer patches lrts attributes by name; a rename must
    fail here rather than only in a traced benchmark run."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        code = tracer.main(main)([
            "--experiment", "convergence", "--algorithms", "lrta,ilrta",
            "--lookahead", "1,2", "--folds", "1", "--instances", "1",
            "--out-dir", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert all(n > 0 for n in tracer.calls.values())
    assert tracer.moves > 0 and tracer.expansions > 0
    # lrta, ilrta(eps=0.2), ilrta(eps=0.5), each at lookaheads 1 and 2
    assert len(tracer.results) == 1 and len(tracer.finals) == 6
    assert tracer.functions["core.iter_layers"][0] > 0
    assert lrts.agents.iter_layers is lrts.core.iter_layers
    assert not hasattr(lrts.harness.ida_star_optimal, "__wrapped__")
