"""Command-line interface: pipelines, formats, exit codes, reproducibility."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ietpwi.cli import RunConfig, main

from conftest import SRC_DIR


def run_cli(args, tmp_path, timeout=None):
    """Run ``python -m ietpwi.cli`` in ``tmp_path`` on the checkout's source.

    The child's ``PYTHONPATH`` starts with the absolute ``SRC_DIR``: the
    working directory is ``tmp_path``, where a relative ``PYTHONPATH=src``
    no longer resolves, and ``ietpwi`` may not be installed at all.  A run
    longer than ``timeout`` seconds fails the test.
    """
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ietpwi.cli", *args],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=timeout)
    return proc


def fibonacci_set(limit):
    fibs = {1, 2}
    a, b = 1, 2
    while b < limit:
        a, b = b, a + b
        fibs.add(b)
    return fibs


def test_induct_golden_fibonacci_factors(tmp_path):
    proc = run_cli(["induct", "--perm", "2 1",
                    "--lambda", "0.618034,0.381966", "--steps", "10"], tmp_path)
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 10
    # cumulative products of these factors have Fibonacci entries
    product = np.eye(2, dtype=object)
    fibs = fibonacci_set(10**6) | {0}
    for rec in records:
        product = np.array(rec["B"], dtype=object) @ product
        for value in product.flatten():
            assert int(value) in fibs


def test_induct_zero_steps(tmp_path):
    proc = run_cli(["induct", "--perm", "2 1", "--lambda", "0.618034,0.381966",
                    "--steps", "0"], tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.strip() == ""


def test_induct_tie_nonzero_exit(tmp_path):
    proc = run_cli(["induct", "--perm", "2 1", "--lambda", "0.5,0.5",
                    "--steps", "3"], tmp_path)
    assert proc.returncode != 0
    assert "RauzyUndefined" in proc.stderr


def test_zorich_grouping(tmp_path):
    proc = run_cli(["zorich", "--perm", "2 1", "--lambda", "0.618034,0.381966",
                    "--steps", "5", "--json"], tmp_path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["blocks"] == [1, 1, 1, 1, 1]


def test_rauzy_graph_seven_vertices(tmp_path):
    proc = run_cli(["rauzy-graph", "--perm", "4 3 2 1", "--json",
                    "--out", "graph.dot"], tmp_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vertices"] == 7
    dot = (tmp_path / "graph.dot").read_text()
    assert dot.count("->") == 14


def test_lyapunov_symmetric_pair(tmp_path):
    proc = run_cli(["lyapunov", "--perm", "2 1", "--lambda", "0.618034,0.381966",
                    "--zorich-steps", "2000", "--json"], tmp_path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    exps = payload["exponents"]
    assert exps[0] > 0
    assert abs(exps[0] + exps[1]) <= 0.05 * exps[0]


def test_sample_theta_reproducible(tmp_path):
    args = ["sample-theta", "--catalog", "--delta", "0.1", "--seed", "7", "--json"]
    first = run_cli(args, tmp_path)
    second = run_cli(args, tmp_path)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_curve_zero_theta_is_straight(tmp_path):
    proc = run_cli(["curve", "--catalog", "--theta", "0,0,0,0",
                    "--steps", "5", "--json"], tmp_path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    csv_lines = (tmp_path / payload["csv"]).read_text().splitlines()[1:]
    imag = np.array([float(line.split(",")[2]) for line in csv_lines])
    assert np.max(np.abs(imag)) < 1e-12
    svg = (tmp_path / payload["svg"]).read_text()
    assert "polyline" in svg


def test_pwi_orbit_csv(tmp_path):
    proc = run_cli(["pwi", "--catalog", "--steps", "3", "--deep-levels", "20",
                    "--seed", "1", "--json"], tmp_path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    lines = (tmp_path / payload["orbit_csv"]).read_text().splitlines()
    assert lines[0] == "step,re,im,atom"
    assert len(lines) >= 30
    atoms = {line.split(",")[3] for line in lines[1:-1]}
    assert atoms.issubset({"0", "1", "2", "3"})


def test_verify_zero_theta_passes(tmp_path):
    proc = run_cli(["verify", "--catalog", "--theta", "0,0,0,0", "--steps", "5",
                    "--deep-levels", "12"], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_verify_random_theta_fails(tmp_path):
    proc = run_cli(["verify", "--catalog", "--theta", "2.1,0.8,4.4,1.3",
                    "--steps", "4", "--deep-levels", "12"], tmp_path)
    assert proc.returncode == 1
    # rejected by the checks, not by a crash (which also exits 1)
    assert "Traceback" not in proc.stderr
    assert "[FAIL]" in proc.stdout


def test_verify_sampled_passes(tmp_path):
    proc = run_cli(["verify", "--catalog", "--steps", "6", "--seed", "1",
                    "--json"], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    checks = json.loads(proc.stdout)
    names = {c["check"] for c in checks}
    assert {"map_agreement", "quasi_embedding", "increment_bound",
            "injectivity", "summability", "embedding_defect"} <= names


def test_verify_without_catalog_ends(tmp_path):
    # four-digit lengths that tie at step 47 up to float noise: the float
    # frame used to take one same-type block of about 3.6e9 single steps
    proc = run_cli(["verify", "--perm", "4 3 2 1",
                    "--lambda", "0.4317,0.3389,0.1213,0.1081", "--steps", "8"],
                   tmp_path, timeout=60)
    assert proc.returncode in (1, 2)
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_default_lengths_are_the_catalog_lengths(reference):
    assert RunConfig().lengths == [float(v) for v in reference.iet.lengths.values()]


@pytest.mark.parametrize("command", ["sample-theta", "lyapunov", "curve"])
def test_commands_run_with_defaults(tmp_path, command):
    proc = run_cli([command], tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("perm, lengths", [
    ("2 1", "1,1e-300"),
    ("4 3 2 1", "0.25,0.25,0.25,0.25"),
    # the first block would take about 1.7e15 cycles
    ("4 3 2 1", "1,2e-16,2e-16,2e-16"),
])
def test_degenerate_lengths_exit_2(tmp_path, perm, lengths):
    proc = run_cli(["lyapunov", "--perm", perm, "--lambda", lengths], tmp_path,
                   timeout=60)
    assert proc.returncode == 2
    assert "RauzyUndefined" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_file_and_flag_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"perm": "2 1",
                                  "lengths": ["0.618034", "0.381966"],
                                  "levels": 3}))
    proc = run_cli(["--config", str(config), "induct", "--steps", "2"], tmp_path)
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 2


@pytest.mark.parametrize("args", [
    ["induct", "--perm", "2 1", "--lambda", "0.5,abc"],
    ["induct", "--perm", "2 2", "--lambda", "0.5,0.5"],
    ["induct", "--perm", "2 1", "--lambda", "0.5,0.3,0.2"],
    ["curve", "--catalog", "--steps", "-1"],
    ["verify", "--catalog", "--deep-levels", "-1"],
    ["curve", "--catalog", "--theta", "1,abc"],
    ["verify", "--catalog", "--delta", "0"],
    ["sample-theta", "--catalog", "--delta", "3.2"],
    ["lyapunov", "--catalog", "--zorich-steps", "0"],
    ["lyapunov", "--catalog", "--zorich-steps", "-3"],
    ["curve", "--catalog", "--theta", "1,2", "--steps", "3"],
    ["verify", "--catalog", "--theta", "0,0,0,0,0", "--steps", "2"],
    ["sample-theta", "--catalog", "--seed", "-1"],
    ["verify", "--catalog", "--steps", "300"],
    ["curve", "--catalog", "--steps", "5", "--deep-levels", "100"],
    ["lyapunov", "--catalog", "--zorich-steps", "1"],
])
def test_malformed_input_exits_2(tmp_path, args):
    proc = run_cli(args, tmp_path)
    assert proc.returncode == 2
    assert "InvalidInput" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_config_depth_must_be_nonnegative_integer(tmp_path):
    config = tmp_path / "run.json"
    contents = [json.dumps({"levels": -1}), json.dumps({"levels": "3"}),
                json.dumps({"delta": 4.0}), json.dumps({"zorich_steps": 0}),
                "{not json", json.dumps([["perm", "2 1"]])]
    for text in contents:
        config.write_text(text)
        proc = run_cli(["--config", str(config), "induct"], tmp_path)
        assert proc.returncode == 2
        assert "InvalidInput" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
    proc = run_cli(["--config", "missing.json", "induct"], tmp_path)
    assert proc.returncode == 2
    assert "InvalidInput" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("values", [
    {"lengths": 5},
    {"lengths": ["0.5", [0.5]]},
    {"seed": "x", "use_catalog": True},
    {"seed": 1.5},
    {"perm": 5},
    {"theta": "0,0,0,0"},
    {"theta": [0, None, 0, 0]},
    {"use_catalog": "yes"},
    {"out": 3},
])
def test_config_values_are_type_checked(tmp_path, values):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(values))
    for command in (["sample-theta"], ["curve", "--steps", "2"]):
        proc = run_cli(["--config", str(config), *command], tmp_path)
        assert proc.returncode == 2
        assert "InvalidInput" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == [config]


def test_config_use_catalog_kept(tmp_path, reference):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"use_catalog": True}))
    proc = run_cli(["--config", str(config), "induct", "--steps", "1"], tmp_path)
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["lambda"] == reference.iet.lengths.values().tolist()


def test_main_entry_direct(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["zorich", "--perm", "2 1", "--lambda", "0.9,0.1", "--steps", "1",
                 "--json"])
    out = json.loads(capsys.readouterr().out)
    assert out["blocks"] == [8]
    assert code == 1  # run stopped at the tie
