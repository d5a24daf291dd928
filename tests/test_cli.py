"""Command-line interface: pipelines, formats, exit codes, reproducibility."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ietpwi import breaking, cli, spectral, verify
from ietpwi.cli import COMMANDS, RunConfig, main

from conftest import SRC_DIR


def run_cli(args, tmp_path, timeout=None):
    """Run ``python -m ietpwi.cli`` in ``tmp_path`` on the checkout's source.

    The child's ``PYTHONPATH`` starts with the absolute ``SRC_DIR``: the
    working directory is ``tmp_path``, where a relative ``PYTHONPATH=src``
    no longer resolves, and ``ietpwi`` may not be installed at all.  A run
    longer than ``timeout`` seconds fails the test.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "ietpwi.cli", *args],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env(), timeout=timeout)
    return proc


def cli_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


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
                    "--steps", "5"], tmp_path)
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
                    "--zorich-steps", "2000"], tmp_path)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    exps = payload["exponents"]
    assert exps[0] > 0
    assert abs(exps[0] + exps[1]) <= 0.05 * exps[0]


def test_sample_theta_reproducible(tmp_path):
    args = ["sample-theta", "--catalog", "--delta", "0.1", "--seed", "7"]
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
    ["verify", "--catalog", "--steps", "-1"],
    ["lyapunov", "--catalog", "--zorich-steps", "1"],
    ["curve", "--perm", "2 1", "--lambda", "0.618,0.382", "--theta", "nan,0.2",
     "--steps", "3"],
    ["curve", "--perm", "2 1", "--lambda", "0.618,0.382", "--theta", "inf,0.2",
     "--steps", "3"],
    ["induct", "--perm", "2 1", "--lambda", "1e400,1"],
    ["verify", "--perm", "2 1", "--lambda", "1e-400,1", "--theta", "0.1,0.2",
     "--steps", "3"],
    ["verify", "--catalog", "--theta", "0,0,0,0", "--steps", "1", "--deep-levels", "1"],
    ["induct", "--catalog", "--steps", "1", "--out", "."],
    # a wrong-length theta is caught even where no level past 0 is built
    ["pwi", "--catalog", "--steps", "2", "--deep-levels", "0", "--theta", "0.1,0.2"],
    ["curve", "--catalog", "--steps", "0", "--theta", "0.1,0.2"],
    # and where the trace runs past the drawn level to the sampling depth
    ["curve", "--catalog", "--steps", "3", "--deep-levels", "50", "--theta", "0.1,0.2"],
])
def test_malformed_input_exits_2(tmp_path, args):
    proc = run_cli(args, tmp_path)
    assert proc.returncode == 2
    assert "InvalidInput" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["curve", "--catalog", "--steps", "90"],
    ["pwi", "--catalog", "--deep-levels", "90"],
    ["verify", "--catalog", "--deep-levels", "90"],
    ["verify", "--catalog", "--steps", "40"],  # deep level 80
    ["curve", "--catalog", "--steps", "5", "--deep-levels", "100"],  # sampled at level 100
    ["verify", "--catalog", "--steps", "201"],  # sampled past the 200-step trace
    ["verify", "--catalog", "--steps", "300"],
])
def test_curves_beyond_the_segment_budget_exit_2(tmp_path, args):
    # the catalog's level-71 curve may hold more than 10**7 segments
    proc = run_cli(args, tmp_path, timeout=20)
    assert proc.returncode == 2
    assert "BudgetExceeded" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("perm, lengths", [
    ("2 1", "0.618034,0.381966"),
    ("3 2 1", "0.4317,0.3389,0.2294"),
])
def test_genus_one_sampling_exits_2_naming_the_genus(tmp_path, perm, lengths):
    # the contracting frame of a genus-1 exchange is its one strong stable
    # direction, so every draw is rejected; the error says why
    proc = run_cli(["verify", "--perm", perm, "--lambda", lengths, "--steps", "4"], tmp_path)
    assert proc.returncode == 2
    assert "ExhaustedResamples" in proc.stderr and "'strong_stable_hits': 100" in proc.stderr
    assert "genus-1 exchange" in proc.stderr and "need genus g >= 2" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_curve_samples_deeper_than_it_draws(tmp_path):
    # the sampled theta is tested on the level-50 curve, so the trace must
    # reach level 50, not only level 3, where the curve is drawn
    proc = run_cli(["curve", "--catalog", "--steps", "3", "--deep-levels", "50", "--seed", "1",
                    "--json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["segments"] > 1


@pytest.mark.parametrize("lengths", ["394.9407,592.2364,11.5048,1.3181",
                                     "394940.7,592236.4,11504.8,1318.1"])
def test_curves_of_long_exchanges_build(tmp_path, lengths):
    # the rounding of interval ends and vertices grows with the domain length
    proc = run_cli(["curve", "--perm", "4 3 2 1", "--lambda", lengths, "--steps", "20",
                    "--theta", "0.1,-0.05,0.03,0.02", "--json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["segments"] > 1


def test_verify_reports_on_an_atom_narrower_than_a_spacing(tmp_path):
    # lengths 1 and 2**-80: the short atom's left end rounds to the total
    proc = run_cli(["verify", "--perm", "2 1", "--lambda", "1,1/1208925819614629174706176",
                    "--theta", "0.1,0.2", "--steps", "4", "--deep-levels", "12"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "embedding_defect (n=12)" in proc.stdout


@pytest.mark.parametrize("args", [
    ["lyapunov", "--catalog", "--zorich-steps", "2000"],
    ["zorich", "--catalog"],
    ["curve", "--catalog", "--steps", "20", "--json"],
])
def test_closed_output_pipe_exits_1_quietly(tmp_path, args):
    # the pipe is closed before the child has imported the package, so its
    # first write to stdout meets a reader that is gone
    err = tmp_path / "stderr.txt"
    with err.open("w") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "ietpwi.cli", *args],
                                stdout=subprocess.PIPE, stderr=stderr, cwd=tmp_path,
                                env=cli_env())
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
    assert err.read_text() == ""  # no traceback, nor the exit flush's complaint


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
    {"json_output": "no"},
    {"out": 3},
    {"theta": [float("nan"), 0, 0, 0], "use_catalog": True},
    # keys that name methods or nothing at all
    {"build": 1},
    {"deep": 3},
    {"steps": 3},
    # position 0 would wrap to the last slot and read as "4 3 2 1"
    {"perm": {"d": 4, "pi0": [1, 2, 3, 0], "pi1": [4, 3, 2, 1]}},
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


def test_verify_needs_two_levels_of_the_trace(tmp_path):
    # "2 1" with equal lengths ties at step 0: the trace holds no level
    proc = run_cli(["verify", "--perm", "2 1", "--lambda", "1,1", "--theta", "0.1,0.2",
                    "--steps", "3"], tmp_path)
    assert proc.returncode == 2
    assert "RauzyUndefined" in proc.stderr and "step 0" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, theta, steps, needed", [
    ("curve", "3.14159,3.14159,3.14159,3.14159", "30", "curve needs 30 levels"),
    # pwi builds its curve at the sampling depth, max(--steps, 25)
    ("pwi", "0.1,0.1,0.1,0.1", "3", "pwi needs 25 levels"),
])
def test_curve_commands_name_the_step_where_the_induction_stops(tmp_path, command, theta,
                                                                 steps, needed):
    # the exact induction of these lengths ties at step 4
    proc = run_cli([command, "--perm", "4 3 2 1", "--lambda", "0.4,0.3,0.2,0.1",
                    "--theta", theta, "--steps", steps], tmp_path)
    assert proc.returncode == 2
    assert "RauzyUndefined" in proc.stderr and "step 4" in proc.stderr
    assert needed in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_deep_levels_zero_is_honored(tmp_path):
    # level 0 is the identity curve on the real axis, unlike the default level 25
    args = ["pwi", "--catalog", "--theta", "0.01,0,0,0", "--steps", "2", "--json"]
    imaginary = []
    for extra in ([], ["--deep-levels", "0"]):
        proc = run_cli(args + extra, tmp_path)
        assert proc.returncode == 0, proc.stderr
        maps = json.loads(proc.stdout)["pwi"]["maps"]
        imaginary.append(max(abs(m[key][1]) for m in maps for key in ("a", "b")))
    assert imaginary[0] > 0.0 and imaginary[1] == 0.0


def test_config_use_catalog_kept(tmp_path, reference):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"use_catalog": True}))
    proc = run_cli(["--config", str(config), "induct", "--steps", "1"], tmp_path)
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["lambda"] == reference.iet.lengths.values().tolist()


def test_main_entry_direct(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["zorich", "--perm", "2 1", "--lambda", "0.9,0.1", "--steps", "1"])
    out = json.loads(capsys.readouterr().out)
    assert out["blocks"] == [8]
    assert code == 1  # run stopped at the tie


def test_verify_keeps_only_the_curves_it_reads(tmp_path, monkeypatch):
    # every curve the operator makes is watched; when the deepest is certified,
    # only levels 1 and 2 (the quasi suite's, besides the identity) and 63 are alive
    made = []
    operator, embedding_defect = breaking.breaking_operator, verify.embedding_defect

    def watched(curve, phi, intervals):
        out = operator(curve, phi, intervals)
        made.append(weakref.ref(out))
        return out

    alive = []

    def counting(curve, pwi, iet):
        alive.append(sum(ref() is not None for ref in made))
        return embedding_defect(curve, pwi, iet)

    monkeypatch.setattr(breaking, "breaking_operator", watched)
    monkeypatch.setattr(verify, "embedding_defect", counting)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--catalog", "--steps", "2", "--deep-levels", "63",
                     "--json"]) == 0
    assert len(made) >= 63 and alive == [3]


def test_verify_pushes_the_sampled_vector_once(tmp_path, monkeypatch):
    # the sample carries its push to level N_CHECK, which the curves continue
    depths = []
    push = breaking.theta_sequence

    def counting(trace, theta, depth):
        depths.append(depth)
        return push(trace, theta, depth)

    monkeypatch.setattr(breaking, "theta_sequence", counting)
    monkeypatch.setattr(spectral, "theta_sequence", counting)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--catalog", "--steps", "8", "--delta", "0.05", "--json"]) == 0
    assert depths == [spectral.N_CHECK]


#: the options each command does not read, which it refuses
DROPPED = {
    "induct": "theta zorich-steps delta seed deep-levels json",
    "zorich": "theta zorich-steps delta seed deep-levels out json",
    "rauzy-graph": "lambda theta steps zorich-steps delta seed deep-levels catalog",
    "lyapunov": "theta steps delta seed deep-levels out json",
    "sample-theta": "theta steps zorich-steps deep-levels out json",
    "curve": "zorich-steps",
    "pwi": "zorich-steps",
    "verify": "zorich-steps out",
}
#: a value for each option that takes one
OPTION_VALUES = {"perm": "4 3 2 1", "lambda": "0.5,0.3,0.1,0.1", "theta": "0,0,0,0",
                 "steps": "3", "zorich-steps": "400", "delta": "0.1", "seed": "1",
                 "deep-levels": "5", "out": "out.txt"}


def test_each_command_accepts_the_options_it_reads():
    every = {"perm", "lambda", "theta", "steps", "zorich-steps", "delta", "seed",
             "deep-levels", "out", "json", "catalog"}
    assert sorted(COMMANDS) == sorted(DROPPED)
    for command, (_, options) in COMMANDS.items():
        accepted, dropped = options.split(), DROPPED[command].split()
        assert set(accepted).isdisjoint(dropped) and set(accepted) | set(dropped) == every
    assert sum(len(options.split()) for _, options in COMMANDS.values()) == 50
    assert sum(len(options.split()) for options in DROPPED.values()) == 38


@pytest.mark.parametrize("command, option", [
    (command, option) for command, options in DROPPED.items() for option in options.split()])
def test_an_option_the_command_does_not_read_exits_2(command, option, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    value = [OPTION_VALUES[option]] if option in OPTION_VALUES else []
    with pytest.raises(SystemExit) as info:
        main([command, f"--{option}", *value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: --{option}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_the_parser_is_built_once_and_keeps_nothing_between_runs(tmp_path, monkeypatch):
    # each run twice in one process: a passing one, an InvalidInput exit 2 and
    # an argparse rejection give the same exit, stdout bytes and stderr
    monkeypatch.chdir(tmp_path)

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
        return code, out.getvalue().encode(), err.getvalue()

    for argv, code in (
            (["verify", "--catalog", "--steps", "8", "--delta", "0.05", "--seed", "0",
              "--json"], 0),
            (["verify", "--catalog", "--steps", "-1"], 2),
            (["zorich", "--catalog", "--zorich-steps", "400"], ("SystemExit", 2))):
        first = run(argv)
        assert first[0] == code and run(argv) == first
    assert cli._parser() is cli._parser()


#: sha256 of ``verify --catalog --steps 8 --delta 0.05 --seed S --json`` on
#: stdout, recorded when the map agreement and conjugacy defects became
#: maxima over corner and kink sets instead of random samples
VERIFY_DIGESTS = {
    0: "45081f2ce57e4dd25f48fabf4cc647b352846b951ff31f4a044815cd7cbce2ad",
    1: "a5c943ae4126b20e881192cf19d26b1c983676e63cae702bee4a985c749c51ad",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_DIGESTS))
def test_verify_report_bytes_are_pinned(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--catalog", "--steps", "8", "--delta", "0.05",
                     "--seed", str(seed), "--json"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == VERIFY_DIGESTS[seed]


#: (exit code, sha256 of stdout then of each written file in name order) of
#: runs that sample or configure theta and continue its curves: past the
#: sampling depth 25, from a configured theta, for the orbit CSV, and with the
#: sampling depth equal to the deep level
RUN_DIGESTS = {
    "curve --catalog --steps 30 --seed 2 --json":
        (0, "cdd8d37e5a790b263f81c4ea1a34408991369087388233d12d967c5fe9d4fe35"),
    "curve --catalog --steps 12 --theta 0.01,0.02,-0.01,0.005 --json":
        (0, "c60bf8b649bd16f24bbcbc7fdb7f4b56df7047f01a70fe87eceebe5160984ba1"),
    "pwi --catalog --steps 5 --seed 1 --json":
        (0, "5647869973e075cd60a3ef280320c94d50d69ad312fd574dc81edd5f046c762a"),
    "verify --catalog --steps 6 --deep-levels 30 --seed 1 --json":
        (1, "a96ef892aac34f6b0994ee888aa7b25cf658dba784902352fafc1fc01acc7f89"),
}


@pytest.mark.parametrize("command", sorted(RUN_DIGESTS))
def test_run_bytes_are_pinned(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    digest = hashlib.sha256(out.getvalue().encode())
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.read_bytes())
    assert (code, digest.hexdigest()) == RUN_DIGESTS[command]


#: values a user may mistype: non-finite, beyond double range, empty, not a
#: number, out of range
GARBAGE = st.sampled_from(["nan", "inf", "-inf", "1e400", "1e-400", "", "abc", "-1", "0"])
MONODROMIES = ["4 3 2 1", "3 2 1", "2 1", "4 1 3 2", "5 4 3 2 1"]


def _or_garbage(draw, valid, garbage=GARBAGE):
    """A draw from ``valid`` three times in four, else from ``garbage``."""
    return draw(garbage if draw(st.integers(0, 3)) == 0 else valid)


def _vector(draw, numbers, d):
    """``d`` comma-joined ``numbers``, some with one entry garbage, the
    count off by one, or all entries equal (a tie for lengths)."""
    values = [repr(v) for v in draw(st.lists(numbers, min_size=d, max_size=d))]
    flaw = draw(st.sampled_from(["none", "none", "none", "entry", "count", "equal"]))
    if flaw == "entry":
        values[draw(st.integers(0, d - 1))] = draw(GARBAGE)
    elif flaw == "count":
        values = values[:-1] if draw(st.booleans()) else values + values[:1]
    elif flaw == "equal":
        values = ["1"] * d
    return ",".join(values)


def _number(token):
    """``token`` as a float where it parses as one."""
    try:
        return float(token)
    except ValueError:
        return token


@st.composite
def cli_runs(draw):
    """An argv of one command with valid and garbage values of the options it
    accepts, and perhaps a config file's object built the same way."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[command][1].split()
    catalog = draw(st.booleans())
    monodromy = draw(st.sampled_from(MONODROMIES))
    d = 4 if catalog else len(monodromy.split())
    perm = _or_garbage(draw, st.just(monodromy), st.sampled_from(["1 2", "2 1 3", "2 2", ""]))
    depth = st.integers(0, 6)
    values = {
        "perm": perm,
        "lambda": _vector(draw, st.floats(1e-3, 1.0), d),
        "theta": _vector(draw, st.floats(-1.0, 1.0), d),
        "steps": _or_garbage(draw, depth, st.just(-1)),
        "deep-levels": _or_garbage(draw, depth, st.just(-1)),
        "zorich-steps": _or_garbage(draw, st.integers(1, 60), st.integers(-1, 0)),
        "delta": _or_garbage(draw, st.floats(0.01, 1.0), st.sampled_from([0.0, 4.0])),
        "seed": _or_garbage(draw, st.integers(0, 9), st.just(-1)),
    }
    names = draw(st.lists(st.sampled_from([o for o in options if o in values]), unique=True,
                          max_size=6))
    argv = [command] + [f"--{name}={values[name]}" for name in names]
    argv += [flag for flag, on in (("--catalog", catalog), ("--json", draw(st.booleans())))
             if on and flag[2:] in options]
    config = None
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=3))
        fields = {"lambda": "lengths", "steps": "levels"}
        config = {fields.get(k, k).replace("-", "_"): values[k] for k in keys}
        for key in ("lengths", "theta"):
            if key in config:  # lists of numbers, JSON's NaN and Infinity included
                config[key] = [_number(v) for v in config[key].split(",")]
    return argv, config


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(cli_runs())
@example((["curve", "--perm=2 1", "--lambda=0.618,0.382", "--theta=nan,0.2",
           "--steps=3"], None))
@example((["induct", "--perm=2 1", "--lambda=1e400,1"], None))
@example((["verify", "--catalog", "--theta=0,0,0,0", "--steps=1", "--deep-levels=1"],
          None))
@example((["curve", "--steps=2"], {"theta": [float("nan"), 0, 0, 0], "use_catalog": True}))
@example((["verify", "--catalog", "--deep-levels=90"], None))
@example((["pwi", "--catalog", "--steps=2", "--deep-levels=0", "--theta=0.1,0.2"], None))
def test_garbage_input_ends_in_an_exit_code(run):
    """In process: ``main`` returns 0, 1 or 2, or argparse exits 2; nothing else escapes."""
    argv, config = run
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            if config is not None:
                with open("run.json", "w", encoding="utf-8") as handle:
                    json.dump(config, handle)
                argv = ["--config", "run.json", *argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    assert exc.code == 2
                    return
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
