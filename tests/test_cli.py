"""Command line interface tests: flag resolution, config files, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crossolve
from crossolve import ConfigError, ExperimentSpec, run_experiment, scenario_defaults
from crossolve.cli import _SUBCOMMANDS, main


def test_transient_happy_path(tmp_path, capsys):
    code = main(["transient", "--seed", "0", "--out", str(tmp_path / "run")])
    assert code == 0
    captured = capsys.readouterr()
    assert "scenario: transient" in captured.out
    assert (tmp_path / "run" / "records.csv").exists()
    assert (tmp_path / "run" / "summary.txt").exists()
    assert (tmp_path / "run" / "trace.csv").exists()


def test_seed_is_mandatory(tmp_path, capsys):
    code = main(["transient", "--out", str(tmp_path / "run")])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_estimate_subcommand(tmp_path):
    code = main(["estimate", "--seed", "1", "--out", str(tmp_path / "est")])
    assert code == 0
    text = (tmp_path / "est" / "records.csv").read_text()
    assert "estimate" in text


def test_config_file_supplies_everything(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "scenario: transient\n"
        "seed: 5\n"
        f"output_dir: {tmp_path / 'out'}\n"
        "parameters:\n"
        "  epsilon: 0.01\n"
    )
    code = main(["transient", "--config", str(cfg)])
    assert code == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "seed: 5" in summary
    assert "epsilon: 0.01" in summary


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("seed: 5\nparameters:\n  epsilon: 0.01\n")
    out = tmp_path / "out"
    code = main(
        ["transient", "--config", str(cfg), "--seed", "6", "--epsilon", "0.005", "--out", str(out)]
    )
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "seed: 6" in summary
    assert "epsilon: 0.005" in summary


def test_config_scenario_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("scenario: scaling\nseed: 1\n")
    assert main(["transient", "--config", str(cfg)]) == 2


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("seed: 1\nwidgets: 3\n")
    assert main(["transient", "--config", str(cfg)]) == 2


def test_invalid_yaml(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("seed: [unclosed\n")
    assert main(["transient", "--config", str(cfg)]) == 2


def test_missing_config_file(tmp_path):
    assert main(["transient", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_flag_must_apply_to_scenario(tmp_path, capsys):
    # the estimate scenario has no conductance levels to configure
    assert main(["estimate", "--seed", "1", "--levels", "64", "--out", str(tmp_path)]) == 2
    assert "--levels" in capsys.readouterr().err


def test_ratio_applies_to_scaling_not_transient(tmp_path):
    assert main(["transient", "--seed", "1", "--ratio", "1000", "--out", str(tmp_path)]) == 2


def test_unknown_parameter_in_config(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("seed: 1\nparameters:\n  bogus: 2\n")
    assert main(["transient", "--config", str(cfg)]) == 2


def test_unstable_system_exits_three(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "seed: 1\n"
        f"output_dir: {tmp_path / 'out'}\n"
        "parameters:\n"
        "  a: [[0.0, 1.0], [1.0, 0.0]]\n"
        "  b: [1.0, 2.0]\n"
    )
    assert main(["transient", "--config", str(cfg)]) == 3


def test_unreachable_sweep_floor_exits_three(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("parameters:\n  systems: 3\n  lambda_floor: 1.0e9\n  floor_tries: 1\n")
    args = ["lambda-sweep", "--seed", "1", "--config", str(cfg), "--threads", "2", "--out", str(tmp_path / "out")]
    assert main(args) == 3
    assert "no draw with lambda_min >= 1000000000.0 for system 0" in capsys.readouterr().err


def test_blocked_output_exits_four(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    assert main(["transient", "--seed", "1", "--out", str(blocker)]) == 4


@pytest.mark.parametrize("value", ["5", "[runs]", "{dir: runs}"], ids=["number", "list", "mapping"])
def test_non_path_output_dir_exits_two(tmp_path, capsys, monkeypatch, value):
    # a number once escaped from the output writer as a TypeError (exit 1)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"seed: 0\noutput_dir: {value}\n")
    assert main(["transient", "--config", str(cfg)]) == 2
    assert "output_dir must be a path" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.yaml"]


@pytest.mark.parametrize(("args", "code"), [(["--seed", "0"], 0), ([], 2)], ids=["seeded", "no_seed"])
def test_python_dash_m_runs_the_cli(tmp_path, args, code):
    # python -m crossolve runs the same CLI as the installed crossolve script
    env = dict(os.environ, PYTHONPATH=str(Path(crossolve.__file__).parents[1]))
    argv = [sys.executable, "-m", "crossolve", "transient", "--out", str(tmp_path / "out"), *args]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert (tmp_path / "out" / "records.csv").exists() == (code == 0)
    assert ("scenario: transient" in proc.stdout) == (code == 0)


def test_threads_flag(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["lambda-sweep", "--seed", "2", "--out"]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("parameters:\n  systems: 3\n  vectors_per_system: 2\n")
    assert main(args + [str(out1), "--config", str(cfg), "--threads", "1"]) == 0
    assert main(args + [str(out2), "--config", str(cfg), "--threads", "4"]) == 0
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()


def test_invert_subcommand_maps_to_inversion(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("parameters:\n  n: 3\n")
    code = main(["invert", "--seed", "7", "--config", str(cfg), "--out", str(tmp_path / "inv")])
    assert code == 0
    text = (tmp_path / "inv" / "records.csv").read_text()
    assert ",inversion," in text
    assert (tmp_path / "inv" / "inverse.csv").exists()


@pytest.mark.parametrize(
    "config",
    ["seed: zero\n", "seed: 1.7\n", "seed: 1\nthreads: two\n", "seed: 1\nthreads: 1.5\n"],
    ids=["seed_word", "seed_float", "threads_word", "threads_float"],
)
def test_non_integer_seed_or_threads_exits_two(tmp_path, capsys, config):
    # a float once ran truncated (seed 1.7 as seed 1) and a word died with a ValueError
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config + f"output_dir: {tmp_path / 'out'}\n")
    assert main(["transient", "--config", str(cfg)]) == 2
    assert "integer" in capsys.readouterr().err
    assert not (tmp_path / "out" / "records.csv").exists()


@pytest.mark.parametrize(
    "command,parameter,value",
    [
        pytest.param("sparse-suite", "systems", "0", id="sparse-suite-systems"),
        pytest.param("sparse-suite", "s", "0", id="sparse-suite-s"),
        pytest.param("sparse-suite", "n_range", "[0, 30]", id="sparse-suite-n_range"),
        pytest.param("sparse-suite", "n_range", "[20.9, 30.2]", id="sparse-suite-n_range-fraction"),
        pytest.param("lambda-sweep", "systems", "0", id="lambda-sweep-systems"),
        pytest.param("lambda-sweep", "vectors_per_system", "0", id="lambda-sweep-vectors_per_system"),
        pytest.param("lambda-sweep", "floor_tries", "0", id="lambda-sweep-floor_tries"),
        pytest.param("lambda-sweep", "floor_tries", "2.7", id="lambda-sweep-floor_tries-fraction"),
        pytest.param("scaling", "vectors_per_size", "0", id="scaling-vectors_per_size"),
        pytest.param("scaling", "sizes", "[0, 10, 30, 100]", id="scaling-sizes"),
        pytest.param("scaling", "sizes", "[3.5, 10, 30, 100]", id="scaling-sizes-fraction"),
        pytest.param("invert", "n", "0", id="invert-n"),
        pytest.param("invert", "n", "4.5", id="invert-n-fraction"),
        pytest.param("estimate", "s", "0", id="estimate-s"),
        pytest.param("estimate", "s", "2.5", id="estimate-s-fraction"),
        pytest.param("estimate", "sizes", "[10.5, 100]", id="estimate-sizes-fraction"),
    ],
)
def test_zero_count_exits_two_before_solving(tmp_path, capsys, command, parameter, value):
    # a zero once died inside a task (TypeError, ValueError) or exited 3 from
    # sparse_pd or the inversion's solve, and a fraction was truncated
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"seed: 0\noutput_dir: {tmp_path / 'out'}\nparameters:\n  {parameter}: {value}\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert f"{parameter} must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "records.csv").exists()


@pytest.mark.parametrize("parameter", ["num_levels: 1", "ratio: 1.0", "noise_fraction: -0.1"])
@pytest.mark.parametrize(
    "command,others",
    [
        pytest.param("scaling", "sizes: [3, 10, 30, 100]\n  vectors_per_size: 2", id="scaling"),
        pytest.param("invert", "noisy: false", id="invert-noiseless"),
    ],
)
def test_bad_device_parameter_exits_two_before_solving(tmp_path, capsys, monkeypatch, command, parameter, others):
    # scaling once built its device policy in each rram task, after the n = 3
    # ideal block had run (and with threads > 1 in a worker process), and a
    # noiseless inversion never built it
    calls = []
    for module in (crossolve.experiments, crossolve.dynamics):
        monkeypatch.setattr(module, "simulate", lambda *args, run=module.simulate: calls.append(1) or run(*args))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"seed: 0\noutput_dir: {tmp_path / 'out'}\nparameters:\n  {parameter}\n  {others}\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert parameter.split(":")[0] in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out" / "records.csv").exists()


@pytest.mark.parametrize(
    "parameters,message",
    [
        pytest.param("sizes: [5]", "s must satisfy 1 <= s <= n", id="s-above-n"),
        pytest.param("lambda_min: 5.0", "need lambda_max >= lambda_min", id="lambda_min-above-lambda_max"),
        pytest.param("epsilon: 2.0", "epsilon must lie in (0, 1)", id="epsilon-above-one"),
    ],
)
def test_inconsistent_estimate_parameters_exit_two(tmp_path, capsys, parameters, message):
    # each once exited 3 with the DomainError of the estimates' own checks
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"seed: 0\noutput_dir: {tmp_path / 'out'}\nparameters:\n  {parameters}\n")
    assert main(["estimate", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "records.csv").exists()


@pytest.mark.parametrize("parameters", ["n_range: [20]", "n_range: [20, 30, 40]", "lambda_range: [0.5]"])
def test_range_of_wrong_length_exits_two(tmp_path, capsys, parameters):
    # each once escaped as a ValueError traceback (exit 1) from unpacking the range
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"seed: 0\noutput_dir: {tmp_path / 'out'}\nparameters:\n  {parameters}\n  systems: 2\n")
    assert main(["sparse-suite", "--config", str(cfg)]) == 2
    assert f"{parameters.split(':')[0]} must hold 2 entries" in capsys.readouterr().err
    assert not (tmp_path / "out" / "records.csv").exists()


@pytest.mark.parametrize("beta", ["0.0", "-1.0", ".nan"])
@pytest.mark.parametrize(
    "command,others",
    [
        pytest.param("scaling", "sizes: [3, 10, 30, 100]\n  vectors_per_size: 2", id="scaling"),
        pytest.param("invert", "noisy: true", id="invert"),
    ],
)
def test_nonpositive_beta_exits_two_before_solving(tmp_path, capsys, monkeypatch, command, others, beta):
    # beta 0 once exited 3 with covariance_matrix's DomainError from inside
    # the first task (with threads > 1, from a worker process)
    calls = []
    for module in (crossolve.experiments, crossolve.dynamics):
        monkeypatch.setattr(module, "simulate", lambda *args, run=module.simulate: calls.append(1) or run(*args))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"seed: 0\noutput_dir: {tmp_path / 'out'}\nparameters:\n  beta: {beta}\n  {others}\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert "beta must be positive" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out" / "records.csv").exists()


@pytest.mark.parametrize(
    "command,parameter,value",
    [
        pytest.param("scaling", "sizes", "100", id="scaling-sizes"),
        pytest.param("estimate", "sizes", "100", id="estimate-sizes"),
        pytest.param("sparse-suite", "n_range", "50", id="sparse-suite-n_range"),
        pytest.param("sparse-suite", "lambda_range", "0.5", id="sparse-suite-lambda_range"),
        pytest.param("scaling", "variants", "ideal", id="scaling-variants"),
    ],
)
def test_scalar_for_a_list_parameter_exits_two(tmp_path, capsys, command, parameter, value):
    # a number once escaped as a TypeError (exit 1) and a word ran as its
    # letters ("unknown scaling variant 'i'")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"seed: 0\noutput_dir: {tmp_path / 'out'}\nparameters:\n  {parameter}: {value}\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert f"{parameter} must be a list" in capsys.readouterr().err
    assert not (tmp_path / "out" / "records.csv").exists()


# Parameters no run of these scenarios varied: only the transient reads l0 and
# slew_rate, b is always normalized or always not, CG runs to epsilon,
# inversion's significance cut is fixed, g_max, which only rescales the
# conductances a matrix is programmed to, is fixed at 1e-4 S, and
# lambda_sweep always draws 3 x 3 matrices at g0 = 100 uS, 64 draws an attempt.
_REMOVED_KNOBS = [
    *((command, key) for command in ("lambda-sweep", "scaling", "sparse-suite", "invert") for key in ("l0", "slew_rate")),
    ("lambda-sweep", "normalize_b"),
    ("scaling", "normalize_b"),
    ("sparse-suite", "normalize_b"),
    ("sparse-suite", "cg_tol"),
    ("invert", "significant_fraction"),
    ("scaling", "g_max"),
    ("invert", "g_max"),
    ("lambda-sweep", "dim"),
    ("lambda-sweep", "g0"),
    ("lambda-sweep", "max_tries"),
]


@pytest.mark.parametrize(("command", "key"), _REMOVED_KNOBS)
def test_parameter_no_run_varies_is_unknown(tmp_path, capsys, command, key):
    scenario = _SUBCOMMANDS[command][0]
    assert key not in scenario_defaults(scenario)
    with pytest.raises(ConfigError, match=key):
        run_experiment(ExperimentSpec(scenario, seed=1, output_dir=tmp_path / "run", parameters={key: 1.0}))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"seed: 1\nparameters:\n  {key}: 1.0\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "cli")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,parameters,message",
    [
        *(
            pytest.param(command, "epsilon: abc", "epsilon must be a number", id=f"{command}-epsilon-word")
            for command in ("transient", "lambda-sweep", "scaling", "sparse-suite", "estimate")
        ),
        pytest.param("transient", 'epsilon: "0.01"', "epsilon must be a number", id="transient-epsilon-quoted"),
        pytest.param("transient", "gbw: true", "gbw must be a number", id="transient-gbw-bool"),
        pytest.param("scaling", "ratio: abc", "ratio must be a number", id="scaling-ratio-word"),
        pytest.param("scaling", "num_levels: abc", "num_levels must be an integer", id="scaling-num_levels-word"),
        pytest.param("sparse-suite", "lambda_range: [0.1, x]", "lambda_range entries", id="sparse-suite-lambda_range-word"),
        pytest.param("transient", "a: [[1, x]]", "a must be a square matrix", id="transient-a-word-entry"),
        pytest.param("transient", "a: 3", "a must be a square matrix", id="transient-a-scalar"),
        pytest.param("transient", "a: [[1.0, 0.5]]", "a must be a square matrix", id="transient-a-not-square"),
        pytest.param("transient", "a: [[1.0, 0.5], [0.5]]", "a must be a square matrix", id="transient-a-ragged"),
        pytest.param("transient", "b: [1.0, 2.0]", "b must be a list of 3 numbers", id="transient-b-length"),
        pytest.param("transient", "b: [1.0, x, 2.0]", "b must be a list of 3 numbers", id="transient-b-word-entry"),
        pytest.param(
            "transient",
            'include_gain_correction: "false"',
            "include_gain_correction must be true or false",
            id="transient-include_gain_correction-quoted",
        ),
        pytest.param("invert", 'noisy: "false"', "noisy must be true or false", id="invert-noisy-quoted"),
    ],
)
def test_malformed_parameter_exits_two_before_solving(tmp_path, capsys, command, parameters, message):
    # a word once escaped as a ValueError traceback (exit 1), a malformed
    # transient a or b was reported as a domain failure (exit 3), and a
    # quoted "false" ran as true
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"seed: 0\noutput_dir: {tmp_path / 'out'}\nparameters:\n  {parameters}\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "records.csv").exists()


@pytest.mark.parametrize(
    ("command", "flag"),
    [("transient", "--epsilon"), ("transient", "--gbw"), ("lambda-sweep", "--gbw")],
)
def test_infinite_epsilon_or_gbw_exits_two(tmp_path, capsys, command, flag):
    # an infinite epsilon once hung the run in its squared-threshold search;
    # an infinite gbw gave dt = 0, a ZeroDivisionError traceback (exit 1) in
    # the transient and tau = 0 on every lambda_sweep record (exit 0)
    out = tmp_path / "out"
    assert main([command, "--seed", "0", flag, "inf", "--out", str(out)]) == 2
    assert "must be positive and finite, got inf" in capsys.readouterr().err
    assert not (out / "records.csv").exists()


def test_exponent_without_dot_or_sign_is_a_number(tmp_path):
    # YAML 1.1 reads 1e-2 and 1.0e9 as text; parameters take numbers only
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"seed: 0\noutput_dir: {tmp_path / 'out'}\nparameters:\n  epsilon: 1e-2\n  gbw: 1.0e8\n")
    assert main(["transient", "--config", str(cfg)]) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "epsilon: 0.01\n" in summary and "gbw: 100000000\n" in summary


@pytest.mark.parametrize(
    "parameters",
    [
        "a: [[1.0, -0.5], [0.2, 1.0]]\n  b: [1.0, 2.0]",
        "a: [[2.0, 0.5], [0.5, 1.0]]\n  b: [1.0, 1.0]\n  epsilon: 1.0e-5\n  include_gain_correction: true",
    ],
    ids=["negative-entry", "below-gain-floor"],
)
def test_well_formed_but_unsolvable_transient_exits_three(tmp_path, parameters):
    # a negative conductance, and an epsilon under the finite-gain floor,
    # which once ran to max_steps and exited 0 with a timeout
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"seed: 0\noutput_dir: {tmp_path / 'out'}\nparameters:\n  {parameters}\n")
    assert main(["transient", "--config", str(cfg)]) == 3
