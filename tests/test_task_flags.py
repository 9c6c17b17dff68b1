"""Each CLI task takes only the flags and config keys of the fields it reads,
and its manifest echoes only those."""

import importlib.util
import json
from dataclasses import fields
from pathlib import Path

import pytest

from augustin_lab.cli import TASKS, ExperimentConfig, build_parser, main, validate_config

READS = {
    "augustin": {"seed", "n", "d", "alpha", "iters"},
    "classical": {"seed", "n", "d", "alpha", "iters"},
    "capacity": {"seed", "n", "d", "alpha", "outer_steps", "inner_eps"},
    "fisher": {"seed", "buyers", "goods", "rho_min", "rho_max", "rho_hat", "epochs", "schedule"},
    "counterexample": set(),
    "divergence-demo": {"iters", "polyak_steps", "grid_resolution"},
}


def subparsers():
    parser = build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def test_subcommands_are_the_rows_of_the_task_table():
    assert set(subparsers()) == {task.replace("_", "-") for task in TASKS}


@pytest.mark.parametrize("command", sorted(READS))
def test_options_are_config_out_and_the_fields_read(command):
    options = {a.dest for a in subparsers()[command]._actions if a.dest != "help"}
    assert options == {"config", "out"} | READS[command]


def test_every_config_field_is_read_by_some_task():
    read = set().union(*(spec.reads for spec in TASKS.values()))
    assert {f.name for f in fields(ExperimentConfig)} == read | {"task", "out"}


@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--alpha", "9"],
        ["fisher", "--alpha", "0.5"],
        ["capacity", "--iters", "5"],
        ["augustin", "--residual-tol", "1e-3"],
    ],
)
def test_a_flag_the_task_does_not_read_exits_2(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_a_config_key_the_task_does_not_read_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"buyers": 3, "alpha": 0.5}))
    assert main(["fisher", "--config", str(cfg_path), "--out", str(tmp_path / "f")]) == 2
    assert "['alpha']" in capsys.readouterr().err


def test_capacity_manifest_echoes_its_own_fields(tmp_path):
    out = tmp_path / "cap"
    assert main(["capacity", "--n", "3", "--d", "2", "--outer-steps", "2", "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert set(config) == {"task", "out"} | READS["capacity"]
    assert config["alpha"] == 0.8 and config["out"] == str(out)


def test_generic_checks_apply_only_where_read():
    assert validate_config(ExperimentConfig(task="fisher", n=0, d=0, iters=0)) == []
    assert validate_config(ExperimentConfig(task="counterexample", n=0, iters=0)) == []
    assert validate_config(ExperimentConfig(task="capacity", iters=0)) == []
    assert validate_config(ExperimentConfig(task="divergence_demo", iters=0))
    assert validate_config(ExperimentConfig(task="classical", d=0))


def paper_suite():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_paper_suite.py"
    spec = importlib.util.spec_from_file_location("run_paper_suite", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("small", [True, False])
def test_every_paper_suite_command_parses(small, tmp_path):
    parser = build_parser()
    suite = paper_suite().commands(tmp_path, small, seed=0)
    assert {argv[0] for argv in suite} == set(READS)
    for argv in suite:
        assert parser.parse_args(argv).command == argv[0]
