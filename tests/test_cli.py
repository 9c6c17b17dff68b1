import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from augustin_lab import fisher
from augustin_lab.cli import (
    ExperimentConfig,
    _build_market,
    _build_schedule,
    main,
    validate_config,
)
from augustin_lab.errors import NotConverged
from augustin_lab.fisher import FisherMarket


def read_csv_without_timing(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    drop = [i for i, name in enumerate(header) if name == "wall_time_ms"]
    return [[c for i, c in enumerate(row) if i not in drop] for row in rows]


class TestValidateConfig:
    def test_default_augustin_config_is_clean(self):
        assert validate_config(ExperimentConfig(task="augustin")) == []

    def test_capacity_order_out_of_range(self):
        cfg = ExperimentConfig(task="capacity", alpha=0.3)
        assert any("1/2" in v for v in validate_config(cfg))

    def test_fisher_seller_bound_below_elasticity(self):
        cfg = ExperimentConfig(task="fisher", rho_max=0.8, rho_hat=0.7)
        assert validate_config(cfg)

    def test_unknown_task(self):
        assert validate_config(ExperimentConfig(task="nope"))

    def test_unit_order_rejected(self):
        assert validate_config(ExperimentConfig(task="augustin", alpha=1.0))

    def test_grid_resolution_upper_bound(self):
        # the grid is held whole in memory, so a huge resolution is refused
        # before it is built
        assert validate_config(ExperimentConfig(task="divergence_demo", grid_resolution=2000)) == []
        cfg = ExperimentConfig(task="divergence_demo", grid_resolution=2001)
        assert validate_config(cfg) == ["grid_resolution must lie in [3, 2000]"]


class TestCounterexample:
    def test_reproduces_printed_values(self, tmp_path, capsys):
        code = main(["counterexample", "--out", str(tmp_path / "ce")])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        manifest = json.loads((tmp_path / "ce" / "manifest.json").read_text())
        assert manifest["results"]["pass"] is True
        assert abs(manifest["results"]["image_distance"] - 1.4366) <= 1e-3
        assert abs(manifest["results"]["ratio_bound"] - 1.3668) <= 1e-3
        assert "counterexample.csv" in manifest["files"]

    def test_runs_quickly(self, tmp_path):
        from time import perf_counter

        began = perf_counter()
        assert main(["counterexample", "--out", str(tmp_path / "ce")]) == 0
        assert perf_counter() - began < 1.0


class TestDivergenceDemo:
    def test_emits_error_curves(self, tmp_path):
        out = tmp_path / "demo"
        code = main(
            [
                "divergence-demo",
                "--out",
                str(out),
                "--iters",
                "15",
                "--polyak-steps",
                "60",
                "--grid-resolution",
                "60",
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for alpha in ("0.2", "0.4"):
            info = manifest["results"][alpha]
            assert info["steps_recorded"] == 15
            assert info["polyak_best"] <= info["proposed_best"]
            assert info["separation"] == info["proposed_final"] - info["polyak_best"]
        errors = list(csv.reader(open(out / "demo_alpha0p2_errors.csv")))
        assert errors[0] == ["step", "opt_error", "iterate_error"]
        assert len(errors) == 17  # header + step 0..15


class TestExperimentTasks:
    def test_augustin_task_outputs_and_determinism(self, tmp_path):
        args = [
            "augustin",
            "--n", "3",
            "--d", "4",
            "--alpha", "1.5",
            "--iters", "8",
            "--seed", "11",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        name = "augustin_alpha1p5_trace.csv"
        assert read_csv_without_timing(out1 / name) == read_csv_without_timing(out2 / name)
        errors1 = (out1 / "augustin_alpha1p5_errors.csv").read_bytes()
        errors2 = (out2 / "augustin_alpha1p5_errors.csv").read_bytes()
        assert errors1 == errors2
        manifest = json.loads((out1 / "manifest.json").read_text())
        listed = set(manifest["files"])
        actual = {p.name for p in out1.iterdir()} - {"manifest.json"}
        assert listed == actual  # manifest hashes every output file

    def test_classical_task(self, tmp_path):
        out = tmp_path / "cls"
        code = main(
            ["classical", "--n", "3", "--d", "4", "--alpha", "0.8", "--iters", "6", "--out", str(out)]
        )
        assert code == 0
        assert (out / "classical_alpha0p8_trace.csv").exists()

    def test_capacity_task(self, tmp_path):
        out = tmp_path / "cap"
        code = main(
            [
                "capacity",
                "--n", "3",
                "--d", "2",
                "--alpha", "0.8",
                "--outer-steps", "5",
                "--seed", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.reader(open(out / "capacity_trace.csv")))
        assert rows[0] == ["step", "g_hat", "gap_certificate", "inner_iters", "wall_time_ms"]
        assert len(rows) == 7  # header + states 1..6

    def test_capacity_task_default_order(self, tmp_path):
        # the shared default order 1.5 lies outside capacity's (1/2, 1)
        out = tmp_path / "cap"
        code = main(["capacity", "--n", "3", "--d", "2", "--outer-steps", "3", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 0.8

    def test_capacity_manifest_counts_inner_sweeps(self, tmp_path):
        out = tmp_path / "cap"
        code = main(["capacity", "--n", "3", "--d", "2", "--outer-steps", "4", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(open(out / "capacity_trace.csv")))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["inner_sweeps"] == sum(int(r["inner_iters"]) for r in rows)

    def test_fisher_task(self, tmp_path):
        out = tmp_path / "fish"
        code = main(
            [
                "fisher",
                "--buyers", "3",
                "--goods", "4",
                "--epochs", "6",
                "--schedule", "round-robin",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = list(csv.reader(open(out / "fisher_trace.csv")))
        assert rows[0] == ["round", "d_T_to_eq", "max_excess_demand", "epoch_index"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["epochs_completed"] >= 6
        assert manifest["results"]["equilibrium_residual"] <= 1e-10
        cfg = ExperimentConfig(
            task="fisher", buyers=3, goods=4, epochs=6, schedule="round-robin", seed=5
        )
        market = _build_market(cfg)
        written = json.loads((out / "market.json").read_text())
        back = FisherMarket.create(
            written["valuations"], written["budgets"], written["rho"], written["rho_hat"]
        )
        for name in ("valuations", "budgets", "elasticities", "seller_bounds"):
            assert np.abs(getattr(back, name) - getattr(market, name)).max() <= 1e-15
        rounds = json.loads((out / "schedule.json").read_text())["rounds"]
        assert [tuple(r) for r in rounds] == list(_build_schedule(cfg, 4).rounds)

    @pytest.mark.parametrize("schedule", ["synchronous", "random"])
    def test_fisher_schedules(self, schedule, tmp_path):
        out = tmp_path / schedule
        flags = ["--buyers", "3", "--goods", "4", "--epochs", "3", "--schedule", schedule]
        assert main(["fisher", *flags, "--out", str(out)]) == 0
        cfg = ExperimentConfig(task="fisher", buyers=3, goods=4, epochs=3, schedule=schedule)
        rounds = json.loads((out / "schedule.json").read_text())["rounds"]
        assert [tuple(r) for r in rounds] == list(_build_schedule(cfg, 4).rounds)
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert results["rounds"] == len(rounds)
        assert results["epochs_completed"] >= 3
        trace = list(csv.reader(open(out / "fisher_trace.csv")))
        assert int(trace[-1][3]) == results["epochs_completed"]


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 3, "d": 4, "alpha": 3.0, "iters": 5, "seed": 9}))
        out = tmp_path / "run"
        code = main(["augustin", "--config", str(cfg_path), "--alpha", "1.5", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 1.5  # flag wins
        assert manifest["config"]["n"] == 3

    def test_bad_config_key_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert main(["augustin", "--config", str(cfg_path)]) == 2

    def test_invalid_parameters_exit_2(self, tmp_path):
        assert main(["capacity", "--alpha", "0.3", "--out", str(tmp_path / "x")]) == 2

    def test_numerical_failure_exit_3(self, tmp_path, monkeypatch):
        def not_converged(market):
            raise NotConverged("equilibrium not reached within MAX_NEWTON_STEPS=200")

        monkeypatch.setattr(fisher, "equilibrium_prices", not_converged)
        code = main(["fisher", "--buyers", "3", "--goods", "4", "--out", str(tmp_path / "f")])
        assert code == 3

    @pytest.mark.parametrize(
        "flags",
        [
            ["--buyers", "3", "--goods", "4", "--rho-min", "0.9", "--rho-max", "0.99",
             "--rho-hat", "0.999", "--epochs", "2"],
            ["--epochs", "3", "--rho-max", "0.99", "--rho-hat", "0.995"],
        ],
        ids=["rho-hat-0.999", "rho-hat-0.995"],
    )
    def test_near_unit_market_prices(self, flags, tmp_path):
        # seller bounds next to 1 slow the tatonnement, not the Newton oracle
        out = tmp_path / "f"
        assert main(["fisher", *flags, "--out", str(out)]) == 0
        written = {"market.json", "schedule.json", "fisher_trace.csv", "manifest.json"}
        assert {path.name for path in out.iterdir()} == written
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["equilibrium_residual"] <= 1e-10

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AUGUSTIN_LAB_OUT", str(tmp_path / "env_out"))
        code = main(["counterexample"])
        assert code == 0
        assert (tmp_path / "env_out" / "counterexample" / "manifest.json").exists()

    @pytest.mark.parametrize("task", ["augustin", "capacity", "fisher"])
    def test_negative_seed_exits_2(self, task, tmp_path, capsys):
        assert main([task, "--seed", "-1", "--out", str(tmp_path / "x")]) == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "payload, named",
        [({"n": "3"}, "'n'"), ({"alpha": True}, "'alpha'"), ({"out": 7}, "'out'"), ([3], "object")],
        ids=["str-for-int", "bool-for-float", "int-for-str", "not-an-object"],
    )
    def test_wrongly_typed_config_value_exits_2(self, payload, named, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main(["augustin", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, payload, message",
        [
            ("augustin", {"alpha": math.inf}, "order inf outside (0,1)u(1,inf)"),
            ("capacity", {"outer_steps": 0}, "outer_steps must be >= 1"),
            ("capacity", {"inner_eps": 0.0}, "inner_eps must be positive"),
            ("capacity", {"inner_eps": math.inf}, "inner_eps must be positive and finite"),
            ("fisher", {"rho_min": 0.5, "rho_max": 0.4}, "need 0 < rho_min <= rho_max < 1"),
            ("fisher", {"rho_hat": 0.5}, "seller bound 0.5 must lie in [max elasticity, 1)"),
            ("fisher", {"schedule": "weekly"}, "unknown schedule 'weekly'"),
            ("fisher", {"epochs": 0}, "epochs must be >= 1"),
            ("fisher", {"goods": 0}, "buyers and goods must be >= 1"),
            ("divergence-demo", {"polyak_steps": 0}, "polyak_steps must be >= 1"),
            ("divergence-demo", {"grid_resolution": 2}, "grid_resolution must lie in [3, 2000]"),
        ],
        ids=[
            "alpha_inf", "outer_steps", "inner_eps", "inner_eps_inf", "rho_order", "rho_hat",
            "schedule", "epochs", "goods", "polyak_steps", "grid_resolution",
        ],
    )
    def test_task_checks_exit_2(self, task, payload, message, tmp_path, capsys):
        # the schedule reaches these checks only from a file: its flag has choices
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        assert main([task, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_integer_config_value_stands_for_a_float(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 2, "d": 2, "alpha": 3, "iters": 2}))
        out = tmp_path / "run"
        assert main(["augustin", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert type(manifest["config"]["alpha"]) is float  # as with --alpha 3
