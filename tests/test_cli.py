"""CLI: config parsing, command outputs, exit codes, reproducibility."""

import contextlib
import dataclasses
import hashlib
import json
import signal
import warnings
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sftreturns import (
    NumericError, cli, gibbs_chain, oracle, return_op, sample_return_times, system, thermo,
    variance_report,
)
from sftreturns.deviations import TWO_ROUTE_REL
from sftreturns.montecarlo import EmpiricalStats, normal_cdf
from sftreturns.cli import EXIT_CONFIG, EXIT_DOMAIN, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from conftest import count_forks, force_processes, random_instance
from references import rate_function


def full2_config(**overrides):
    cfg = {
        "system": {
            "n_symbols": 2,
            "transitions": [[1, 1], [1, 1]],
            "potential": {"depth": 1, "values": [{"word": [0], "value": 0.0}, {"word": [1], "value": 0.0}]},
            "target": [0],
        },
        "alpha_grid": {"min": -2.0, "max": 0.4, "count": 9},
        "u_grid": {"min": 1.2, "max": 4.0, "count": 8},
        "simulation": {
            "seed": 20240817,
            "n_returns": 12,
            "n_samples": 4000,
            "horizon": 600,
            "workers": 1,
            "tails": [{"u": 0.8, "side": "upper"}],
        },
    }
    cfg.update(overrides)
    return cfg


def golden_config():
    return {
        "system": {
            "n_symbols": 2,
            "transitions": [[1, 1], [1, 0]],
            "potential": {"depth": 1, "values": []},
            "target": [1],
        },
        "simulation": {"seed": 7, "n_returns": 10, "n_samples": 4000, "horizon": 500,
                       "tails": [{"u": 1.0, "side": "upper"}]},
    }


def write_config(tmp_path: Path, cfg: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert run(["analyze", "--config", tmp_path / "nope.json"]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(["analyze", "--config", path]) == EXIT_CONFIG

    def test_row_length_cites_index(self, tmp_path, capsys):
        cfg = full2_config()
        cfg["system"]["transitions"] = [[1, 1], [1]]
        path = write_config(tmp_path, cfg)
        assert run(["analyze", "--config", path, "--out", tmp_path]) == EXIT_CONFIG
        assert "row 1" in capsys.readouterr().err

    def test_nan_potential_rejected(self, tmp_path):
        cfg = full2_config()
        cfg["system"]["potential"]["values"][0]["value"] = float("nan")
        path = write_config(tmp_path, cfg)
        assert run(["analyze", "--config", path, "--out", tmp_path]) == EXIT_CONFIG

    def test_improper_target_rejected(self, tmp_path):
        cfg = full2_config()
        cfg["system"]["target"] = [0, 1]
        path = write_config(tmp_path, cfg)
        assert run(["analyze", "--config", path, "--out", tmp_path]) == EXIT_CONFIG

    @pytest.mark.parametrize("depth", [0, -3])
    def test_nonpositive_depth_rejected(self, tmp_path, capsys, depth):
        cfg = full2_config()
        cfg["system"]["potential"] = {"depth": depth, "values": []}
        path = write_config(tmp_path, cfg)
        assert run(["analyze", "--config", path, "--out", tmp_path]) == EXIT_CONFIG
        assert f"potential depth must be >= 1, got {depth}" in capsys.readouterr().err

    def test_non_integer_target_names_block(self, tmp_path, capsys):
        cfg = full2_config()
        cfg["system"]["target"] = ["a"]
        path = write_config(tmp_path, cfg)
        assert run(["analyze", "--config", path, "--out", tmp_path]) == EXIT_CONFIG
        assert "configuration error: 'system' block: invalid literal for int()" in capsys.readouterr().err

    @pytest.mark.parametrize("block, value, message", [
        ("system", [], "system must be a JSON object, got array"),
        ("potential", "x", "potential must be a JSON object, got string"),
        ("values", {"word": [0]}, "potential values must be a JSON array, got object"),
        ("value", 3, "potential value 0 must be a JSON object, got number"),
        ("simulation", "abc", "simulation must be a JSON object, got string"),
        ("tails", "x", "tails must be a JSON array, got string"),
        ("tail", None, "tails entry 0 must be a JSON object, got null"),
    ])
    def test_block_of_the_wrong_json_type_names_it(self, tmp_path, capsys, block, value, message):
        cfg = full2_config()
        where = {
            "system": (cfg, "system"),
            "potential": (cfg["system"], "potential"),
            "values": (cfg["system"]["potential"], "values"),
            "value": (cfg["system"]["potential"]["values"], 0),
            "simulation": (cfg, "simulation"),
            "tails": (cfg["simulation"], "tails"),
            "tail": (cfg["simulation"]["tails"], 0),
        }
        parent, key = where[block]
        parent[key] = value
        path = write_config(tmp_path, cfg)
        assert run(["simulate", "--config", path, "--out", tmp_path, "--seed", 3]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_degenerate_system_is_numeric_failure(self, tmp_path):
        # pure 2-cycle: deterministic returns, variance not strictly positive
        cfg = full2_config()
        cfg["system"]["transitions"] = [[0, 1], [1, 0]]
        path = write_config(tmp_path, cfg)
        from sftreturns.cli import EXIT_NUMERIC

        assert run(["analyze", "--config", path, "--out", tmp_path]) == EXIT_NUMERIC

    def test_default_potential_notice(self, tmp_path):
        cfg = full2_config()
        cfg["system"]["potential"]["values"] = []
        path = write_config(tmp_path, cfg)
        assert run(["analyze", "--config", path, "--out", tmp_path]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert any("defaulted" in note for note in report["notices"])


class TestAnalyze:
    def test_scalars_match_closed_forms(self, tmp_path):
        path = write_config(tmp_path, full2_config())
        assert run(["analyze", "--config", path, "--out", tmp_path]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        scalars = report["scalars"]
        assert scalars["pressure"]["value"] == pytest.approx(np.log(2.0), abs=1e-12)
        assert scalars["alpha0"]["value"] == pytest.approx(np.log(2.0), abs=1e-12)
        assert scalars["mu_target"]["value"] == pytest.approx(0.5, abs=1e-12)
        assert scalars["sigma2"]["value"] == pytest.approx(2.0, abs=1e-9)
        assert scalars["minimal_return_time"]["value"] == 1

    def test_csv_schemas(self, tmp_path):
        path = write_config(tmp_path, full2_config())
        run(["analyze", "--config", path, "--out", tmp_path])
        scgf_lines = (tmp_path / "scgf.csv").read_text().strip().splitlines()
        assert scgf_lines[0] == "alpha,psi,psi1,psi2"
        assert len(scgf_lines) == 10
        first = scgf_lines[1].split(",")
        assert len(first) == 4
        assert float(first[1]) == pytest.approx(-2.0 - np.log(2.0 - np.exp(-2.0)), abs=1e-12)
        rate_lines = (tmp_path / "rate.csv").read_text().strip().splitlines()
        assert rate_lines[0] == "u,rate,alpha_star"

    def test_seventeen_digit_floats(self, tmp_path):
        path = write_config(tmp_path, full2_config())
        run(["analyze", "--config", path, "--out", tmp_path])
        row = (tmp_path / "scgf.csv").read_text().strip().splitlines()[1].split(",")
        value = float(row[1])
        assert f"{value:.17g}" == row[1]

    def test_grid_beyond_alpha0_is_domain_error(self, tmp_path, capsys):
        cfg = full2_config()
        cfg["alpha_grid"] = {"min": 0.0, "max": 0.8, "count": 5}
        path = write_config(tmp_path, cfg)
        assert run(["analyze", "--config", path, "--out", tmp_path]) == EXIT_DOMAIN
        assert "0.8" in capsys.readouterr().err

    def test_clip_grid_records_notice(self, tmp_path):
        cfg = full2_config()
        cfg["alpha_grid"] = {"min": 0.0, "max": 0.8, "count": 5}
        path = write_config(tmp_path, cfg)
        assert run(["analyze", "--config", path, "--out", tmp_path, "--clip-grid"]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert any("clipped" in n for n in report["notices"])
        lines = (tmp_path / "scgf.csv").read_text().strip().splitlines()
        assert len(lines) < 6


class TestSimulationCommands:
    def test_simulate_writes_histogram(self, tmp_path):
        path = write_config(tmp_path, full2_config())
        assert run(["simulate", "--config", path, "--out", tmp_path]) == EXIT_OK
        lines = (tmp_path / "returns_hist.csv").read_text().strip().splitlines()
        assert lines[0] == "value,count"
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 4000

    def test_clt_outputs(self, tmp_path):
        path = write_config(tmp_path, full2_config())
        assert run(["clt", "--config", path, "--out", tmp_path]) == EXIT_OK
        lines = (tmp_path / "clt.csv").read_text().strip().splitlines()
        assert lines[0] == "t,empirical_cdf,normal_cdf"
        assert len(lines) == 402
        report = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 <= report["clt"]["ks_statistic"] <= 1.0

    def test_samples_override(self, tmp_path):
        path = write_config(tmp_path, full2_config())
        run(["simulate", "--config", path, "--out", tmp_path, "--samples", "500"])
        lines = (tmp_path / "returns_hist.csv").read_text().strip().splitlines()
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 500


class TestValidate:
    @pytest.mark.parametrize("override", [None, "1"])
    def test_one_sample_is_rejected(self, tmp_path, capsys, override):
        # a sample variance needs two samples; with one, numpy warns and the verdicts read NaN
        cfg = full2_config()
        cfg["simulation"]["n_samples"] = 1 if override is None else 4000
        path = write_config(tmp_path, cfg)
        argv = ["validate", "--config", path, "--out", tmp_path]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv + ([] if override is None else ["--samples", override]))
        assert code == EXIT_CONFIG
        message = "validate command needs n_samples >= 2, got 1"
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert caught == []
        assert not (tmp_path / "report.json").exists()

    def test_passes_on_full2(self, tmp_path):
        path = write_config(tmp_path, full2_config())
        assert run(["validate", "--config", path, "--out", tmp_path]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        verdicts = {v["name"]: v for v in report["verdicts"]}
        assert all(v["passed"] for v in verdicts.values())
        assert "lambda_at_pressure" in verdicts
        # relative to sigma^2 = 2 on the full 2-shift
        assert verdicts["variance_two_routes"]["tolerance"] == TWO_ROUTE_REL * 2.0 == 2e-9
        assert any(v["kind"] == "stochastic" for v in report["verdicts"])
        for name in ("scgf.csv", "rate.csv", "clt.csv", "tails.csv"):
            assert (tmp_path / name).exists()

    def test_byte_identical_reruns_and_worker_invariance(self, tmp_path, monkeypatch):
        # validate once more in this process, then with the walk split across 2 and 4
        # processes; the config's "workers": 1 is not read
        path = write_config(tmp_path, full2_config())
        outs = []
        for processes in (1, 1, 2, 4):
            outs.append(tmp_path / f"run{len(outs)}")
            with monkeypatch.context() as patch:
                force_processes(patch, processes)
                forks = count_forks(patch)
                assert run(["validate", "--config", path, "--out", outs[-1]]) == EXIT_OK
            assert len(forks) == processes - 1
        for name in ("scgf.csv", "rate.csv", "clt.csv", "tails.csv"):
            ref = (outs[0] / name).read_bytes()
            assert all((out / name).read_bytes() == ref for out in outs[1:])
        # report.json names its files by their paths
        reports = [(out / "report.json").read_text(encoding="utf-8").replace(str(out), "OUT") for out in outs]
        assert reports[1:] == reports[:1] * 3

    def test_seed_override_changes_stochastic_but_not_verdicts(self, tmp_path):
        path = write_config(tmp_path, full2_config())
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run(["validate", "--config", path, "--out", out1]) == EXIT_OK
        assert run(["validate", "--config", path, "--out", out2, "--seed", "999"]) == EXIT_OK
        assert (out1 / "tails.csv").read_bytes() != (out2 / "tails.csv").read_bytes()
        assert (out1 / "scgf.csv").read_bytes() == (out2 / "scgf.csv").read_bytes()

    def test_golden_mean_validates(self, tmp_path):
        path = write_config(tmp_path, golden_config())
        assert run(["validate", "--config", path, "--out", tmp_path]) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["scalars"]["minimal_return_time"]["value"] == 2

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_one_variance_report_per_run(self, tmp_path, monkeypatch, command):
        calls = []

        def counting(op, chain, *args, **kwargs):
            calls.append(op)
            return variance_report(op, chain, *args, **kwargs)

        monkeypatch.setattr(cli, "variance_report", counting)
        path = write_config(tmp_path, golden_config())
        assert run([command, "--config", path, "--out", tmp_path]) == EXIT_OK
        assert len(calls) == 1


    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_one_operator_per_run(self, tmp_path, monkeypatch, command):
        # the variance report runs on the bundle's operator and chain
        builds = []

        def counting(self, recoded, original=return_op.ReturnOperator.__init__):
            builds.append(recoded)
            original(self, recoded)

        monkeypatch.setattr(return_op.ReturnOperator, "__init__", counting)
        path = write_config(tmp_path, dict(golden_config(), u_grid=[2.2, 3.0, 4.0]))
        assert run([command, "--config", path, "--out", tmp_path]) == EXIT_OK
        assert len(builds) == 1

    @pytest.mark.parametrize("command, laws", [("analyze", 0), ("validate", 1)])
    def test_first_return_laws_per_run(self, tmp_path, monkeypatch, command, laws):
        # the variance report needs no law; validate's oracle checks share one
        built = []

        def recording(law, validate_law=oracle._validate_law):
            built.append(law)
            return validate_law(law)

        monkeypatch.setattr(oracle, "_validate_law", recording)
        path = write_config(tmp_path, dict(golden_config(), u_grid=[2.2, 3.0, 4.0]))
        assert run([command, "--config", path, "--out", tmp_path]) == EXIT_OK
        assert len(built) == laws

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    @pytest.mark.parametrize("system", [
        # landing chain of {0, 1} periodic: the covariance series has only a Cesaro sum
        {"n_symbols": 3, "transitions": [[0, 0, 1], [1, 0, 0], [0, 1, 1]],
         "potential": {"depth": 1, "values": []}, "target": [0, 1]},
        # iid Geometric(0.03) returns to 0, sigma^2 = 1077.7...
        {"n_symbols": 2, "transitions": [[1, 1], [1, 1]],
         "potential": {"depth": 1, "values": [{"word": [0], "value": 0.0},
                                              {"word": [1], "value": float(np.log(0.97 / 0.03))}]},
         "target": [0]},
    ], ids=["periodic-landing", "geometric-large-variance"])
    def test_variance_routes_agree_on_hard_systems(self, tmp_path, command, system):
        cfg = {"system": system, "simulation": {
            "seed": 11, "n_returns": 25, "n_samples": 1000, "horizon": 200,
            "tails": [{"u": 1.0, "side": "upper"}]}}
        path = write_config(tmp_path, cfg)
        assert run([command, "--config", path, "--out", tmp_path]) == EXIT_OK
        scalars = json.loads((tmp_path / "report.json").read_text())["scalars"]
        sigma2 = scalars["sigma2"]["value"]
        assert abs(scalars["series_sigma2"]["value"] - sigma2) <= 1e-10 * sigma2

    def test_underflowing_complement_cycle_exits_numeric(self, tmp_path, capsys):
        cfg = {"system": {
            "n_symbols": 3, "transitions": [[1, 1, 0], [0, 0, 1], [1, 1, 0]],
            "potential": {"depth": 2, "values": [{"word": [2, 1], "value": -800.0}]},
            "target": [0]}}
        path = write_config(tmp_path, cfg)
        assert run(["analyze", "--config", path, "--out", tmp_path]) == EXIT_NUMERIC
        assert "restricted pressure lies below double range" in capsys.readouterr().err


def test_tail_count_and_exact_probability_share_one_cut(tmp_path):
    # n (1/mu + u) computes to 99.00000000000001 at n = 45, mu = 2/3, u = 0.7;
    # T = 99 is in the event on both sides of the z-test
    bundle = cli.build_bundle(cli.load_config(write_config(tmp_path, full2_config()), None, None))
    _ = bundle.variance  # built on the full 2-shift before the stub below
    bundle.op = SimpleNamespace(mu_target=2 / 3)
    samples = np.repeat([80, 98, 99, 100], [600, 200, 150, 50])
    values, freq = np.unique(samples, return_counts=True)
    stats = EmpiricalStats(samples=samples, n_returns=45, mean=float(samples.mean()),
                           variance=float(samples.var(ddof=1)), histogram=dict(zip(values, freq)), flags=())
    counts = np.arange(1000) % 7
    verdicts = cli.stochastic_checks(bundle, stats, counts, 1.0, [(0.7, "upper")])
    tail = {v["name"]: v for v in verdicts}["tail_count_upper_u=0.7"]
    assert tail["count"] == 200
    p_99 = oracle.return_time_law(bundle.chain, bundle.target, 45, 98)[1]  # P(T_45 >= 99)
    assert tail["expected"] == p_99 * 1000
    assert p_99 > oracle.return_time_law(bundle.chain, bundle.target, 45, 99)[1]


def small_gap_config(phi11):
    """The full 2-shift, target {0}, with phi(1, 1) = phi11: 5 returns, 200 samples, horizon 200."""
    values = [{"word": [0, 0], "value": 0.0}, {"word": [0, 1], "value": 0.0},
              {"word": [1, 0], "value": 0.0}, {"word": [1, 1], "value": phi11}]
    return {
        "system": {"n_symbols": 2, "transitions": [[1, 1], [1, 1]],
                   "potential": {"depth": 2, "values": values}, "target": [0]},
        "simulation": {"seed": 3, "n_returns": 5, "n_samples": 200, "horizon": 200},
    }


def test_small_gap_passes_the_relative_two_route_gate(tmp_path):
    # phi(1, 1) = 4: sigma^2 = 8.57e6, and the routes differ by 3.8e-6, 4.5e-13 of it;
    # the absolute 1e-6 gate failed this config with exit 5
    path = write_config(tmp_path, small_gap_config(4.0))
    assert run(["validate", "--config", path, "--out", tmp_path]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    verdict = {v["name"]: v for v in report["verdicts"]}["variance_two_routes"]
    assert verdict["passed"] and 1e-6 < verdict["residual"] < 1e-12 * report["scalars"]["sigma2"]["value"]
    assert verdict["tolerance"] == TWO_ROUTE_REL * report["scalars"]["sigma2"]["value"]


def test_smaller_gap_names_the_tail_that_missed_tol(tmp_path, capsys):
    # phi(1, 1) = 5: the untilted tail reaches tol, the tilted one does not by MAX_HORIZON
    path = write_config(tmp_path, small_gap_config(5.0))
    assert run(["validate", "--config", path, "--out", tmp_path]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    prefix = "numeric failure: first-return tail weighted by e^(alpha p) at alpha="
    assert err.startswith(prefix) and err.endswith(" after horizon 1000000; tol unreachable\n")
    assert float(err.split(" still ")[1].split()[0]) > 1e-12


def test_variancebis_skips_its_z_test_below_ten_expected_visits(tmp_path):
    # 4 samples over a horizon of 2 expect 4 visits on the full 2-shift; equal counts have
    # sample standard error 0, which the z-test divided by
    cfg = full2_config()
    cfg["simulation"].update(n_samples=4, horizon=2)
    bundle = cli.build_bundle(cli.load_config(write_config(tmp_path, cfg), None, None))
    stats = sample_return_times(bundle.chain, bundle.target, bundle.config.simulation)
    verdicts = {v["name"]: v for v in cli.stochastic_checks(bundle, stats, np.ones(4, dtype=int), 0.0, [])}
    verdict = verdicts["variancebis"]
    assert verdict["passed"] and "z_score" not in verdict
    assert verdict["note"] == "expected visits 4.00 < 10; z-test skipped"
    assert verdict["estimate"] == 0.0 and verdict["predicted"] == pytest.approx(0.25, rel=1e-12)
    # 20 samples expect 20 visits, and the z-test runs
    cfg["simulation"].update(n_samples=20)
    bundle = cli.build_bundle(cli.load_config(write_config(tmp_path, cfg), None, None))
    verdicts = {v["name"]: v for v in cli.stochastic_checks(bundle, stats, np.arange(20) % 3, 0.25, [])}
    assert "z_score" in verdicts["variancebis"]


def test_tail_count_runs_past_64_returns(tmp_path):
    # on the full 2-shift T_n >= t when steps 1..t-1 visit the target at most n - 1 times,
    # and T_n <= t when steps 1..t visit it at least n times: each visit is a fair coin
    def at_most(trials, k_max):
        return Fraction(sum(comb(trials, k) for k in range(k_max + 1)), 2**trials)

    n, n_samples = 100, 4000
    cfg = full2_config()
    cfg["simulation"].update(n_returns=n, n_samples=n_samples,
                             tails=[{"u": 0.3, "side": "upper"}, {"u": 0.3, "side": "lower"}])
    path = write_config(tmp_path, cfg)
    assert run(["validate", "--config", path, "--out", tmp_path]) == EXIT_OK
    verdicts = {v["name"]: v for v in json.loads((tmp_path / "report.json").read_text())["verdicts"]}
    # the cuts are 100 (2 + 0.3) = 230 and 100 (2 - 0.3) = 170
    exact = {"upper": at_most(229, n - 1), "lower": 1 - at_most(170, n - 1)}
    for side, p in exact.items():
        tail = verdicts[f"tail_count_{side}_u=0.3"]
        assert "z_score" in tail
        assert tail["expected"] == pytest.approx(n_samples * float(p), rel=1e-12)


def test_build_solves_full_perron_pair_once(tmp_path, monkeypatch):
    # the operator's pair also serves the pressure gap check and the Gibbs chain
    config = cli.load_config(write_config(tmp_path, golden_config()), None, None)
    n = 2
    solves = []
    for module in (return_op, thermo):
        def counting(M, original=module.perron_eigendata):
            if M.shape == (n, n):
                solves.append(M)
            return original(M)

        monkeypatch.setattr(module, "perron_eigendata", counting)
    bundle = cli.build_bundle(config)
    assert len(solves) == 1
    assert bundle.recoded.n_states == n
    expected = gibbs_chain(bundle.recoded)  # solves its own pair
    assert bundle.chain.transition_probs.tobytes() == expected.transition_probs.tobytes()
    assert bundle.chain.stationary.tobytes() == expected.stationary.tobytes()


# The 10th system that tests/conftest.py::random_instance draws from np.random.default_rng(5):
# its C_3 sits near 0, so its sandwich_bounded verdict fails.
SANDWICH_SYSTEM = {
    "n_symbols": 4,
    "transitions": [[1, 0, 0, 1], [1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]],
    "potential": {"depth": 2, "values": [
        {"word": [0, 0], "value": -0.936838860181463},
        {"word": [0, 3], "value": -0.7391779181837066},
        {"word": [1, 0], "value": 0.838916123097571},
        {"word": [1, 1], "value": 0.6212593443971881},
        {"word": [2, 0], "value": -0.48996095118105476},
        {"word": [2, 2], "value": -0.3226846399272256},
        {"word": [3, 1], "value": -0.9237520919459414},
        {"word": [3, 2], "value": -0.7464060816150129},
    ]},
    "target": [0, 2, 3],
}


def test_validate_takes_exact_checks_without_the_full_distribution(tmp_path, monkeypatch):
    # the tail test runs the visit-count recursion and the mgf the tilted-kernel products;
    # each law keeps its tilts' certificates, so each tilt is solved once per law
    solves = []

    def counting(alpha, p_cc, b, original=oracle._certificate):
        solves.append((alpha, p_cc, b.tobytes()))  # p_cc is the law's own array, kept alive so ids stay unique
        return original(alpha, p_cc, b)

    monkeypatch.setattr(oracle, "_certificate", counting)
    cfg = {"system": SANDWICH_SYSTEM, "simulation": {
        "seed": 11, "n_returns": 25, "n_samples": 1000, "horizon": 200, "workers": 1}}
    path = write_config(tmp_path, cfg)
    assert run(["validate", "--config", path, "--out", tmp_path]) in (EXIT_OK, EXIT_VALIDATION)
    report = json.loads((tmp_path / "report.json").read_text())
    assert any(v["name"].startswith("tail_count_upper") for v in report["verdicts"])
    keys = [(alpha, id(p_cc), b) for alpha, p_cc, b in solves]
    assert solves and len(set(keys)) == len(keys)


@pytest.mark.parametrize("system", ["golden", "sandwich"])
def test_validate_solves_each_operator_parameter_once(tmp_path, monkeypatch, system):
    # Psi''(0), the rate brackets and the conjugacy tilts repeat S; the memo solves each once
    requested, sizes, solves = [], set(), []

    def counting_solve(self, S_values, original=return_op.ReturnOperator.solve):
        requested.extend(S_values)
        sizes.add(len(self.target))
        return original(self, S_values)

    def counting_perron(M, original=return_op.perron_stack):
        solves.extend([M.shape[-1]] * M.shape[0])
        return original(M)

    monkeypatch.setattr(return_op.ReturnOperator, "solve", counting_solve)
    monkeypatch.setattr(return_op, "perron_stack", counting_perron)
    if system == "golden":
        cfg = dict(golden_config(), alpha_grid=[-1.0, 0.0, 0.2], u_grid=[2.2, 3.0, 4.0])
    else:
        cfg = {"system": SANDWICH_SYSTEM, "u_grid": [9.0, 11.0], "simulation": {
            "seed": 11, "n_returns": 25, "n_samples": 1000, "horizon": 200, "workers": 1}}
    path = write_config(tmp_path, cfg)
    assert run(["validate", "--config", path, "--out", tmp_path]) in (EXIT_OK, EXIT_VALIDATION)
    assert len(set(requested)) < len(requested)
    assert sum(n in sizes for n in solves) == len(set(requested))


def _series_off_by(delta):
    """A stand-in for ``variance_report`` whose series route is off by ``delta``."""
    def report(op, chain):
        true = variance_report(op, chain)
        return dataclasses.replace(true, series_sigma2=true.series_sigma2 + delta)
    return report


def test_variance_route_disagreement_stops_analyze(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "variance_report", _series_off_by(1e-3))
    path = write_config(tmp_path, full2_config())
    assert run(["analyze", "--config", path, "--out", tmp_path]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: variance routes disagree: Psi''(0)=2.0")
    assert not (tmp_path / "report.json").exists()


def test_variance_route_disagreement_fails_its_validate_verdict(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "variance_report", _series_off_by(1e-3))
    path = write_config(tmp_path, full2_config())
    assert run(["validate", "--config", path, "--out", tmp_path]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "validation failed: variance_two_routes\n"
    report = json.loads((tmp_path / "report.json").read_text())
    verdict = {v["name"]: v for v in report["verdicts"]}["variance_two_routes"]
    assert not verdict["passed"]
    assert verdict["residual"] == pytest.approx(1e-3, rel=1e-9)
    assert verdict["tolerance"] == TWO_ROUTE_REL * 2.0


def system_block(system):
    """The config ``system`` block of a :class:`SymbolicSystem`."""
    return {
        "n_symbols": system.n_symbols,
        "transitions": system.transitions.tolist(),
        "potential": {"depth": system.potential.depth, "values": [
            {"word": list(w), "value": v} for w, v in sorted(system.potential.values.items())]},
        "target": list(system.target.symbols),
    }


def pinned_config(name, random_instances):
    """The full 2-shift on the benchmark's tail-full2 grids, and Tier-1 instance 9.

    The u grids reach the floor of the attainable range (alpha* = -inf) and the
    tails ask for predicted rates on both sides, one outside the range (inf).
    """
    if name == "full2":
        return full2_config(
            alpha_grid={"min": -2.0, "max": 0.5, "count": 11},
            u_grid={"min": 1.25, "max": 5.0, "count": 7},
            simulation={"seed": 17, "n_returns": 40, "n_samples": 2000, "horizon": 16, "workers": 1,
                        "tails": [{"u": 1.0, "side": "upper"}, {"u": 1.0, "side": "lower"},
                                  {"u": 0.5, "side": "lower"}]},
        )
    return {
        "system": system_block(random_instances[9]),
        "alpha_grid": {"min": -1.0, "max": 0.12, "count": 4},
        "u_grid": [1.0, 1.5, 3.5, 5.5, 9.0],
        "simulation": {"seed": 5, "n_returns": 25, "n_samples": 1000, "horizon": 200, "workers": 1,
                       "tails": [{"u": 1.0, "side": "upper"}, {"u": 3.0, "side": "lower"},
                                 {"u": 3.5, "side": "lower"}]},
    }


# sha256 of scgf.csv, rate.csv and tails.csv, recorded before R(S) was solved in stacked passes
PINNED_CSV_DIGESTS = {
    "full2": (
        "519b54cb6d0e26a03bc4ff20891982c20d14152eae49428a9935a705dc604c03",
        "7560b8051c4723b2d1d782522a7dc1e41d6faa8c5362e70094d9907baae4a2d4",
        "143bac5da83733c4a70156777ed1fa70d316583108f227133418cf551f9fc3d3",
    ),
    "tier1": (
        "807cf145227cf1f1fe29b7f7d1b6df329e90f38097bb025780e4086e1be95caa",
        "348c4d19277e7345a8058daae85c58542855478440a5dc4edfa7fe7fa34b6d20",
        "73a954a1bfd30e8e71a68057b4d9f14e941d7ef6a198e0b1ec3ce8ba4780b813",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CSV_DIGESTS))
def test_spectral_csvs_match_pinned_digests(tmp_path, random_instances, name):
    path = write_config(tmp_path, pinned_config(name, random_instances))
    scgf, rate, tails = PINNED_CSV_DIGESTS[name]
    expected = {"analyze": {"scgf.csv": scgf, "rate.csv": rate},
                "validate": {"scgf.csv": scgf, "rate.csv": rate, "tails.csv": tails}}
    for command, files in expected.items():
        out = tmp_path / command
        assert run([command, "--config", path, "--out", out]) == EXIT_OK
        digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}
        assert digests == files


def tails_rows(out):
    lines = (out / "tails.csv").read_text().splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


@pytest.mark.parametrize("name", sorted(PINNED_CSV_DIGESTS))
def test_tail_predicted_rates_equal_rate_function(tmp_path, random_instances, name):
    # the tails' searches run in the u grid's lockstep; each predicted rate is
    # rate_function's on a fresh operator, bit for bit, and inf where it fails
    cfg = pinned_config(name, random_instances)
    path = write_config(tmp_path, cfg)
    assert run(["validate", "--config", path, "--out", tmp_path]) == EXIT_OK
    bundle = cli.build_bundle(cli.load_config(path, None, None))
    mu = bundle.op.mu_target
    rows = tails_rows(tmp_path)
    assert len(rows) == len(cfg["simulation"]["tails"])
    failed = 0
    for row, tail in zip(rows, cfg["simulation"]["tails"]):
        abscissa = 1.0 / mu + tail["u"] if tail["side"] == "upper" else 1.0 / mu - tail["u"]
        fresh = return_op.ReturnOperator(bundle.recoded)
        try:
            expected = rate_function(fresh, abscissa)[0]
        except NumericError:
            expected = float("inf")
            failed += 1
        assert row["predicted_rate"] == cli._fmt(expected)
    assert failed == (1 if name == "tier1" else 0)


def test_failing_tail_reads_inf_next_to_a_grid_that_succeeds(tmp_path, random_instances):
    # on the full 2-shift Psi' ranges over (1, inf): the lower tail at u = 1.5 asks
    # for the conjugate point at 2 - 1.5 = 0.5, below the range
    cfg = pinned_config("full2", random_instances)
    cfg["simulation"]["tails"].append({"u": 1.5, "side": "lower"})
    path = write_config(tmp_path, cfg)
    assert run(["validate", "--config", path, "--out", tmp_path]) == EXIT_OK
    assert tails_rows(tmp_path)[-1]["predicted_rate"] == "inf"
    assert [row["predicted_rate"] != "inf" for row in tails_rows(tmp_path)] == [True] * 3 + [False]
    rate = hashlib.sha256((tmp_path / "rate.csv").read_bytes()).hexdigest()
    assert rate == PINNED_CSV_DIGESTS["full2"][1]


def test_grid_failure_raises_its_message_with_tails_present(tmp_path, capsys):
    # every cycle passes through the target, so Psi' ranges over (1, 2): the u grid
    # fails first at 3.0, and the tails at 1/mu + 1.5 and 1/mu + 2 fail too
    cfg = {
        "system": {
            "n_symbols": 3,
            "transitions": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "potential": {"depth": 1, "values": [{"word": [s], "value": 0.0} for s in range(3)]},
            "target": [0, 1],
        },
        "alpha_grid": [-1.0, 0.0, 1.0],
        "u_grid": [1.5, 3.0, 4.0],
        "simulation": {"seed": 3, "n_returns": 10, "n_samples": 500, "horizon": 50,
                       "tails": [{"u": 1.5, "side": "upper"}, {"u": 2.0, "side": "upper"}]},
    }
    message = ("numeric failure: u=3.0 is outside the attainable range of Psi', which is "
               "(1.0, 2.0); no finite conjugate point exists\n")
    path = write_config(tmp_path, cfg)
    for command in ("analyze", "validate"):
        out = tmp_path / command
        assert run([command, "--config", path, "--out", out]) == EXIT_NUMERIC
        assert capsys.readouterr().err == message
        assert sorted(p.name for p in out.iterdir()) == ["scgf.csv"]


def scaled_instance_config(scale, u_grid, draw=13):
    """System ``draw`` of ``random_instance`` on seed 11, every potential value times ``scale``.

    In system 13 Psi' ranges over (1, 2) and the complement is acyclic, so at
    u = 2 the conjugate limit runs alpha to +inf; at scale 300 R(P - alpha)
    leaves double range before the iterates settle.
    """
    rng = np.random.default_rng(11)
    for _ in range(draw):
        instance = random_instance(rng)
    block = system_block(instance)
    for entry in block["potential"]["values"]:
        entry["value"] *= scale
    return {"system": block, "u_grid": u_grid}


def run_rate(tmp_path, cfg):
    """(exit code, warnings raised) of ``rate`` on ``cfg``."""
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["rate", "--config", path, "--out", tmp_path / "out"])
    return code, caught


def test_overflowing_rate_search_prints_only_its_failure(tmp_path, capsys):
    # the search at u = 1.5 drives exp(shift - S) past double range
    code, caught = run_rate(tmp_path, scaled_instance_config(300, [1.5, 2.0]))
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric failure: matrix has non-finite entries; no Perron data exists\n"
    assert caught == []


def test_unconverged_conjugate_limit_exits_numeric(tmp_path, capsys):
    # u alpha - Psi(alpha) equals alpha for alpha = 1, 2, ..., 512, and R(P - 1024) overflows
    code, caught = run_rate(tmp_path, scaled_instance_config(300, [2.0]))
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric failure: the conjugate limit at u=2.0 did not converge: "
        "its iterates stopped at alpha=1024.0\n"
    )
    assert caught == []
    assert not (tmp_path / "out" / "rate.csv").exists()


def test_converged_conjugate_limit_at_the_ceiling(tmp_path):
    code, caught = run_rate(tmp_path, scaled_instance_config(30, [2.0]))
    assert code == EXIT_OK and caught == []
    assert (tmp_path / "out" / "rate.csv").read_text().splitlines()[1:] == ["2,57.786677953556989,inf"]


@pytest.mark.parametrize("command", ["rate", "analyze", "simulate"])
@pytest.mark.parametrize("draw, scale, message", [
    # the Perron polish of M meets a singular shifted matrix
    (26, 1000, "Perron eigensolve failed: Singular matrix"),
    # M's right Perron vector spans more than double range: a row of the Parry chain is nan
    (27, 300, "chain is not stochastic (row defect nan)"),
])
def test_potentials_far_out_of_range_fail_at_set_up_without_warnings(tmp_path, capsys, command, draw, scale, message):
    cfg = scaled_instance_config(scale, {"min": 1, "max": 6, "count": 6}, draw)
    cfg["simulation"] = {"seed": 5, "n_returns": 5, "n_samples": 200, "horizon": 50}
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([command, "--config", path, "--out", tmp_path / "out", "--clip-grid"])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == f"numeric failure: {message}\n"
    assert caught == []
    assert not (tmp_path / "out").exists()


class StillRunning(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds):
    """Raises StillRunning in the block once ``seconds`` of wall time have passed."""
    def expire(signum, frame):
        raise StillRunning(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# the walk cap's cost (200 samples + 150 a lockstep step) x 5 returns / mu(A) of each draw
WALK_COSTS = {6: "1.53e+14", 12: "2.47e+10", 26: "3.42e+12"}


def walk_cap_message(samples, steps, mu, cost):
    return (
        f"numeric failure: the return walk would take {steps} steps in expectation "
        f"({samples} samples x 5 returns / mu(A) = {mu}), and {cost} counting 150 for the fixed "
        "cost of each lockstep step, past the cap of 1e+10 steps\n"
    )


@pytest.mark.parametrize("command", ["simulate", "clt"])
@pytest.mark.parametrize("draw, expected, mu", [
    (6, "8.74e+13", "1.14e-11"), (12, "1.41e+10", "7.09e-08"), (26, "1.95e+12", "5.12e-10"),
])
def test_astronomically_long_return_walks_fail_fast(tmp_path, capsys, command, draw, expected, mu):
    # the Kac mean of T_5 is up to 4.4e11 steps a sample: the walk is refused before its first draw
    cfg = scaled_instance_config(30, {"min": 1, "max": 6, "count": 6}, draw)
    cfg["simulation"] = {"seed": 5, "n_returns": 5, "n_samples": 200, "horizon": 50}
    path = write_config(tmp_path, cfg)
    with time_limit(10.0):
        code = run([command, "--config", path, "--out", tmp_path / "out"])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == walk_cap_message(200, expected, mu, WALK_COSTS[draw])
    assert list((tmp_path / "out").iterdir()) == []


def test_a_long_walk_on_one_sample_fails_fast(tmp_path, capsys):
    # 7.05e7 sample-steps, under the cap, but as many lockstep steps of about 1.4-1.8 us each:
    # the fixed cost of a step, not the sample count, would make this walk last about two minutes
    cfg = scaled_instance_config(30, {"min": 1, "max": 6, "count": 6}, 12)
    cfg["simulation"] = {"seed": 5, "n_returns": 5, "n_samples": 200, "horizon": 50}
    path = write_config(tmp_path, cfg)
    with time_limit(10.0):
        code = run(["simulate", "--config", path, "--out", tmp_path / "out", "--samples", "1"])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == walk_cap_message(1, "7.05e+07", "7.09e-08", "1.06e+10")
    assert list((tmp_path / "out").iterdir()) == []


def test_hist_csv_matches_the_row_by_row_writer(tmp_path):
    cfg = full2_config()
    bundle = cli.build_bundle(cli.load_config(write_config(tmp_path, cfg), None, None))
    stats = sample_return_times(bundle.chain, bundle.target, bundle.config.simulation)
    rows = [[int(v), int(c)] for v, c in sorted(stats.histogram.items())]
    cli.write_csv(tmp_path / "rows.csv", ["value", "count"], rows)
    path = cli.write_hist_csv(stats, tmp_path)
    assert len(rows) > 10
    assert path.read_bytes() == (tmp_path / "rows.csv").read_bytes()


def write_clt_csv_by_rows(stats, sigma, mu, out):
    """clt.csv written row by row through ``write_csv``, every field formatted per run."""
    n = stats.n_returns
    z = np.sort((stats.samples - n / mu) / (sigma * np.sqrt(n)))
    grid = np.linspace(-4.0, 4.0, 401)
    emp = np.searchsorted(z, grid, side="right") / z.size
    rows = [[float(t), float(e), float(normal_cdf(t))] for t, e in zip(grid, emp)]
    cli.write_csv(out / "clt.csv", ["t", "empirical_cdf", "normal_cdf"], rows)


@pytest.mark.parametrize("name", ["full2", "golden", "tier1"])
def test_clt_csv_matches_the_row_by_row_writer(tmp_path, random_instances, name):
    cfg = {"full2": full2_config(), "golden": golden_config(),
           "tier1": pinned_config("tier1", random_instances)}[name]
    bundle = cli.build_bundle(cli.load_config(write_config(tmp_path, cfg), None, None))
    stats = sample_return_times(bundle.chain, bundle.target, bundle.config.simulation)
    sigma = np.sqrt(bundle.op.scgf_derivatives(0.0)[1])
    for out in (tmp_path / "cli", tmp_path / "rows"):
        out.mkdir()
    for _ in range(2):  # the fixed columns are formatted once per process
        cli.write_clt_csv(bundle, stats, sigma, tmp_path / "cli")
    write_clt_csv_by_rows(stats, sigma, bundle.op.mu_target, tmp_path / "rows")
    written = [(tmp_path / side / "clt.csv").read_bytes() for side in ("cli", "rows")]
    assert written[0] == written[1]


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_build_enumerates_admissible_words_once(tmp_path, monkeypatch, depth):
    # the configuration's words serve the system's coverage check and the recoding
    rng = np.random.default_rng(depth)
    transitions = [[1, 1, 0], [1, 0, 1], [1, 1, 1]]
    words = system.admissible_words(np.array(transitions, dtype=bool), depth)
    values = [{"word": list(w), "value": float(rng.uniform(-1, 1))} for w in words]
    cfg = {"system": {"n_symbols": 3, "transitions": transitions, "target": [0],
                      "potential": {"depth": depth, "values": values}}}
    calls = []

    def counting(transitions, depth, original=system.admissible_words):
        calls.append(depth)
        return original(transitions, depth)

    monkeypatch.setattr(cli, "admissible_words", counting)
    monkeypatch.setattr(system, "admissible_words", counting)
    bundle = cli.build_bundle(cli.load_config(write_config(tmp_path, cfg), None, None))
    assert calls == [depth]
    assert bundle.recoded.block_states == tuple(system.admissible_words(
        np.array(transitions, dtype=bool), max(depth - 1, 1)))
