"""The up-front R(S) pass: each command solves the S it can name in one stacked pass first.

``analyze``, ``validate`` and ``rate`` call ``ReturnOperator.solve_ahead``
before their first result.  The pass only fills the operator's memo, so
every output, exit code and error message must be the same without it, and
the same when it fails.
"""

import shutil

import numpy as np
import pytest

from sftreturns import NumericError, ReturnOperator, cli, recode_higher_block, return_op
from sftreturns.deviations import _conjugate_search, opening_asks
from conftest import full_shift, golden_mean
from test_cli import SANDWICH_SYSTEM, full2_config, golden_config, pinned_config, system_block, write_config

COMMANDS = ("analyze", "validate", "rate")

# Every cycle passes through the target, so Psi' ranges over (1, 2): the
# benchmark's u grid fails at u = 3 under every command.
ATTAINABLE_SYSTEM = {
    "n_symbols": 3,
    "transitions": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    "potential": {"depth": 1, "values": [{"word": [s], "value": 0.0} for s in range(3)]},
    "target": [0, 1],
}
SMALL_SIMULATION = {"seed": 5, "n_returns": 10, "n_samples": 200, "horizon": 50, "workers": 1}


def config(name, random_instances):
    """(config, extra flags) of a named case; ``tier1-k`` is Tier-1 instance k."""
    if name == "full2":
        return pinned_config("full2", random_instances), []
    if name == "golden":
        return dict(golden_config(), alpha_grid=[-1.0, 0.0, 0.2], u_grid=[2.2, 3.0, 4.0]), []
    if name == "fault-attainable":
        return {"system": ATTAINABLE_SYSTEM, "alpha_grid": {"min": -1.0, "max": 0.5, "count": 4},
                "u_grid": {"min": 1.0, "max": 4.0, "count": 4}, "simulation": SMALL_SIMULATION}, []
    if name == "fault-sandwich":
        return {"system": SANDWICH_SYSTEM, "u_grid": [9.0, 11.0], "simulation": SMALL_SIMULATION}, []
    k = int(name.split("-")[1])
    cfg = {
        "system": system_block(random_instances[k]),
        "alpha_grid": {"min": -1.0, "max": 0.12, "count": 4},
        "u_grid": [1.0, 1.5, 3.5, 5.5, 9.0],
        "simulation": dict(SMALL_SIMULATION, tails=[{"u": 1.0, "side": "upper"},
                                                    {"u": 0.5, "side": "lower"}]),
    }
    return cfg, ["--clip-grid"] if k % 2 == 0 else []


CASES = ["full2", "golden", "fault-attainable", "fault-sandwich"] + [f"tier1-{k}" for k in range(10)]


def outcomes(tmp_path, capsys, cfg, flags):
    """Exit code, standard streams and the bytes of every file written, per command."""
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    result = {}
    for command in COMMANDS:
        if out.exists():
            shutil.rmtree(out)
        code = cli.main([command, "--config", str(path), "--out", str(out), *flags])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        result[command] = (code, capsys.readouterr(), files)
    return result


def no_up_front(monkeypatch):
    monkeypatch.setattr(ReturnOperator, "solve_ahead", lambda self, alphas: None)


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_without_the_up_front_pass(tmp_path, capsys, monkeypatch, random_instances, name):
    cfg, flags = config(name, random_instances)
    with_pass = outcomes(tmp_path, capsys, cfg, flags)
    no_up_front(monkeypatch)
    assert outcomes(tmp_path, capsys, cfg, flags) == with_pass


@pytest.mark.parametrize("error", [NumericError("stacked pass failed"), np.linalg.LinAlgError("Singular matrix")])
@pytest.mark.parametrize("name", ["full2", "fault-attainable", "fault-sandwich", "tier1-1", "tier1-4"])
def test_a_failing_up_front_pass_changes_nothing(tmp_path, capsys, monkeypatch, random_instances, name, error):
    cfg, flags = config(name, random_instances)
    monkeypatch.setattr(ReturnOperator, "solve_ahead", lambda self, alphas: None)
    expected = outcomes(tmp_path, capsys, cfg, flags)
    monkeypatch.undo()

    # each command's first pass fails: the up-front one, or the first lockstep round of
    # the rate searches when the command can name no S up front
    failed = []
    original = ReturnOperator._pass

    def first_pass_fails(self, todo):
        if all(op is not self for op in failed):
            failed.append(self)
            raise error
        return original(self, todo)

    monkeypatch.setattr(ReturnOperator, "_pass", first_pass_fails)
    assert outcomes(tmp_path, capsys, cfg, flags) == expected
    assert failed  # the pass of at least one command was asked to fail


def test_a_failing_pass_memoizes_nothing(monkeypatch):
    op = ReturnOperator(recode_higher_block(full_shift(2)))

    def failing(M):
        raise NumericError("stacked pass failed")

    monkeypatch.setattr(return_op, "perron_stack", failing)
    op.solve_ahead([0.0, -1.0, 0.3])
    assert op._evals == {}


def test_the_pass_leaves_out_parameters_below_the_critical_value():
    op = ReturnOperator(recode_higher_block(golden_mean()))
    op.solve_ahead([0.0, op.alpha0, op.alpha0 + 1.0, float("nan"), -1.0])
    assert sorted(op._evals) == sorted([op.pressure - 0.0, op.pressure - -1.0])
    fresh = ReturnOperator(op.recoded)
    for S, ev in op._evals.items():
        alone = fresh.eval(S)
        assert (ev.lam, ev.lam_prime, ev.lam_second) == (alone.lam, alone.lam_prime, alone.lam_second)
        assert ev.R.tobytes() == alone.R.tobytes()


def test_opening_asks_are_what_a_search_asks_first(systems_for_asks):
    # at u = 1/mu = Psi'(0) the opening bracket (-1, hi) holds the conjugate point, so no end widens
    for recoded in systems_for_asks:
        op = ReturnOperator(recoded)
        u = 1.0 / op.mu_target
        search = _conjugate_search(op, u)
        assert [next(search) for _ in range(3)] == opening_asks(op, [u])
    op = ReturnOperator(recode_higher_block(full_shift(2)))
    assert opening_asks(op, [1.0, 0.5]) == []  # the floor of the range, and below it


@pytest.fixture
def systems_for_asks(random_recoded):
    return [recode_higher_block(full_shift(2)), recode_higher_block(golden_mean())] + random_recoded[:10]


# R(S) passes (perron_stack calls) of one command on the full 2-shift with the
# tail-full2 grids and three tails: the up-front pass, then one pass a lockstep
# round of the rate searches that asks a new S; 9 and 10 before the up-front pass
PINNED_PASSES = {"analyze": 6, "validate": 7}


@pytest.mark.parametrize("command", sorted(PINNED_PASSES))
def test_pass_count_on_the_full_two_shift(tmp_path, monkeypatch, random_instances, command):
    passes = []
    original = return_op.perron_stack

    def counting(M):
        passes.append(M.shape[0])
        return original(M)

    monkeypatch.setattr(return_op, "perron_stack", counting)
    path = write_config(tmp_path, pinned_config("full2", random_instances))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert len(passes) == PINNED_PASSES[command]
