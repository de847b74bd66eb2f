"""Stacked R(S) passes and the lockstep rate grid against one-at-a-time solves, bit for bit."""

import numpy as np
import pytest

from sftreturns import (
    DomainError,
    NumericError,
    ReturnOperator,
    cli,
    perron_eigendata,
    perron_stack,
    recode_higher_block,
)
from sftreturns.deviations import conjugate_points
from conftest import full_shift, golden_mean, make_system
from references import rate_function, rate_grid
from test_perron import two_cliques

# return times at most 2 from target {0, 1}: the attainable range of Psi' is (1, 2)
FAULT_ATTAINABLE = make_system([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (0, 1))
ARRAYS = ("R", "h_vec", "m_vec")


@pytest.fixture(scope="module")
def systems(random_recoded):
    return [recode_higher_block(full_shift(2)), recode_higher_block(golden_mean())] + list(random_recoded)


def s_grid(op):
    """S = P - alpha for alpha from -1 to within 1e-4 of alpha0, where Psi' has its pole."""
    a0 = op.alpha0
    alphas = [-1.0, 0.0, 0.5 * a0, a0 - 1e-3, a0 - 1e-4] if np.isfinite(a0) else [-1.0, 0.0, 0.5, 2.0, 8.0]
    return [op.pressure - alpha for alpha in alphas]


def assert_same_entry(op, single, S):
    """op's record for S equals, bit for bit, the one ``single`` solves for S alone."""
    ev, ref = op.eval(S), single.eval(S)
    for name in ARRAYS:
        assert getattr(ev, name).tobytes() == getattr(ref, name).tobytes(), name
    assert (ev.lam, ev.lam_prime, ev.lam_second) == (ref.lam, ref.lam_prime, ref.lam_second)


def eval_outcome(op, S):
    """op.eval(S) as the bytes and floats of its record, or its error as (type, message)."""
    try:
        ev = op.eval(S)
    except (DomainError, NumericError) as exc:
        return type(exc), str(exc)
    return tuple(getattr(ev, name).tobytes() for name in ARRAYS) + (ev.lam, ev.lam_prime, ev.lam_second)


def assert_same_outcomes(op, rec, S_values):
    """op.eval gives, at every S, the record or the error of S solved alone on a fresh operator."""
    for S in S_values:
        assert eval_outcome(op, S) == eval_outcome(ReturnOperator(rec), S)


class TestPerronStack:
    def test_slices_match_single_solves(self, systems):
        # R(S) of every instance over a grid reaching alpha0, as one stack per instance
        for rec in systems:
            op = ReturnOperator(rec)
            stack = np.stack([op.eval(S).R for S in s_grid(op)])
            rho, right, left, iterations, residual = perron_stack(stack)
            for i, M in enumerate(stack):
                data = perron_eigendata(M)
                assert rho[i] == data.rho and iterations[i] == data.iterations
                assert residual[i] == data.residual
                assert right[i].tobytes() == data.right_vec.tobytes()
                assert left[i].tobytes() == data.left_vec.tobytes()

    def test_slices_converging_in_different_rounds(self):
        # near-reducible slices polish for several rounds while the others have left the stack
        stack = np.stack([two_cliques(eps) for eps in (1.0, 1e-9, 1e-3, 1e-11, 0.5)])
        rho, right, left, iterations, _ = perron_stack(stack)
        assert len(set(iterations)) > 2
        for i, M in enumerate(stack):
            data = perron_eigendata(M)
            assert (rho[i], iterations[i]) == (data.rho, data.iterations)
            assert right[i].tobytes() == data.right_vec.tobytes()
            assert left[i].tobytes() == data.left_vec.tobytes()

    def test_first_failing_slice_raises_its_own_message(self):
        # a stack with failing slices raises the NumericError of one of them, as it fails alone
        good = two_cliques(1.0)
        tiny = [np.exp(-740.0) * np.ones((6, 6)), np.exp(-741.0) * np.ones((6, 6))]
        reducible = np.eye(6) + np.triu(np.ones((6, 6)), 1)
        for order in ([tiny[0], reducible, tiny[1]], [reducible, tiny[1]], [tiny[1], tiny[0]], [reducible]):
            alone = set()
            for M in order:
                with pytest.raises(NumericError) as exc:
                    perron_eigendata(M)
                alone.add(str(exc.value))
            with pytest.raises(NumericError) as stacked:
                perron_stack(np.stack([good] + order + [good]))
            assert str(stacked.value) in alone


class TestStackedPass:
    def test_stacked_pass_matches_one_at_a_time(self, systems):
        for rec in systems:
            op, single = ReturnOperator(rec), ReturnOperator(rec)
            grid = s_grid(op)
            op.solve(grid)
            for S in grid:
                assert_same_entry(op, single, S)

    def test_repeats_and_memo_hits_in_a_batch(self, systems):
        for rec in systems[:12]:
            op, single = ReturnOperator(rec), ReturnOperator(rec)
            grid = s_grid(op)
            first = op.eval(grid[2])  # solved alone
            op.solve([grid[1], grid[2], grid[1], grid[3], grid[4], grid[2]])
            assert op.eval(grid[2]) is first
            for S in grid[1:]:
                assert_same_entry(op, single, S)
            op.solve(grid)  # all memoized but grid[0]: only grid[0] is solved
            assert op.eval(grid[2]) is first
            assert_same_entry(op, single, grid[0])

    def test_record_does_not_depend_on_what_asked_first(self, systems):
        # eval, curve, a lockstep rate search or the oracle tilts' pass may solve an S first;
        # its record, lambda' and lambda'' included, is the one it gets solved alone
        for rec in systems[:12]:
            probe = ReturnOperator(rec)
            top = min(0.3, probe.alpha0 / 2.0) if np.isfinite(probe.alpha0) else 0.3
            conj_tilt, sandwich_tilts = cli._oracle_tilts(probe)
            tilts = (-1.0, 0.0, conj_tilt, *sandwich_tilts)
            first_asks = (
                lambda op: [op.eval(S) for S in s_grid(op)],
                lambda op: op.curve(np.linspace(-1.0, top, 5)),
                lambda op: conjugate_points(op, u_points(op)),
                lambda op: op.solve([op.pressure - alpha for alpha in tilts]),
            )
            single = ReturnOperator(rec)
            for ask in first_asks:
                op = ReturnOperator(rec)
                ask(op)
                assert op._evals
                for S in op._evals:
                    assert_same_entry(op, single, S)

    def test_curve_is_one_pass(self, systems, monkeypatch):
        passes = []
        original = ReturnOperator.solve

        def counting(self, S_values):
            passes.append(len(S_values))
            return original(self, S_values)

        for rec in systems[:12]:
            op, single = ReturnOperator(rec), ReturnOperator(rec)
            top = min(0.3, op.alpha0 / 2.0) if np.isfinite(op.alpha0) else 0.3
            grid = np.linspace(-1.0, top, 5)
            monkeypatch.setattr(ReturnOperator, "solve", counting)
            passes.clear()
            curve = op.curve(grid)
            monkeypatch.undo()
            assert passes == [5]
            expected = np.array([single.scgf_and_derivatives(a) for a in grid]).T
            assert np.array_equal(np.array([curve.psi, curve.psi1, curve.psi2]), expected)

    def test_parameter_below_critical_raises_as_eval_does(self, systems):
        # solve leaves out an S at or below S_c and solves the others; eval raises its DomainError
        for rec in systems[:12]:
            op = ReturnOperator(rec)
            if not np.isfinite(op.s_critical):
                continue
            bad = op.s_critical - 0.1
            op.solve([op.pressure, bad, op.s_critical])
            assert list(op._evals) == [op.pressure]
            with pytest.raises(DomainError):
                op.eval(bad)
            assert_same_outcomes(op, rec, [op.pressure, bad, op.s_critical])

    def test_failing_perron_solve_raises_first_in_request_order(self, random_recoded):
        # far above S_c, R(S) is subnormal: the pass fails and memoizes nothing, and each S
        # then meets its own error, or gets its own record, when eval solves it alone
        rec = next(r for r in random_recoded if len(r.target_blocks) > 2)
        op = ReturnOperator(rec)
        bad = [op.pressure + 740.0, op.pressure + 745.0]
        for order in (bad, bad[::-1]):
            op = ReturnOperator(rec)
            request = [op.pressure - 0.1, *order, op.pressure]
            op.solve(request)
            assert op._evals == {}
            with pytest.raises(NumericError):
                op.eval(order[0])
            assert_same_outcomes(op, rec, request)

    def test_solve_never_raises(self, random_recoded):
        # one request with a good S, an S below S_c and an S whose Perron solve fails
        recs = [r for r in random_recoded[:20] if len(r.target_blocks) > 2]
        recs = [r for r in recs if np.isfinite(ReturnOperator(r).s_critical)]
        assert recs
        for rec in recs:
            op = ReturnOperator(rec)
            request = [op.pressure, op.s_critical - 0.1, op.pressure + 740.0]
            op.solve(request)
            assert_same_outcomes(op, rec, request)
            kinds = [eval_outcome(op, S)[0] for S in request]
            assert kinds[1:] == [DomainError, NumericError]


def u_points(op):
    """Floor (alpha* = -inf), inside points with different Newton counts, ceiling if finite."""
    mean = 1.0 / op.mu_target
    floor = float(op.min_cycle_mean)
    points = [floor, 0.7 * mean + 0.3 * floor, mean, floor + 1e-6, mean, 1.5 * mean, 3.0 * mean]
    if op.max_cycle_mean is not None:
        ceiling = float(op.max_cycle_mean)
        points = [floor, floor + 1e-6, 0.5 * (floor + ceiling), mean, ceiling - 1e-3, ceiling]
    return points


def outcome(rec, u):
    """rate_function at u on a fresh operator, or its error as text."""
    try:
        return rate_function(ReturnOperator(rec), u)
    except (DomainError, NumericError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestRateGrid:
    def test_lockstep_matches_one_point_at_a_time(self, systems):
        # one instance fails next to its floor (its Perron vector spans too many orders of
        # magnitude); the grid raises that failure, and equals rate_function everywhere else
        failing = 0
        for rec in systems:
            us = u_points(ReturnOperator(rec))
            expected = [outcome(rec, u) for u in us]
            errors = [e for e in expected if isinstance(e, str)]
            if errors:
                failing += 1
                with pytest.raises((DomainError, NumericError)) as exc:
                    rate_grid(ReturnOperator(rec), us)
                assert f"{type(exc.value).__name__}: {exc.value}" == errors[0]
            kept = [(u, e) for u, e in zip(us, expected) if not isinstance(e, str)]
            assert rate_grid(ReturnOperator(rec), [u for u, _ in kept]) == [e for _, e in kept]
        assert failing == 1

    def test_grid_covers_both_boundaries(self, systems):
        # every instance reaches the floor; the bounded ones reach the ceiling too
        stars = []
        for rec in systems[:20]:
            op = ReturnOperator(rec)
            us = [u for u in u_points(op) if isinstance(outcome(rec, u), tuple)]
            stars += [star for _, star in rate_grid(op, us)]
        assert float("-inf") in stars and float("inf") in stars

    def test_points_need_different_newton_counts(self, systems, monkeypatch):
        # the searches finish in different rounds; the grid runs as many rounds as the longest,
        # one stacked pass a round (a pass that fails is followed by the searches' own one-S
        # solves, which eval makes without calling solve)
        requests = []
        original = ReturnOperator.solve

        def counting(self, S_values):
            requests.append(len(S_values))
            return original(self, S_values)

        monkeypatch.setattr(ReturnOperator, "solve", counting)
        rec = systems[2]
        us = u_points(ReturnOperator(rec))
        rounds = []
        for u in us:
            requests.clear()
            rate_function(ReturnOperator(rec), u)
            rounds.append(len(requests))
        requests.clear()
        rate_grid(ReturnOperator(rec), us)
        assert len(set(rounds)) > 2
        assert len(requests) == max(rounds) < sum(rounds)
        # a round asks for one alpha per search still running
        assert requests == [sum(r > k for r in rounds) for k in range(max(rounds))]

    def test_fault_attainable_grid_raises_first_failure(self):
        op = ReturnOperator(recode_higher_block(FAULT_ATTAINABLE))
        message = (
            "u=3.0 is outside the attainable range of Psi', which is (1.0, 2.0); "
            "no finite conjugate point exists"
        )
        with pytest.raises(NumericError) as exc:
            rate_grid(op, list(np.linspace(1.0, 4.0, 4)))
        assert str(exc.value) == message
        with pytest.raises(NumericError, match=r"u=4\.0 is outside"):
            rate_grid(op, [1.5, 4.0, 3.0])
        with pytest.raises(DomainError, match="must be positive"):
            rate_grid(op, [1.5, -1.0, 3.0])

    def test_failure_leaves_earlier_points_unchanged(self, full2_recoded):
        op = ReturnOperator(full2_recoded)
        with pytest.raises(NumericError, match=r"u=0\.5 is outside"):
            rate_grid(op, [3.0, 1.0, 0.5, 4.0])
        expected = [rate_function(ReturnOperator(full2_recoded), u) for u in (3.0, 1.0)]
        assert rate_grid(op, [3.0, 1.0]) == expected
