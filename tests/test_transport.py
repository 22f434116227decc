import itertools

import numpy as np
import pytest

from otflow.errors import (
    DimensionMismatchError,
    NumericError,
    SinkhornConvergenceError,
    SizeLimitError,
)
import otflow.transport as transport
from otflow.transport import (
    ANDERSON_MEMORY,
    DEFAULT_MAX_ITER,
    _Anderson,
    _fixed_point,
    _LogFrame,
    _Newton,
    _violation,
    exact_ot,
    ot_position_grad,
    sinkhorn,
    sinkhorn_symmetric,
    squared_euclidean_cost,
)

# The solvers run their loops under one np.errstate; any floating-point
# warning that escapes it fails the test.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def uniform(n):
    return np.full(n, 1.0 / n)


def symmetric_cost(rng, n):
    c = rng.uniform(size=(n, n))
    return 0.5 * (c + c.T)


def count_rebuilds(monkeypatch):
    """Log each call of the kernel rebuild, ``transport._softmin``."""
    calls = []
    rebuild = transport._softmin

    def counting(*args):
        calls.append(1)
        return rebuild(*args)

    monkeypatch.setattr(transport, "_softmin", counting)
    return calls


def brute_force_assignment(cost):
    """Minimum over all permutations; the exact oracle for uniform square instances."""
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return best


SOLVERS = {
    "sinkhorn": lambda cost, a, b: sinkhorn(cost, a, b, reg=0.1),
    "sinkhorn_symmetric": lambda cost, a, b: sinkhorn_symmetric(cost, a, reg=0.1),
    "exact_ot": exact_ot,
}


class TestInputChecks:
    @pytest.mark.parametrize("solver", SOLVERS.values(), ids=SOLVERS.keys())
    @pytest.mark.parametrize("bad", [[0.7, 0.7], [1.5, -0.5], [np.nan, 0.5]])
    def test_rejects_bad_weights(self, solver, bad):
        cost = np.ones((2, 2))
        with pytest.raises(NumericError, match="weights"):
            solver(cost, np.array(bad), uniform(2))

    @pytest.mark.parametrize("solver", SOLVERS.values(), ids=SOLVERS.keys())
    @pytest.mark.parametrize(
        "entry, message",
        [(np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
         (-1e-12, "nonnegative")],
    )
    def test_rejects_bad_cost(self, solver, entry, message):
        cost = np.ones((3, 3))
        cost[1, 2] = entry
        with pytest.raises(NumericError, match=message):
            solver(cost, uniform(3), uniform(3))

    @pytest.mark.parametrize("solver", SOLVERS.values(), ids=SOLVERS.keys())
    def test_non_finite_is_reported_before_negative(self, solver):
        cost = np.ones((3, 3))
        cost[0, 0] = -1.0
        cost[2, 2] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            solver(cost, uniform(3), uniform(3))

    @pytest.mark.parametrize("solver", SOLVERS.values(), ids=SOLVERS.keys())
    def test_rejects_mismatched_weight_lengths(self, solver):
        with pytest.raises(DimensionMismatchError, match="weight lengths"):
            solver(np.ones((2, 3)), uniform(3), uniform(2))

    @pytest.mark.parametrize("solver", SOLVERS.values(), ids=SOLVERS.keys())
    def test_empty_cost_fails_the_weight_check(self, solver):
        with pytest.raises(NumericError, match="sum to 1"):
            solver(np.zeros((0, 0)), np.zeros(0), np.zeros(0))


class TestSquaredEuclideanCost:
    @pytest.mark.parametrize("n, m, d, offset", [(1, 1, 1, 0.0), (7, 5, 1, 3.0), (6, 9, 3, 1e3)])
    def test_matches_difference_tensor(self, n, m, d, offset):
        rng = np.random.default_rng(21)
        x = offset + rng.standard_normal((n, d))
        y = offset + rng.standard_normal((m, d))
        ref = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
        scale = (x**2).sum(axis=1)[:, None] + (y**2).sum(axis=1)
        cost = squared_euclidean_cost(x, y)
        assert cost.shape == (n, m)
        assert np.all(cost >= 0)
        assert np.all(np.abs(cost - ref) <= 1e-12 * np.abs(ref) + 1e-12 * scale)


class TestSinkhorn:
    def test_single_atom(self):
        plan = sinkhorn(np.array([[2.5]]), uniform(1), uniform(1), reg=0.1)
        np.testing.assert_allclose(plan.plan, [[1.0]], atol=1e-12)
        assert plan.cost == pytest.approx(2.5)

    def test_marginals_within_tol(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n, m = rng.integers(3, 12, size=2)
            cost = rng.uniform(size=(n, m))
            a = rng.uniform(0.2, 1.0, n); a /= a.sum()
            b = rng.uniform(0.2, 1.0, m); b /= b.sum()
            plan = sinkhorn(cost, a, b, reg=0.05 * cost.mean(), tol=1e-8)
            ra, rb = plan.marginals()
            assert np.abs(ra - a).sum() <= 1e-8
            assert np.abs(rb - b).sum() <= 1e-7

    def test_cost_recomputes(self):
        rng = np.random.default_rng(1)
        cost = rng.uniform(size=(5, 7))
        plan = sinkhorn(cost, uniform(5), uniform(7), reg=0.1 * cost.mean())
        assert plan.cost == pytest.approx(float(np.sum(plan.plan * cost)), abs=1e-12)

    def test_small_reg_matches_exact(self, monkeypatch):
        rng = np.random.default_rng(2)
        cost = rng.uniform(size=(6, 6))
        u = uniform(6)
        exact = exact_ot(cost, u, u)
        calls = count_rebuilds(monkeypatch)
        plan = sinkhorn(cost, u, u, reg=1e-3 * cost.mean(), max_iter=50_000, tol=1e-4)
        assert abs(plan.cost - exact.cost) / exact.cost < 0.01
        # The potentials move far beyond the scaling bound, so the absorbed
        # kernel is rebuilt mid-solve (the first round builds it, twice at
        # most).
        assert len(calls) > 2

    @pytest.mark.parametrize("solver", ["sinkhorn", "sinkhorn_symmetric"])
    def test_reported_violation_is_the_true_one(self, solver):
        # The plan comes from the absorbed kernel and the violation from the
        # log-potentials; both must describe the same coupling, also at a
        # reg that forces rebuilds.
        rng = np.random.default_rng(22)
        for _ in range(5):
            n = int(rng.integers(3, 12))
            a = rng.uniform(0.2, 1.0, n); a /= a.sum()
            if solver == "sinkhorn":
                m = int(rng.integers(3, 12))
                cost = rng.uniform(size=(n, m))
                b = rng.uniform(0.2, 1.0, m); b /= b.sum()
                plan = sinkhorn(cost, a, b, 1e-3 * cost.mean(), max_iter=100_000, tol=1e-5)
            else:
                cost, b = symmetric_cost(rng, n), a
                plan = sinkhorn_symmetric(cost, a, 1e-3 * cost.mean(), max_iter=100_000, tol=1e-5)
            row_l1 = np.abs(plan.plan.sum(axis=1) - a).sum()
            assert plan.marginal_error == pytest.approx(row_l1, rel=0, abs=1e-12)
            expected = np.outer(a, b) * np.exp(
                (plan.dual_left[:, None] + plan.dual_right[None, :] - cost) / plan.reg
            )
            # Below 1e-200 an entry may come from an underflowed kernel
            # entry times scalings of at most 1e50 each.
            np.testing.assert_allclose(plan.plan, expected, rtol=1e-12, atol=1e-200)

    @pytest.mark.parametrize("solver", ["sinkhorn", "sinkhorn_symmetric"])
    def test_zero_weight_atom_far_above_the_rest(self, solver):
        # Atom 0 carries no mass and is far closer to everything than the
        # other atoms are, so at small reg it alone lies above the absorbed
        # kernel's maximum. It must leave the solve finite and the plan on
        # the other atoms exact.
        rng = np.random.default_rng(24)
        cost = symmetric_cost(rng, 7) * 0.6 + 0.4
        cost[0, :] = cost[:, 0] = 0.01
        a = np.append(0.0, uniform(6))
        reg = 1e-3 * cost.mean()
        if solver == "sinkhorn":
            plan = sinkhorn(cost, a, a, reg, max_iter=100_000, tol=1e-4)
        else:
            plan = sinkhorn_symmetric(cost, a, reg, max_iter=100_000, tol=1e-4)
        assert np.all(np.isfinite(plan.dual_left)) and np.all(np.isfinite(plan.dual_right))
        assert not plan.plan[0].any() and not plan.plan[:, 0].any()
        assert np.abs(plan.plan.sum(axis=1) - a).sum() <= 1e-4
        exact = exact_ot(cost[1:, 1:], a[1:], a[1:])
        assert abs(plan.cost - exact.cost) / exact.cost < 0.01

    def test_self_cost_vanishes_as_reg_shrinks(self):
        # identical measures, pairwise-distance cost: raw entropic cost -> 0
        rng = np.random.default_rng(21)
        x = rng.standard_normal((10, 2))
        cost = squared_euclidean_cost(x, x)
        u = uniform(10)
        costs = [
            sinkhorn(cost, u, u, reg=f * cost.mean(), tol=1e-6, max_iter=100_000).cost
            for f in (0.3, 0.03, 0.003)
        ]
        assert costs[0] > costs[1] > costs[2]
        assert costs[2] < 0.01 * cost.mean()

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(size=(5, 8))
        a, b = uniform(5), uniform(8)
        reg = 0.1 * cost.mean()
        p1 = sinkhorn(cost, a, b, reg, tol=1e-10)
        p2 = sinkhorn(cost.T, b, a, reg, tol=1e-10)
        assert p1.cost == pytest.approx(p2.cost, abs=1e-8)
        np.testing.assert_allclose(p1.plan, p2.plan.T, atol=1e-10)

    def test_cost_monotone_in_reg(self):
        rng = np.random.default_rng(4)
        cost = rng.uniform(size=(7, 7))
        u = uniform(7)
        costs = [
            sinkhorn(cost, u, u, reg=f * cost.mean(), tol=1e-5, max_iter=200_000).cost
            for f in (1.0, 0.1, 0.01)
        ]
        assert costs[0] >= costs[1] - 1e-6
        assert costs[1] >= costs[2] - 1e-6
        exact = exact_ot(cost, u, u).cost
        for c in costs:
            assert c >= exact - 1e-6

    def test_nonconvergence_reports_violation(self):
        rng = np.random.default_rng(5)
        cost = rng.uniform(size=(6, 6))
        with pytest.raises(SinkhornConvergenceError) as exc:
            sinkhorn(cost, uniform(6), uniform(6), reg=1e-4 * cost.mean(), max_iter=5, tol=1e-12)
        assert exc.value.marginal_error > 0
        assert exc.value.iterations >= 5

    @pytest.mark.parametrize("seed", [2, 3, 9])
    def test_max_iter_caps_the_rounds(self, seed):
        # A rejected Anderson candidate is a round too: a cap reached on it
        # leaves no round for the plain step.
        rng = np.random.default_rng(seed)
        cost = squared_euclidean_cost(rng.normal(size=(30, 2)), 2.0 + rng.normal(size=(40, 2)))
        a, b = rng.dirichlet(np.ones(30)), rng.dirichlet(np.ones(40))
        rounds = []
        for cap in range(1, 120):
            try:
                rounds.append(sinkhorn(cost, a, b, 0.05 * cost.mean(), cap, 1e-9).iterations)
                assert rounds[-1] <= cap
            except SinkhornConvergenceError as exc:
                assert exc.iterations == cap
        assert rounds  # the instance converges within the range of caps
        sym, w = symmetric_cost(rng, 9), a[:9] / a[:9].sum()
        for cap in range(1, 40):
            try:
                assert sinkhorn_symmetric(sym, w, 0.05, cap, 1e-9).iterations <= cap
            except SinkhornConvergenceError as exc:
                assert exc.iterations == cap

    def test_rejects_bad_inputs(self):
        with pytest.raises(NumericError):
            sinkhorn(np.array([[np.inf]]), uniform(1), uniform(1), reg=0.1)
        with pytest.raises(NumericError):
            sinkhorn(np.array([[1.0]]), uniform(1), uniform(1), reg=0.0)
        cost = np.random.default_rng(14).uniform(size=(5, 5))
        u = uniform(5)
        # weight lengths that do not match the cost are a shape error
        with pytest.raises(DimensionMismatchError, match="weight lengths"):
            sinkhorn(cost, uniform(4), u, 0.1)
        with pytest.raises(DimensionMismatchError, match="weight lengths"):
            sinkhorn(cost, u, uniform(6), 0.1)
        with pytest.raises(DimensionMismatchError, match="weight lengths"):
            sinkhorn_symmetric(cost, uniform(4), 0.1)
        with pytest.raises(DimensionMismatchError, match="weight lengths"):
            sinkhorn_symmetric(cost[:, :4], u, 0.1)
        solvers = (
            lambda reg, init=None: sinkhorn(cost, u, u, reg, init=init),
            lambda reg, init=None: sinkhorn_symmetric(cost, u, reg, init=init),
        )
        for solve in solvers:
            for reg in (np.nan, np.inf, -np.inf):
                with pytest.raises(NumericError, match="reg"):
                    solve(reg)
        # sinkhorn takes the pair (f, g) and reads f; sinkhorn_symmetric takes f
        wraps = (lambda f: (f, None), lambda f: f)
        for solve, wrap in zip(solvers, wraps):
            for f in (np.array([3.0]), np.zeros(4), np.zeros(6), np.zeros((5, 1))):
                with pytest.raises(DimensionMismatchError):
                    solve(0.1, wrap(f))
            for bad in (np.nan, np.inf):
                f = np.zeros(5)
                f[2] = bad
                with pytest.raises(NumericError):
                    solve(0.1, wrap(f))

    @pytest.mark.parametrize("solver", ["sinkhorn", "sinkhorn_symmetric"])
    @pytest.mark.parametrize(
        "setting, message",
        [({"max_iter": 0}, "max_iter"), ({"max_iter": -3}, "max_iter"),
         ({"tol": np.nan}, "tol"), ({"tol": -1.0}, "tol")],
    )
    def test_rejects_bad_solver_settings_before_any_round(
        self, monkeypatch, solver, setting, message
    ):
        rounds = []
        monkeypatch.setattr(transport, "_violation", lambda *args: rounds.append(1) or 0.0)
        cost = np.random.default_rng(15).uniform(size=(4, 4))
        cost = 0.5 * (cost + cost.T)
        args = (cost, uniform(4), uniform(4)) if solver == "sinkhorn" else (cost, uniform(4))
        with pytest.raises(NumericError, match=message):
            getattr(transport, solver)(*args, reg=0.1, **setting)
        assert rounds == []

    @pytest.mark.parametrize("solver", ["sinkhorn", "sinkhorn_symmetric"])
    def test_zero_tol_is_legal(self, solver):
        cost = np.zeros((1, 1))
        args = (cost, uniform(1), uniform(1)) if solver == "sinkhorn" else (cost, uniform(1))
        plan = getattr(transport, solver)(*args, reg=0.1, tol=0.0)
        assert plan.marginal_error == 0.0

    def test_warm_start_converges_faster(self):
        rng = np.random.default_rng(6)
        cost = rng.uniform(size=(20, 20))
        u = uniform(20)
        reg = 0.05 * cost.mean()
        cold = sinkhorn(cost, u, u, reg, tol=1e-9)
        warm = sinkhorn(cost, u, u, reg, tol=1e-9, init=(cold.dual_left, cold.dual_right))
        assert warm.iterations <= cold.iterations
        assert warm.cost == pytest.approx(cold.cost, abs=1e-9)

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e12, 1e16])
    def test_warm_start_far_along_gauge(self, offset):
        # (f + c, g - c) is the same solution for every c. A warm start
        # shifted along that direction must solve exactly like the unshifted
        # one; an uncentred start loses u - T(u) to rounding and reports a
        # violation of 0 for a plan that misses its marginals. reg is a power
        # of two and the start even multiples of it, so every shifted start
        # is exact.
        rng = np.random.default_rng(30)
        n, m = 9, 12
        cost = rng.uniform(size=(n, m))
        a = rng.uniform(0.2, 1.0, n); a /= a.sum()
        b = rng.uniform(0.2, 1.0, m); b /= b.sum()
        reg, tol = 2.0**-5, 1e-9
        nearby = sinkhorn(cost + 0.1 * rng.uniform(size=(n, m)), a, b, reg)
        u0 = 2.0 * np.round(nearby.dual_left / (2.0 * reg))

        def solve(c):
            return sinkhorn(cost, a, b, reg, tol=tol, init=(reg * (u0 + c), nearby.dual_right))

        base, plan = solve(0.0), solve(offset)
        assert plan.iterations == base.iterations
        np.testing.assert_allclose(plan.plan, base.plan, rtol=0, atol=1e-12)
        assert np.abs(plan.plan.sum(axis=1) - a).sum() <= tol

    def test_anderson_ring_wraps_with_unchanged_iterates(self):
        # A cold solve that takes 23 extrapolation steps, so the
        # ANDERSON_MEMORY-entry history ring wraps several times. The
        # expected count and plan come from Anderson over consecutive
        # differences, which span the same affine space as differences
        # against the newest entry.
        rng = np.random.default_rng(2)
        cost = rng.uniform(size=(7, 4))
        plan = sinkhorn(cost, uniform(7), uniform(4), 0.02 * cost.mean(), tol=1e-9)
        assert ANDERSON_MEMORY < 23
        assert plan.iterations == 35
        expected = [
            [1.2860245270438042e-07, 0.14284379946920595, 1.2090501239620602e-30,
             1.3214785430913109e-05],
            [1.5065504757272277e-20, 1.7640413662140575e-18, 0.1122298747816652,
             0.030627268075519274],
            [0.06594970507843932, 7.196534828613208e-11, 2.0622479456808427e-13,
             0.07690743770655055],
            [0.005479562526177686, 1.2828851291628647e-05, 0.13736475147969246,
             4.695927005484186e-17],
            [4.2681051742525725e-30, 4.234232819722361e-10, 0.0004050630013475027,
             0.14245207943249924],
            [0.035713771672992285, 0.10714337118411366, 7.012366382287506e-25,
             3.458381289594768e-26],
            [0.1428568321199379, 3.035619001508698e-20, 3.1073708925852644e-07,
             3.059190140065542e-23],
        ]
        np.testing.assert_allclose(plan.plan, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("solver", ["sinkhorn", "sinkhorn_symmetric"])
    def test_far_warm_start_with_a_zero_weight_atom(self, solver, monkeypatch):
        # A start hundreds of LOG_BOUNDs from the solution moves the
        # potentials past the scaling bound, so the kernel, built once in
        # the first round, is rebuilt after it; the zero-weight atom takes
        # the masked violation. Neither may leak a floating-point warning.
        rng = np.random.default_rng(31)
        x = rng.standard_normal((8, 2))
        cost = squared_euclidean_cost(x, x)
        a = np.append(0.0, uniform(7))
        reg = 0.05 * cost.mean()
        f = reg * 1e4 * rng.standard_normal(8)
        calls = count_rebuilds(monkeypatch)
        if solver == "sinkhorn":
            plan = sinkhorn(cost, a, a, reg, tol=1e-9, init=(f, None))
        else:
            plan = sinkhorn_symmetric(cost, a, reg, tol=1e-9, init=f)
        assert len(calls) >= 2
        assert np.all(np.isfinite(plan.plan))
        assert not plan.plan[0].any()
        assert np.abs(plan.plan.sum(axis=1) - a).sum() <= 1e-9

    def test_nan_violation_is_not_convergence(self):
        # Both solvers stop on `violation <= tol`; a NaN violation must run
        # out of rounds, not pass as converged.
        def nan_round(u):
            return u, u, float("nan")

        with pytest.raises(SinkhornConvergenceError) as exc:
            _fixed_point(nan_round, np.zeros(3), max_iter=4, tol=1e-6)
        assert exc.value.iterations == 4
        assert np.isnan(exc.value.marginal_error)

    @pytest.mark.parametrize("max_iter, expected", [(2, [1]), (3, [1, 1]), (4, [1, 1])])
    def test_no_extra_point_is_drawn_without_a_round_for_it(self, max_iter, expected):
        # A solve out of rounds raises before it computes another point:
        # the generator is advanced only when a round is left to try it.
        # Round 1, two rejected extras (rounds 2 and 3), the plain round 4;
        # the cap stops the loop before a point it could not try is drawn.
        drawn = []

        def slow_round(u):
            return u + 1.0, u, 1.0 / (1.0 + u[0])

        def extras(u, nxt, right, it):
            for k in range(2):
                drawn.append(it)
                yield u  # never better, so every one is rejected

        with pytest.raises(SinkhornConvergenceError) as exc:
            _fixed_point(slow_round, np.zeros(1), max_iter=max_iter, tol=1e-6, extras=extras)
        assert exc.value.iterations == max_iter
        assert drawn == expected

    def test_empty_extras_run_the_plain_round(self):
        def halving_round(u):
            return 0.5 * u, u, float(np.abs(u).max())

        u, _, err, it = _fixed_point(
            halving_round, np.ones(1), max_iter=50, tol=1e-3, extras=lambda *_: iter(())
        )
        plain = _fixed_point(halving_round, np.ones(1), max_iter=50, tol=1e-3)
        assert (u, err, it) == (plain[0], plain[2], plain[3])


def warm_instance(seed, n=30, m=40):
    """A source-target problem and the duals of a nearby one, as a flow step
    leaves them: source points moved by 0.05. From that warm start the
    solve needs more than NEWTON_AFTER rounds at tol 1e-6."""
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(n, 2)), 1.0 + rng.normal(size=(m, 2))
    a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
    cost = squared_euclidean_cost(x, y)
    reg = 0.05 * cost.mean()
    nearby = sinkhorn(squared_euclidean_cost(x + 0.05 * rng.normal(size=x.shape), y), a, b, reg)
    return cost, a, b, reg, (nearby.dual_left, nearby.dual_right)


def without_newton(monkeypatch):
    """Move the Newton phase past every round cap: the solver without it."""
    monkeypatch.setattr(transport, "NEWTON_AFTER", DEFAULT_MAX_ITER)


class TestNewtonPhase:
    def test_jacobian_matches_central_differences(self):
        # r(u) are the row sums of the coupling at (u, v(u)), v(u) the exact
        # column scaling, computed here in the log domain from scratch.
        cost, a, b, reg, _ = warm_instance(0, n=12, m=9)
        k = -cost / reg

        def rows(u):
            v = -np.log(np.exp(u[:, None] + k).T @ a)
            return a * np.exp(u + np.log(np.exp(k + v) @ b))

        u = np.random.default_rng(1).normal(size=12)
        frame = _LogFrame(cost, a, b, reg)
        v = frame.softmin(u, 0, frame.a)
        r, jac = _Newton(frame).system(u, v)
        np.testing.assert_allclose(r, rows(u), rtol=1e-12)
        h = 1e-5
        columns = [(rows(u + h * e) - rows(u - h * e)) / (2 * h) for e in np.eye(12)]
        np.testing.assert_allclose(jac, np.array(columns).T, rtol=0, atol=1e-9 * np.abs(jac).max())
        # singular along the constants: (u + c, v - c) is the same coupling
        np.testing.assert_allclose(jac @ np.ones(12), 0.0, atol=1e-14)

    def test_zero_weight_atoms_keep_empty_lines(self):
        cost, a, b, reg, init = warm_instance(2)
        a[0], b[3] = 0.0, 0.0
        a, b = a / a.sum(), b / b.sum()
        cold = sinkhorn(cost, a, b, reg, tol=1e-9)
        plan = sinkhorn(cost, a, b, reg, tol=1e-9, init=init)
        assert plan.newton_steps > 0
        assert not plan.plan[0].any()
        assert not plan.plan[:, 3].any()
        assert np.abs(plan.plan.sum(axis=1) - a).sum() <= 1e-9
        np.testing.assert_allclose(plan.plan, cold.plan, rtol=0, atol=1e-9)

    def test_max_iter_caps_the_newton_phase(self):
        cost, a, b, reg, init = warm_instance(3)
        capped = []
        for cap in range(transport.NEWTON_AFTER - 1, transport.NEWTON_AFTER + 8):
            try:
                plan = sinkhorn(cost, a, b, reg, cap, 1e-13, init=init)
                assert plan.iterations <= cap
            except SinkhornConvergenceError as exc:
                assert exc.iterations == cap
                capped.append(cap)
        assert max(capped) > transport.NEWTON_AFTER  # a cap inside the phase
        assert sinkhorn(cost, a, b, reg, tol=1e-13, init=init).newton_steps > 0

    def test_cold_and_short_warm_solves_take_no_newton_step(self, monkeypatch):
        cost, a, b, reg, init = warm_instance(4)
        cold = sinkhorn(cost, a, b, reg)
        rough = sinkhorn(cost, a, b, reg, tol=1e-4)
        near = (rough.dual_left, rough.dual_right)
        short = sinkhorn(cost, a, b, reg, init=near)
        long = sinkhorn(cost, a, b, reg, init=init)
        assert cold.iterations > transport.NEWTON_AFTER
        # long enough for a step under any earlier gate
        assert 3 < short.iterations <= transport.NEWTON_AFTER
        assert (cold.newton_steps, short.newton_steps) == (0, 0)
        assert long.newton_steps > 0
        without_newton(monkeypatch)
        assert np.array_equal(sinkhorn(cost, a, b, reg).plan, cold.plan)
        assert np.array_equal(sinkhorn(cost, a, b, reg, init=near).plan, short.plan)
        assert not np.array_equal(sinkhorn(cost, a, b, reg, init=init).plan, long.plan)

    def test_rejected_candidate_leaves_the_round_to_anderson(self, monkeypatch):
        # Each candidate is worse than its iterate, so each costs one round
        # and changes nothing: the iterates are those of the solver without
        # the Newton phase.
        cost, a, b, reg, init = warm_instance(5)
        with monkeypatch.context() as patch:
            without_newton(patch)
            without = sinkhorn(cost, a, b, reg, tol=1e-9, init=init)

        def worse(self, u, v):
            self.steps += 1
            return u + 0.5 * (-1.0) ** np.arange(u.size)

        monkeypatch.setattr(_Newton, "candidate", worse)
        plan = sinkhorn(cost, a, b, reg, tol=1e-9, init=init)
        assert plan.newton_steps > 0
        assert plan.iterations == without.iterations + plan.newton_steps
        assert np.array_equal(plan.plan, without.plan)

    def test_singular_jacobian_skips_the_step(self, monkeypatch):
        cost, a, b, reg, init = warm_instance(6)
        with monkeypatch.context() as patch:
            without_newton(patch)
            without = sinkhorn(cost, a, b, reg, init=init)
        assert without.iterations > transport.NEWTON_AFTER

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        plan = sinkhorn(cost, a, b, reg, init=init)
        assert plan.newton_steps == 0
        assert plan.iterations == without.iterations
        assert np.array_equal(plan.plan, without.plan)


class TestSinkhornSymmetric:
    def test_matches_general_solver(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((15, 2))
        cost = squared_euclidean_cost(x, x)
        u = uniform(15)
        reg = 0.2
        sym = sinkhorn_symmetric(cost, u, reg, tol=1e-10)
        gen = sinkhorn(cost, u, u, reg, tol=1e-10)
        assert sym.soft_cost == pytest.approx(gen.soft_cost, abs=1e-7)
        np.testing.assert_allclose(sym.plan, sym.plan.T, atol=1e-12)

    def test_small_reg_matches_exact(self, monkeypatch):
        # The stability claim of both solvers: a cold solve at 1e-3 of the
        # mean cost, which rebuilds the absorbed kernel mid-solve.
        rng = np.random.default_rng(23)
        cost = symmetric_cost(rng, 6)
        u = uniform(6)
        exact = exact_ot(cost, u, u)
        calls = count_rebuilds(monkeypatch)
        plan = sinkhorn_symmetric(cost, u, reg=1e-3 * cost.mean(), max_iter=50_000, tol=1e-4)
        assert len(calls) > 1
        assert abs(plan.cost - exact.cost) / exact.cost < 0.01
        assert np.abs(plan.plan.sum(axis=1) - u).sum() <= 1e-4

    def test_self_divergence_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.standard_normal((12, 3))
            cost = squared_euclidean_cost(x, x)
            u = uniform(12)
            solver = dict(reg=0.3, tol=1e-6, max_iter=100_000)
            # OT(a, b) - (OT(a, a) + OT(b, b)) / 2 with b = a
            val = sinkhorn(cost, u, u, **solver).soft_cost - sinkhorn_symmetric(
                cost, u, **solver
            ).soft_cost
            assert abs(val) <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rejects_an_asymmetric_cost(self, seed):
        # Its rounds meet the row marginals; the columns of these plans miss
        # theirs by 0.39-0.58 in L1.
        cost = np.random.default_rng(seed).uniform(size=(6, 6))
        with pytest.raises(NumericError, match="not symmetric"):
            sinkhorn_symmetric(cost, uniform(6), reg=0.1)


def lstsq_extrapolant(maps, residuals):
    """Anderson's extrapolant by ``lstsq``, newest entry last."""
    r, tu = residuals[-1], maps[-1]
    gamma = np.linalg.lstsq((r - residuals[:-1]).T, r, rcond=None)[0]
    return tu - (tu - maps[:-1]).T @ gamma


def push_all(us, tus):
    accel = _Anderson(us.shape[1])
    for u, tu in zip(us, tus):
        cand = accel.push(u, tu)
    return cand


class TestAndersonStep:
    @pytest.mark.parametrize("entries", [ANDERSON_MEMORY, ANDERSON_MEMORY + 3])
    def test_normal_equations_match_lstsq(self, entries):
        # A well-conditioned random history of 120-vectors, with and without
        # the ring wrapping; the extrapolant reads the last ANDERSON_MEMORY.
        rng = np.random.default_rng(40)
        us = rng.standard_normal((entries, 120))
        tus = us + rng.standard_normal((entries, 120))
        last = slice(-ANDERSON_MEMORY, None)
        expected = lstsq_extrapolant(tus[last], (tus - us)[last])
        np.testing.assert_allclose(push_all(us, tus), expected, rtol=1e-10, atol=0)

    def test_singular_gram_falls_back_to_lstsq(self, monkeypatch):
        # The newest residual repeats the oldest one exactly (integer
        # entries), so one difference is zero and the Gram matrix singular.
        rng = np.random.default_rng(41)
        us = rng.integers(-9, 9, size=(3, 10)).astype(float)
        residuals = rng.integers(-9, 9, size=(3, 10)).astype(float)
        residuals[2] = residuals[0]
        tus = us + residuals
        expected = lstsq_extrapolant(tus, residuals)
        fallbacks = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            fallbacks.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        cand = push_all(us, tus)
        assert len(fallbacks) == 1
        np.testing.assert_allclose(cand, expected, rtol=1e-12, atol=1e-12)

    def test_more_differences_than_dimensions_take_lstsq(self, monkeypatch):
        # Five differences of 3-vectors have a singular Gram matrix, which
        # rounding can hide from inv; the fifth and sixth pushes (four and
        # five differences) must take lstsq, the earlier ones inv.
        rng = np.random.default_rng(45)
        us = rng.standard_normal((ANDERSON_MEMORY, 3))
        tus = us + rng.standard_normal((ANDERSON_MEMORY, 3))
        calls = []
        for name in ("inv", "lstsq"):
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        cand = push_all(us, tus)
        assert calls == ["inv", "inv", "inv", "lstsq", "lstsq"]
        np.testing.assert_allclose(cand, lstsq_extrapolant(tus, tus - us), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_few_source_atoms_match_exact(self, n):
        # With n <= 5 source atoms, up to ANDERSON_MEMORY - 1 differences
        # of n-vectors are rank-deficient: the Gram matrix is singular or
        # nearly so.
        rng = np.random.default_rng(42 + n)
        for m in (2, 5, 9):
            cost = rng.uniform(size=(n, m))
            a = rng.uniform(0.2, 1.0, n); a /= a.sum()
            b = rng.uniform(0.2, 1.0, m); b /= b.sum()
            tol = 1e-4
            plan = sinkhorn(cost, a, b, 1e-3 * cost.mean(), max_iter=100_000, tol=tol)
            assert plan.marginal_error <= tol
            assert np.abs(plan.plan.sum(axis=1) - a).sum() <= tol
            exact = exact_ot(cost, a, b)
            assert abs(plan.cost - exact.cost) / exact.cost < 0.01


class TestViolation:
    def test_dot_path_equals_masked_path(self):
        rng = np.random.default_rng(43)
        a = rng.uniform(0.2, 1.0, 50); a /= a.sum()
        u = rng.standard_normal(50)
        t = u + 1e-3 * rng.standard_normal(50)
        assert _violation(a, None, u, t) == pytest.approx(
            _violation(a, a > 0, u, t), rel=1e-14, abs=0
        )

    def test_zero_weight_atoms_are_excluded(self):
        rng = np.random.default_rng(44)
        a = np.append(uniform(4), [0.0, 0.0])
        u = rng.standard_normal(6)
        t = u + 1e-3 * rng.standard_normal(6)
        # exp(u - t) overflows on the zero-weight atoms: 0 * inf is NaN.
        t[4:] = u[4:] - 1e4
        with np.errstate(over="ignore", invalid="ignore"):
            err = _violation(a, a > 0, u, t)
        expected = sum(a[i] * abs(np.expm1(u[i] - t[i])) for i in range(4))
        assert err == pytest.approx(expected, rel=1e-14, abs=0)

    def test_frame_takes_the_dot_path_only_without_zero_weights(self):
        cost = np.ones((3, 3))
        assert _LogFrame(cost, uniform(3), uniform(3), 0.1).live is None
        live = _LogFrame(cost, np.array([0.5, 0.0, 0.5]), uniform(3), 0.1).live
        np.testing.assert_array_equal(live, [True, False, True])


class TestExactOt:
    def test_2x2_antidiagonal(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = exact_ot(cost, uniform(2), uniform(2))
        np.testing.assert_allclose(plan.plan, np.diag([0.5, 0.5]), atol=1e-9)
        assert plan.cost == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            cost = rng.uniform(size=(n, n))
            plan = exact_ot(cost, uniform(n), uniform(n))
            assert plan.cost == pytest.approx(brute_force_assignment(cost), abs=1e-10)

    def test_forced_row(self):
        rng = np.random.default_rng(10)
        cost = rng.uniform(size=(1, 4))
        b = np.array([0.1, 0.2, 0.3, 0.4])
        plan = exact_ot(cost, np.array([1.0]), b)
        np.testing.assert_allclose(plan.plan[0], b, atol=1e-9)
        assert plan.cost == pytest.approx(float(b @ cost[0]), abs=1e-10)

    def test_general_weights_lp(self):
        rng = np.random.default_rng(11)
        cost = rng.uniform(size=(4, 6))
        a = rng.uniform(0.5, 1.0, 4); a /= a.sum()
        b = rng.uniform(0.5, 1.0, 6); b /= b.sum()
        # uniform square instances solve the same LP and read the same duals
        instances = [(cost, a, b)] + [
            (rng.uniform(size=(n, n)), uniform(n), uniform(n)) for n in (9, 40)
        ]
        for cost, a, b in instances:
            plan = exact_ot(cost, a, b)
            np.testing.assert_allclose(plan.plan.sum(axis=1), a, atol=1e-8)
            np.testing.assert_allclose(plan.plan.sum(axis=0), b, atol=1e-8)
            # strong duality: dual value equals primal cost
            dual = plan.dual_left @ a + plan.dual_right @ b
            assert dual == pytest.approx(plan.cost, abs=1e-7)
            slack = plan.dual_left[:, None] + plan.dual_right[None, :] - cost
            assert slack.max() <= 1e-7

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            exact_ot(np.zeros((65, 65)), uniform(65), uniform(65))


class TestPositionGrad:
    def test_single_pair(self):
        x = np.array([[1.0, 2.0]])
        y = np.array([[0.0, 0.0]])
        plan = sinkhorn(squared_euclidean_cost(x, y), uniform(1), uniform(1), reg=0.1)
        g = ot_position_grad(plan, x, y)
        np.testing.assert_allclose(g, 2.0 * (x - y), atol=1e-9)

    def test_matches_finite_differences_of_soft_value(self):
        rng = np.random.default_rng(12)
        n, d = 5, 2
        reg_frac = 0.1
        for _ in range(5):
            x = rng.standard_normal((n, d))
            y = rng.standard_normal((n, d)) + 0.5
            u = uniform(n)
            reg = reg_frac * squared_euclidean_cost(x, y).mean()

            def value(xf):
                c = squared_euclidean_cost(xf.reshape(n, d), y)
                return sinkhorn(c, u, u, reg, tol=1e-12, max_iter=20_000).soft_cost

            plan = sinkhorn(squared_euclidean_cost(x, y), u, u, reg, tol=1e-12, max_iter=20_000)
            g = ot_position_grad(plan, x, y)
            h = 1e-5
            for idx in [(0, 0), (2, 1), (4, 0)]:
                e = np.zeros((n, d)); e[idx] = h
                fd = (value((x + e).ravel()) - value((x - e).ravel())) / (2 * h)
                assert abs(fd - g[idx]) / max(abs(fd), np.abs(g).max(), 1e-8) < 1e-3

    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_brute_force_sum(self, d):
        # sum_j plan_ij * 2 (x_i - y_j), one pair at a time, on n != m.
        rng = np.random.default_rng(14 + d)
        n, m = 7, 5
        x = rng.standard_normal((n, d))
        y = rng.standard_normal((m, d)) + 0.5
        plan = sinkhorn(squared_euclidean_cost(x, y), uniform(n), uniform(m), reg=0.5)
        g = ot_position_grad(plan, x, y)
        assert g.shape == (n, d)
        expected = np.zeros((n, d))
        for i in range(n):
            for j in range(m):
                expected[i] += plan.plan[i, j] * 2.0 * (x[i] - y[j])
        np.testing.assert_allclose(g, expected, rtol=1e-12, atol=1e-15)

    def test_debiased_gradient_vanishes_at_self(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((8, 2))
        u = uniform(8)
        cost = squared_euclidean_cost(x, x)
        reg = 0.2 * cost.mean()
        plan_ab = sinkhorn(cost, u, u, reg, tol=1e-7, max_iter=200_000)
        plan_aa = sinkhorn_symmetric(cost, u, reg, tol=1e-7, max_iter=200_000)
        g = ot_position_grad(plan_ab, x, x)
        sym = 0.5 * (plan_aa.plan + plan_aa.plan.T)
        g_corr = 2.0 * (sym.sum(axis=1)[:, None] * x - sym @ x)
        scale = float(np.abs(x).max())
        assert np.linalg.norm(g - g_corr) <= 1e-5 * scale
