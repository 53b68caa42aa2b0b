"""LP/ILP solver contract tests."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2aflow import lp
from a2aflow.graphs import gen_gen_kautz, gen_torus
from a2aflow.lp import (INFEASIBLE, ITERATION_LIMIT, NUMERICAL, OPTIMAL,
                        LpError, LpModel, solve_ilp, solve_lp)
from a2aflow.mcf import _build_master_model, _commodities
from a2aflow.paths import RouteError, disjoint_paths, ilp_min_congestion


class TestSolveLp:
    """Every model minimizes; max c.x is solved as min -c.x."""

    def test_simple_max(self):
        # max x + y st x + 2y <= 4, 3x + y <= 6
        m = LpModel(c=np.array([-1.0, -1.0]),
                    a_ub=np.array([[1.0, 2.0], [3.0, 1.0]]),
                    b_ub=np.array([4.0, 6.0]))
        s = solve_lp(m)
        assert s.status == OPTIMAL
        assert s.objective == pytest.approx(-2.8, abs=1e-8)
        assert s.x == pytest.approx([1.6, 1.2], abs=1e-8)

    def test_min_with_equality(self):
        # min x + y st x + y = 2 (as x + y <= 2, -x - y <= -2), x - y <= 1
        m = LpModel(c=np.array([1.0, 1.0]),
                    a_ub=np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]]),
                    b_ub=np.array([1.0, 2.0, -2.0]))
        s = solve_lp(m)
        assert s.status == OPTIMAL
        assert s.objective == pytest.approx(2.0, abs=1e-8)

    def test_bounded_variables(self):
        m = LpModel(c=np.array([-1.0]), ub=np.array([3.5]))
        s = solve_lp(m)
        assert s.objective == pytest.approx(-3.5, abs=1e-9)

    def test_negative_upper_bound_rejected(self):
        with pytest.raises(LpError, match="ub < 0"):
            LpModel(c=np.array([1.0, 1.0]), ub=np.array([1.0, -0.5]))

    def test_infeasible(self):
        m = LpModel(c=np.array([-1.0]),
                    a_ub=np.array([[1.0], [-1.0]]),
                    b_ub=np.array([1.0, -2.0]))
        s = solve_lp(m)
        assert s.status == "infeasible"

    def test_unbounded(self):
        m = LpModel(c=np.array([-1.0]))
        s = solve_lp(m)
        assert s.status == "unbounded"

    def test_degenerate(self):
        # redundant constraints stacked on the same vertex
        m = LpModel(c=np.array([-1.0, -1.0]),
                    a_ub=np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                   [0.0, 1.0]]),
                    b_ub=np.array([1.0, 1.0, 2.0, 1.0]))
        s = solve_lp(m)
        assert s.objective == pytest.approx(-2.0, abs=1e-8)

    def test_duals_sign_and_value(self):
        # max 3x + 2y st x + y <= 4, x <= 2 ; as min -3x - 2y the <= rows
        # price at <= 0: duals (-2, -1)
        m = LpModel(c=np.array([-3.0, -2.0]),
                    a_ub=np.array([[1.0, 1.0], [1.0, 0.0]]),
                    b_ub=np.array([4.0, 2.0]))
        s = solve_lp(m)
        assert s.objective == pytest.approx(-10.0, abs=1e-8)
        assert s.duals_ub == pytest.approx([-2.0, -1.0], abs=1e-7)


class TestDualCertificate:
    """Strong duality from the returned duals, checked without the engine."""

    # c is drawn from a symmetric range, so min c.x covers max -c.x too
    @given(st.integers(min_value=0, max_value=10 ** 6), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_lps_meet_strong_duality(self, seed, with_eq):
        rng = np.random.default_rng(seed)
        n, k = 4, 5
        A = rng.uniform(-1, 1, size=(k, n))
        x0 = rng.uniform(0, 1, size=n)
        b = A @ x0 + rng.uniform(0.1, 1.0, size=k)   # strictly feasible
        c = rng.uniform(-1, 1, size=n)
        lb, ub = np.zeros(n), np.full(n, 5.0)
        if with_eq:
            # a_eq @ x = a_eq @ x0, as two opposite <= rows
            a_eq = rng.uniform(-1, 1, size=(1, n))
            A = np.vstack([A, a_eq, -a_eq])
            b = np.r_[b, a_eq @ x0, -(a_eq @ x0)]
        m = LpModel(c=c, a_ub=A, b_ub=b, ub=ub)
        s = solve_lp(m)
        assert s.status == OPTIMAL
        x, y = s.x, s.duals_ub
        # primal feasibility, within 1e-9 of the equality row when there is one
        assert np.all(A @ x <= b + 1e-9)
        assert np.all((x >= lb - 1e-9) & (x <= ub + 1e-9))
        # dual sign: <= rows price at <= 0
        assert np.all(y <= 1e-12)
        # reduced costs; each nonzero one is paid at the bound it points at
        r = c - A.T @ y
        bound = np.where(r > 0, lb, ub)
        assert np.all(np.isfinite(bound[r != 0]))
        dual_obj = b @ y + r[r != 0] @ bound[r != 0]
        primal_obj = c @ x
        assert s.objective == pytest.approx(primal_obj, abs=1e-12)
        assert abs(primal_obj - dual_obj) <= 1e-7 * (1 + abs(primal_obj))


class TestHighsStatus:
    @pytest.mark.parametrize("code,status", [
        (2, INFEASIBLE), (4, NUMERICAL), (9, "highs-status-9")])
    def test_only_status_2_is_infeasible(self, monkeypatch, code, status):
        import scipy.optimize

        monkeypatch.setattr(
            scipy.optimize, "linprog",
            lambda *a, **k: scipy.optimize.OptimizeResult(
                status=code, x=None, nit=0, message="stub"))
        m = LpModel(c=np.array([-1.0]),
                    a_ub=np.array([[1.0]]), b_ub=np.array([1.0]))
        s = solve_lp(m)
        assert s.status == status and not s.optimal


def _master(g):
    comms = _commodities(g, None)
    return _build_master_model(g, np.arange(g.n), comms[0], comms)


def _pair_model(a: float, b: float):
    """min load st a x0 - load <= 0, b x1 - load <= 0 and x0 + x1 = 1,
    written as x0 + x1 <= 1, -x0 - x1 <= -1: x0 and x1 are interchangeable
    exactly when a == b."""
    return LpModel(c=np.array([0.0, 0.0, 1.0]),
                   a_ub=np.array([[a, 0.0, -1.0], [0.0, b, -1.0],
                                  [1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]),
                   b_ub=np.array([0.0, 0.0, 1.0, -1.0]))


class TestQuotient:
    """Every continuous solve runs on the colour-refined quotient."""

    # 4,097 -> 45 and 2,809 -> 1,405 columns
    @pytest.mark.parametrize("make, size", [
        (lambda: gen_torus([8, 4]), 45), (lambda: gen_gen_kautz(27, 4), 1405),
    ], ids=["torus8x4", "genkautz27"])
    def test_symmetric_master_lp(self, make, size):
        model = _master(make())
        full = solve_lp(model)
        assert full.optimal and full.solved_vars == size
        # the quotient's own optimum, at a vertex, is the model's
        small, rows, cols = lp._quotient(model)
        assert small.n_vars == size
        q = lp._lift(model, lp._linprog(small, "highs"), rows, cols)
        assert q.objective == pytest.approx(full.objective, rel=1e-9)
        for sol in (full, q):
            x, y = sol.x, sol.duals_ub
            assert x.shape == (model.n_vars,) and y.shape == model.b_ub.shape
            # the lifted x is feasible
            assert (model.a_ub @ x <= model.b_ub + 1e-9).all()
            assert ((x >= -1e-9) & (x <= model.ub + 1e-9)).all()
            # the quotient's objective is the model's c.x
            assert sol.objective == pytest.approx(model.c @ x, rel=1e-12)
            # the lifted duals are dual-feasible (<= 0, reduced costs >= 0
            # on the columns without an upper bound; x >= 0 and ub is 0 or
            # inf) with the same objective
            assert (y <= 1e-12).all()
            r = model.c - model.a_ub.T @ y
            assert r[np.isinf(model.ub)].min() >= -1e-9
            assert model.b_ub @ y == pytest.approx(sol.objective, rel=1e-9)

    def test_equality_rows_lift(self):
        # the quotient keeps the pair x0 + x1 <= 1, -x0 - x1 <= -1 as
        # 2 y0 <= 1, -2 y0 <= -1; its lifted x meets x0 + x1 = 1 and the
        # pair's lifted duals net to the equality's dual, 8
        m = _pair_model(16.0, 16.0)
        small, rows, cols = lp._quotient(m)
        a = small.a_ub.toarray()
        for rhs in (1.0, -1.0):
            (i,) = np.flatnonzero(small.b_ub == rhs)
            assert a[i] == pytest.approx([2.0 * rhs, 0.0])
        q = lp._lift(m, lp._linprog(small, "highs"), rows, cols)
        assert q.x[0] + q.x[1] == pytest.approx(1.0, rel=1e-9)
        for sol in (q, solve_lp(m)):
            assert sol.duals_ub[2] - sol.duals_ub[3] == pytest.approx(
                8.0, rel=1e-7)

    def test_vertex_solves_refine(self):
        # the 2-column quotient's vertex lifts to x and duals on the model,
        # the equality pair included
        s = solve_lp(_pair_model(16.0, 16.0))
        assert s.optimal and s.solved_vars == 2
        assert s.objective == pytest.approx(8.0, rel=1e-8)
        assert s.x == pytest.approx([0.5, 0.5, 8.0], rel=1e-8)
        assert s.duals_ub[:2] == pytest.approx([-0.5, -0.5], rel=1e-7)
        assert s.duals_ub[2] - s.duals_ub[3] == pytest.approx(8.0, rel=1e-7)

    # the duals of the first rows: the pair's are not unique, only their net
    @pytest.mark.parametrize("model, x, duals_ub", [
        (_pair_model(17.0, 16.0), [16 / 33, 17 / 33, 17 * 16 / 33],
         [-16 / 33, -17 / 33]),
        (LpModel(c=np.array([-1.0, -1.0]),
                 a_ub=np.array([[1.0, 2.0], [3.0, 1.0]]),
                 b_ub=np.array([4.0, 6.0])), [1.6, 1.2], [-0.4, -0.2]),
    ], ids=["equality-rows", "no-equality-rows"])
    def test_no_symmetry_solves_as_is(self, model, x, duals_ub):
        s = solve_lp(model)
        assert s.optimal and s.solved_vars == model.n_vars
        assert s.x == pytest.approx(x, rel=1e-8)
        assert s.objective == pytest.approx(model.c @ x, rel=1e-8)
        assert s.duals_ub[:len(duals_ub)] == pytest.approx(duals_ub, abs=1e-7)

    def test_non_equitable_partition_rejected(self, monkeypatch):
        # keep the starting classes: x0 and x1 share (c, ub) and the two
        # load rows their rhs, but 17 != 16, so A @ P is not constant on
        # the row class
        m = _pair_model(17.0, 16.0)
        monkeypatch.setattr(lp, "_refine", lambda a, rows, cols: (rows, cols))
        assert lp._quotient(m) is None
        s = solve_lp(m)
        assert s.optimal and s.solved_vars == 3
        assert s.objective == pytest.approx(17 * 16 / 33, rel=1e-8)


def _stub_milp(monkeypatch, **result):
    import scipy.optimize

    monkeypatch.setattr(
        scipy.optimize, "milp",
        lambda *a, **k: scipy.optimize.OptimizeResult(message="stub", **result))


def _choice_model():
    """min load st 17 x0 - load <= 0, 16 x1 - load <= 0 and x0 + x1 = 1,
    written as x0 + x1 <= 1, -x0 - x1 <= -1."""
    return LpModel(c=np.array([0.0, 0.0, 1.0]),
                   a_ub=np.array([[17.0, 0.0, -1.0], [0.0, 16.0, -1.0],
                                  [1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]),
                   b_ub=np.array([0.0, 0.0, 1.0, -1.0]),
                   ub=np.array([1.0, 1.0, np.inf]),
                   integrality=np.array([True, True, False]))


class TestSolveIlp:
    """Every model minimizes; max c.x is solved as min -c.x."""

    def test_knapsack(self):
        m = LpModel(c=np.array([-10.0, -13.0, -6.0]),
                    a_ub=np.array([[5.0, 7.0, 4.0]]), b_ub=np.array([12.0]),
                    ub=np.ones(3), integrality=np.ones(3, dtype=bool))
        s = solve_ilp(m)
        assert s.status == OPTIMAL
        assert s.objective == pytest.approx(-23.0)
        assert s.gap == pytest.approx(0.0, abs=1e-9)

    def test_integral_relaxation_shortcut(self):
        # totally unimodular: relaxation already integral
        m = LpModel(c=np.array([-1.0, -1.0]),
                    a_ub=np.array([[1.0, 0.0], [0.0, 1.0]]),
                    b_ub=np.array([2.0, 3.0]),
                    integrality=np.ones(2, dtype=bool))
        s = solve_ilp(m)
        assert s.objective == pytest.approx(-5.0)

    def test_mixed_integer(self):
        # x integer, y continuous: max x + y st 2x + y <= 5.5, y <= 1.2
        m = LpModel(c=np.array([-1.0, -1.0]),
                    a_ub=np.array([[2.0, 1.0], [0.0, 1.0]]),
                    b_ub=np.array([5.5, 1.2]),
                    integrality=np.array([True, False]))
        s = solve_ilp(m)
        assert s.x[0] == pytest.approx(round(s.x[0]), abs=1e-9)
        assert s.objective == pytest.approx(-3.2)

    def test_alpha_early_stop(self):
        m = LpModel(c=np.array([-10.0, -13.0, -6.0]),
                    a_ub=np.array([[5.0, 7.0, 4.0]]), b_ub=np.array([12.0]),
                    ub=np.ones(3), integrality=np.ones(3, dtype=bool))
        s = solve_ilp(m, alpha=0.5)
        assert s.status == OPTIMAL
        # the knapsack's value is within (1 + alpha) of its optimum, 23
        assert -s.objective >= 23.0 / 1.5 - 1e-9

    def test_infeasible_ilp(self):
        m = LpModel(c=np.array([-1.0]),
                    a_ub=np.array([[2.0], [-2.0]]),
                    b_ub=np.array([1.0, -1.5]),   # forces 0.75 <= x <= 0.5
                    ub=np.array([1.0]),
                    integrality=np.ones(1, dtype=bool))
        s = solve_ilp(m)
        assert s.status == "infeasible"

    def test_node_limit_reports_gap(self, monkeypatch):
        # a limit stops HiGHS with an incumbent 17 above a proven bound 16
        _stub_milp(monkeypatch, status=1, x=np.array([1.0, 0.0, 17.0]),
                  fun=17.0, mip_dual_bound=16.0)
        s = solve_ilp(_choice_model())
        assert s.status == ITERATION_LIMIT and not s.optimal
        assert s.objective == pytest.approx(17.0)
        assert s.gap == pytest.approx(1 / 16) and s.gap >= 0.0

    def test_limit_without_incumbent_raises_route_error(self, monkeypatch):
        _stub_milp(monkeypatch, status=1, x=None)
        g = gen_torus([3], bidirectional=False)
        with pytest.raises(RouteError, match=ITERATION_LIMIT):
            ilp_min_congestion(g, disjoint_paths(g))

    def test_status_2_is_infeasible(self, monkeypatch):
        _stub_milp(monkeypatch, status=2, x=None)
        s = solve_ilp(_choice_model())
        assert s.status == INFEASIBLE and s.x is None

