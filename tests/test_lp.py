"""LP/ILP solver contract tests, run against both backends."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a2aflow.lp import (INFEASIBLE, ITERATION_LIMIT, NUMERICAL, OPTIMAL,
                        LpModel, LpOptions, available_backends, solve_ilp,
                        solve_lp)

BACKENDS = ["external", "reference"]


def opts(backend):
    return LpOptions(solver=backend)


@pytest.mark.parametrize("backend", BACKENDS)
class TestSolveLp:
    def test_simple_max(self, backend):
        # max x + y st x + 2y <= 4, 3x + y <= 6
        m = LpModel(c=np.array([1.0, 1.0]), sense="max",
                    a_ub=np.array([[1.0, 2.0], [3.0, 1.0]]),
                    b_ub=np.array([4.0, 6.0]))
        s = solve_lp(m, opts(backend))
        assert s.status == OPTIMAL
        assert s.objective == pytest.approx(2.8, abs=1e-8)
        assert s.x == pytest.approx([1.6, 1.2], abs=1e-8)

    def test_min_with_equality(self, backend):
        # min x + y st x + y = 2, x - y <= 1
        m = LpModel(c=np.array([1.0, 1.0]), sense="min",
                    a_ub=np.array([[1.0, -1.0]]), b_ub=np.array([1.0]),
                    a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([2.0]))
        s = solve_lp(m, opts(backend))
        assert s.status == OPTIMAL
        assert s.objective == pytest.approx(2.0, abs=1e-8)

    def test_bounded_variables(self, backend):
        m = LpModel(c=np.array([1.0]), sense="max",
                    ub=np.array([3.5]))
        s = solve_lp(m, opts(backend))
        assert s.objective == pytest.approx(3.5, abs=1e-9)

    def test_infeasible(self, backend):
        m = LpModel(c=np.array([1.0]), sense="max",
                    a_ub=np.array([[1.0], [-1.0]]),
                    b_ub=np.array([1.0, -2.0]))
        s = solve_lp(m, opts(backend))
        assert s.status == "infeasible"

    def test_unbounded(self, backend):
        m = LpModel(c=np.array([1.0]), sense="max")
        s = solve_lp(m, opts(backend))
        assert s.status == "unbounded"

    def test_degenerate(self, backend):
        # redundant constraints stacked on the same vertex
        m = LpModel(c=np.array([1.0, 1.0]), sense="max",
                    a_ub=np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                   [0.0, 1.0]]),
                    b_ub=np.array([1.0, 1.0, 2.0, 1.0]))
        s = solve_lp(m, opts(backend))
        assert s.objective == pytest.approx(2.0, abs=1e-8)

    def test_duals_sign_and_value(self, backend):
        # max 3x + 2y st x + y <= 4, x <= 2 ; duals (2, 1)
        m = LpModel(c=np.array([3.0, 2.0]), sense="max",
                    a_ub=np.array([[1.0, 1.0], [1.0, 0.0]]),
                    b_ub=np.array([4.0, 2.0]))
        s = solve_lp(m, opts(backend))
        assert s.objective == pytest.approx(10.0, abs=1e-8)
        assert s.duals_ub == pytest.approx([2.0, 1.0], abs=1e-7)


class TestBackendAgreement:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_random_feasible_lps_agree(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 4, 5
        A = rng.uniform(-1, 1, size=(k, n))
        x0 = rng.uniform(0, 1, size=n)
        b = A @ x0 + rng.uniform(0.1, 1.0, size=k)   # strictly feasible
        c = rng.uniform(-1, 1, size=n)
        m = LpModel(c=c, sense="max", a_ub=A, b_ub=b, ub=np.full(n, 5.0))
        s1 = solve_lp(m, opts("external"))
        s2 = solve_lp(m, opts("reference"))
        assert s1.status == OPTIMAL and s2.status == OPTIMAL
        assert s1.objective == pytest.approx(s2.objective, abs=1e-6)

    def test_available_backends(self):
        names = available_backends()
        assert "external" in names and "reference" in names


class TestHighsStatus:
    @pytest.mark.parametrize("code,status", [
        (2, INFEASIBLE), (4, NUMERICAL), (9, "highs-status-9")])
    def test_only_status_2_is_infeasible(self, monkeypatch, code, status):
        import scipy.optimize

        monkeypatch.setattr(
            scipy.optimize, "linprog",
            lambda *a, **k: scipy.optimize.OptimizeResult(
                status=code, x=None, nit=0, message="stub"))
        m = LpModel(c=np.array([1.0]), sense="max",
                    a_ub=np.array([[1.0]]), b_ub=np.array([1.0]))
        s = solve_lp(m)
        assert s.status == status and not s.optimal


class TestSolveIlp:
    def test_knapsack(self):
        m = LpModel(c=np.array([10.0, 13.0, 6.0]), sense="max",
                    a_ub=np.array([[5.0, 7.0, 4.0]]), b_ub=np.array([12.0]),
                    ub=np.ones(3), integrality=np.ones(3, dtype=bool))
        s = solve_ilp(m)
        assert s.status == OPTIMAL
        assert s.objective == pytest.approx(23.0)
        assert s.gap == pytest.approx(0.0, abs=1e-9)

    def test_integral_relaxation_shortcut(self):
        # totally unimodular: relaxation already integral
        m = LpModel(c=np.array([1.0, 1.0]), sense="max",
                    a_ub=np.array([[1.0, 0.0], [0.0, 1.0]]),
                    b_ub=np.array([2.0, 3.0]),
                    integrality=np.ones(2, dtype=bool))
        s = solve_ilp(m)
        assert s.objective == pytest.approx(5.0)

    def test_mixed_integer(self):
        # x integer, y continuous: max x + y st 2x + y <= 5.5, y <= 1.2
        m = LpModel(c=np.array([1.0, 1.0]), sense="max",
                    a_ub=np.array([[2.0, 1.0], [0.0, 1.0]]),
                    b_ub=np.array([5.5, 1.2]),
                    integrality=np.array([True, False]))
        s = solve_ilp(m)
        assert s.x[0] == pytest.approx(round(s.x[0]), abs=1e-9)
        assert s.objective == pytest.approx(3.2)

    def test_alpha_early_stop(self):
        m = LpModel(c=np.array([10.0, 13.0, 6.0]), sense="max",
                    a_ub=np.array([[5.0, 7.0, 4.0]]), b_ub=np.array([12.0]),
                    ub=np.ones(3), integrality=np.ones(3, dtype=bool))
        s = solve_ilp(m, alpha=0.5)
        assert s.status == OPTIMAL
        # incumbent within (1 + alpha) of the proven bound
        assert s.objective >= 23.0 / 1.5 - 1e-9

    def test_infeasible_ilp(self):
        m = LpModel(c=np.array([1.0]), sense="max",
                    a_ub=np.array([[2.0], [-2.0]]),
                    b_ub=np.array([1.0, -1.5]),   # forces 0.75 <= x <= 0.5
                    ub=np.array([1.0]),
                    integrality=np.ones(1, dtype=bool))
        s = solve_ilp(m)
        assert s.status == "infeasible"

    def test_node_limit_reports_gap(self):
        rng = np.random.default_rng(1)
        n = 18
        w = rng.uniform(1, 10, size=n)
        v = w + rng.uniform(0, 1, size=n)
        m = LpModel(c=v, sense="max", a_ub=w.reshape(1, -1),
                    b_ub=np.array([w.sum() / 2]), ub=np.ones(n),
                    integrality=np.ones(n, dtype=bool))
        s = solve_ilp(m, options=LpOptions(node_limit=3))
        assert s.status in (OPTIMAL, ITERATION_LIMIT)
        if s.x is not None:
            assert s.gap >= 0.0
