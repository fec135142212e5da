"""Benchmark problem definitions: values, gradients, generators, CSV loader."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rlbfgsb as rb
from rlbfgsb import (
    ProductPoint,
    ProductTangent,
    bss_problem,
    cpc_problem,
    euclidean_suite,
    load_class_csv,
    synth_bss,
    synth_cpc,
)
from rlbfgsb.problems import _log_cosh


def fd_slope_check(problem, point, rng, n_dirs=20, h=1e-6, rtol=1e-5):
    """Central finite differences of the cost through the retraction."""
    geom = problem.geometry
    grad = problem.gradient(point)
    for _ in range(n_dirs):
        v = geom.random_tangent(point, rng)
        nv = geom.norm(point, v)
        if nv == 0:
            continue
        v = (1.0 / nv) * v
        fp = problem.cost(geom.retract(point, h * v))
        fm = problem.cost(geom.retract(point, (-h) * v))
        fd = (fp - fm) / (2.0 * h)
        an = geom.inner(point, grad, v)
        assert abs(fd - an) <= rtol * (1.0 + abs(fd))


def interior_point(problem, rng, margin=0.05):
    """Random feasible point kept away from the bounds (keeps FD smooth)."""
    geom = problem.geometry
    p = geom.random_point(rng)
    lo = np.where(np.isfinite(geom.box.lower), geom.box.lower + margin, -1.0)
    hi = np.where(np.isfinite(geom.box.upper), geom.box.upper - margin, 1.0)
    p.euclidean = lo + (hi - lo) * rng.random(geom.box.n)
    return p


class TestEuclideanSuite:
    def test_suite_contents(self):
        suite = euclidean_suite()
        names = [p.name for p in suite]
        assert names == ["BRANIN", "CAMEL6", "HS4", "HS5", "HS38", "HS45"]
        for p in suite:
            assert p.initial_point is not None
            assert p.geometry.box.contains(p.initial_point.euclidean)

    def test_hs45_at_upper_bounds(self):
        hs45 = euclidean_suite()[5]
        x = ProductPoint([1.0, 2.0, 3.0, 4.0, 5.0])
        assert hs45.cost(x) == 1.0
        g = hs45.gradient(x).euclidean
        expected = [-np.prod(np.delete([1.0, 2, 3, 4, 5], i)) / 120.0 for i in range(5)]
        assert_allclose(g, expected)
        geom = hs45.geometry
        assert geom.norm(x, geom.project_tangent_cone(x, -hs45.gradient(x))) == 0.0

    def test_hs4_reference_point(self):
        hs4 = euclidean_suite()[2]
        assert_allclose(hs4.cost(ProductPoint([1.0, 0.0])), 8.0 / 3.0, rtol=1e-12)

    def test_branin_global_minimum(self):
        branin = euclidean_suite()[0]
        for x in ([math.pi, 2.275], [-math.pi, 12.275], [9.42478, 2.475]):
            assert abs(branin.cost(ProductPoint(x)) - 0.3979) <= 1e-3

    def test_gradients_match_finite_differences(self, rng):
        for prob in euclidean_suite():
            fd_slope_check(prob, interior_point(prob, rng), rng, n_dirs=10)


class TestBss:
    def test_zero_residual_at_truth(self):
        inst = synth_bss(k=2, r=4, n=30, amplitude=1.0, seed=0, lam=0.0, noise=0.0)
        prob = bss_problem(inst)
        w = inst.mixing.T
        p = ProductPoint(inst.sources.ravel(), w)
        assert abs(prob.cost(p)) <= 1e-20
        g = prob.gradient(p)
        assert np.max(np.abs(g.euclidean)) <= 1e-12

    def test_zero_sources_penalty_free(self, rng):
        inst = synth_bss(k=2, r=3, n=10, amplitude=1.0, seed=1, lam=0.5)
        prob = bss_problem(inst)
        w = prob.geometry.manifold.random_point(rng)
        p = ProductPoint(np.zeros(2 * 10), w)
        wx = w @ inst.X
        # log cosh 0 = 0 so only the residual term remains
        assert_allclose(prob.cost(p), 0.5 * np.sum(wx**2), rtol=1e-12)
        assert_allclose(prob.gradient(p).euclidean, (-wx).ravel(), rtol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        inst = synth_bss(k=3, r=3, n=20, amplitude=1.0, seed=3, lam=0.1)
        prob = bss_problem(inst)
        for _ in range(3):
            fd_slope_check(prob, interior_point(prob, rng), rng, n_dirs=7)

    def test_synth_deterministic(self):
        a = synth_bss(k=3, r=3, n=50, amplitude=1.0, seed=9)
        b = synth_bss(k=3, r=3, n=50, amplitude=1.0, seed=9)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.sources, b.sources)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            synth_bss(k=4, r=3, n=10, amplitude=1.0, seed=0)

    def test_log_cosh_matches_logaddexp(self, rng):
        # The cost's written-out log cosh agrees with the logaddexp form to
        # about an ulp of log 2, keeps +-0 at zero and +-inf at inf, and
        # propagates NaN.
        s = np.concatenate(
            [
                [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-300, 18.5, -18.5],
                np.linspace(-800.0, 800.0, 16001),
                rng.uniform(-1.0, 1.0, 4000),
            ]
        )
        with np.errstate(invalid="ignore"):  # logaddexp(inf, -inf) on the reference side
            ref = np.logaddexp(s, -s) - math.log(2.0)
        got = _log_cosh(s)
        assert_allclose(got, ref, rtol=0.0, atol=4.5e-16)
        assert np.array_equal(np.isnan(got), np.isnan(s))
        assert got[0] == 0.0 and got[1] == 0.0
        assert got[2] == np.inf and got[3] == np.inf
        assert np.array_equal(got, _log_cosh(-s), equal_nan=True)


class TestCpc:
    def test_identity_covariance_balance(self):
        inst = rb.CpcInstance(
            covariances=[np.eye(3)], weights=np.array([7.0]), d_min=0.1, d_max=10.0
        )
        prob = cpc_problem(inst)
        p = ProductPoint(np.ones(3), np.eye(3))
        assert_allclose(prob.cost(p), 7.0 * 3.0, rtol=1e-12)
        assert np.max(np.abs(prob.gradient(p).euclidean)) <= 1e-12

    def test_diagonal_stationarity(self):
        s = np.diag([2.0, 3.0, 5.0])
        inst = rb.CpcInstance(covariances=[s], weights=np.array([4.0]))
        prob = cpc_problem(inst)
        p = ProductPoint(np.array([2.0, 3.0, 5.0]), np.eye(3))
        assert np.max(np.abs(prob.gradient(p).euclidean)) <= 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        inst = synth_cpc(r=4, classes=3, samples_per_class=40, seed=5)
        prob = cpc_problem(inst)
        for _ in range(3):
            fd_slope_check(prob, interior_point(prob, rng), rng, n_dirs=7)

    def test_asymmetric_covariance_rejected(self):
        bad = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValueError):
            rb.CpcInstance(covariances=[bad], weights=np.array([1.0]))

    def test_planted_cost_formula(self):
        rng = np.random.default_rng(11)
        from rlbfgsb.geometry import _qf

        q = _qf(rng.standard_normal((4, 4)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        inst = synth_cpc(r=4, classes=3, samples_per_class=10, seed=11, planted_q=q, jitter=0.0)
        prob = cpc_problem(inst)
        lams = [np.diag(q.T @ s @ q) for s in inst.covariances]
        p = ProductPoint(np.concatenate(lams), q)
        expected = sum(w * (np.sum(np.log(l)) + 4) for w, l in zip(inst.weights, lams))
        assert_allclose(prob.cost(p), expected, rtol=1e-10)

    def test_synth_deterministic(self):
        a = synth_cpc(r=3, classes=2, samples_per_class=20, seed=4)
        b = synth_cpc(r=3, classes=2, samples_per_class=20, seed=4)
        for sa, sb in zip(a.covariances, b.covariances):
            assert np.array_equal(sa, sb)


class TestLoadClassCsv(object):
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return str(path)

    def test_hand_computed_covariances(self, tmp_path):
        path = self._write(
            tmp_path,
            "a,b,cls\n"
            "1.0,2.0,x\n"
            "3.0,4.0,x\n"
            "0.0,0.0,y\n"
            "0.0,2.0,y\n"
            "2.0,1.0,y\n",
        )
        inst = load_class_csv(path, "cls")
        # class x: centered rows (+-1, +-1) -> cov [[1,1],[1,1]]
        assert_allclose(inst.covariances[0], [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)
        # class y: mean (2/3, 1); centered cols give the covariance below
        xc = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 1.0]]) - [2.0 / 3.0, 1.0]
        expected = xc.T @ xc / 3.0
        assert_allclose(inst.covariances[1], expected, atol=1e-12)
        assert_allclose(inst.weights, [2.0, 3.0])
        assert inst.d_min == 0.1 and inst.d_max == 10.0

    def test_single_class_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,b,cls\n1,2,x\n3,4,x\n")
        with pytest.raises(ValueError, match="classes"):
            load_class_csv(path, "cls")

    def test_header_only_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,b,cls\n")
        with pytest.raises(ValueError):
            load_class_csv(path, "cls")

    def test_missing_class_column(self, tmp_path):
        path = self._write(tmp_path, "a,b,cls\n1,2,x\n")
        with pytest.raises(ValueError, match="species"):
            load_class_csv(path, "species")

    def test_non_numeric_cell(self, tmp_path):
        path = self._write(tmp_path, "a,b,cls\n1,oops,x\n1,2,y\n2,3,y\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_class_csv(path, "cls")

    def test_tiny_class_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,b,cls\n1,2,x\n3,4,y\n5,6,y\n")
        with pytest.raises(ValueError, match="fewer than 2"):
            load_class_csv(path, "cls")

    def test_one_feature_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,cls\n1,x\n2,y\n")
        with pytest.raises(ValueError, match="feature"):
            load_class_csv(path, "cls")


def test_all_problem_gradients_tangent(rng):
    problems = list(euclidean_suite())
    problems.append(bss_problem(synth_bss(k=2, r=3, n=15, amplitude=1.0, seed=2)))
    problems.append(cpc_problem(synth_cpc(r=3, classes=2, samples_per_class=25, seed=2)))
    for prob in problems:
        for _ in range(5):
            p = interior_point(prob, rng)
            g = prob.gradient(p)
            assert prob.geometry.tangency_residual(p, g) <= 1e-9
