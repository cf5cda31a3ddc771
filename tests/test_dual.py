"""Forward-mode dual arithmetic: chain-rule exactness and seeding."""

import numpy as np
import pytest

from eigopt import dual
from eigopt.dual import Dual, grad_check, lift_design
from eigopt.models.linear import linear_eig_value
from eigopt.models.stat5 import Stat5Model


class TestLiftDesign:
    def test_scalar_design(self):
        x = lift_design([0.5])
        assert x.value[0] == 0.5
        np.testing.assert_array_equal(x.tangent, [[1.0]])

    def test_basis_seeding(self):
        x = lift_design([1.0, 2.0])
        np.testing.assert_array_equal(x.tangent, np.eye(2))

    def test_sum_of_components_is_linear(self):
        s = dual.dsum(lift_design([1.0, 2.0]))
        assert float(s) == 3.0
        np.testing.assert_array_equal(s.tangent, [1.0, 1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            lift_design([np.inf, 0.0])


class TestElementaryOps:
    def test_exp_at_zero(self):
        y = dual.exp(Dual(0.0, [1.0]))
        assert float(y) == 1.0
        np.testing.assert_array_equal(y.tangent, [1.0])

    def test_log_chain_rule(self):
        y = dual.log(Dual(1.0, [2.0]))
        assert float(y) == 0.0
        np.testing.assert_array_equal(y.tangent, [2.0])

    def test_product_rule(self):
        y = Dual(2.0, [1.0, 0.0]) * Dual(3.0, [0.0, 1.0])
        assert float(y) == 6.0
        np.testing.assert_array_equal(y.tangent, [3.0, 2.0])

    def test_quotient_rule(self):
        y = Dual(1.0, [1.0]) / Dual(2.0, [3.0])
        assert float(y) == 0.5
        # (v' u - u' v)/v^2 with u=1, v=2: (1*2 - 3*1)/4
        np.testing.assert_allclose(y.tangent, [-0.25])

    def test_abs_sign_convention(self):
        x = Dual(np.array([-2.0, 0.0, 3.0]), np.ones((3, 1)))
        y = abs(x)
        np.testing.assert_array_equal(y.value, [2.0, 0.0, 3.0])
        np.testing.assert_array_equal(y.tangent[:, 0], [-1.0, 0.0, 1.0])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dual.log(Dual(-1.0, [1.0]))
        with pytest.raises(ZeroDivisionError):
            Dual(1.0, [1.0]) / Dual(0.0, [1.0])

    def test_mismatched_widths_error(self):
        with pytest.raises(ValueError):
            Dual(1.0, [1.0]) + Dual(1.0, [1.0, 0.0])

    def test_numpy_left_operand_defers(self):
        # ndarray * Dual must hit __rmul__, not become an object array
        y = np.array([2.0, 3.0]) * Dual(1.0, [1.0])
        assert isinstance(y, Dual)
        np.testing.assert_array_equal(y.value, [2.0, 3.0])
        np.testing.assert_array_equal(y.tangent, [[2.0], [3.0]])

    def test_broadcast_keeps_full_tangent(self):
        a = Dual(np.ones(3), np.ones((3, 2)))
        b = a + np.zeros((4, 3))
        assert b.shape == (4, 3)
        assert b.tangent.shape == (4, 3, 2)
        s = dual.dsum(b, axis=0)
        np.testing.assert_array_equal(s.tangent, 4 * np.ones((3, 2)))


class TestReductions:
    def test_logsumexp_matches_log_of_sum(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(4, 5))
        t = rng.normal(size=(4, 5, 3))
        x = Dual(v, t)
        got = dual.logsumexp(x, axis=1)
        ref = dual.log(dual.dsum(dual.exp(x), axis=1))
        np.testing.assert_allclose(got.value, ref.value, rtol=1e-12)
        np.testing.assert_allclose(got.tangent, ref.tangent, rtol=1e-12)

    def test_logsumexp_ignores_neginf(self):
        x = Dual(np.array([0.0, -np.inf]), np.array([[1.0], [5.0]]))
        out = dual.logsumexp(x, axis=0)
        assert float(out) == 0.0
        np.testing.assert_array_equal(out.tangent, [1.0])

    def test_logsumexp_all_neginf_raises(self):
        with pytest.raises(ValueError):
            dual.logsumexp(np.array([-np.inf, -np.inf]), axis=0)

    def test_mean_and_getitem(self):
        x = lift_design([1.0, 3.0])
        m = dual.dmean(x)
        assert float(m) == 2.0
        np.testing.assert_array_equal(m.tangent, [0.5, 0.5])
        np.testing.assert_array_equal(x[1].tangent, [0.0, 1.0])


class TestChainRuleProperty:
    def test_random_compositions_match_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a, b, c = rng.uniform(0.2, 1.5, size=3)

            def f(v):
                x0, x1 = v[0], v[1]
                out = dual.exp(x0 * a) / (x1 * x1 + 1.0)
                out = out + dual.log(x0 * x0 + b) / (x1 + c)
                out = out + dual.log(x0 + 2.0) * (1.0 - x1) - abs(x1 - 0.25)
                return dual.dsum(-out)

            lam = rng.uniform(0.3, 1.2, size=2)
            assert grad_check(f, lam) < 1e-6

    def test_primal_values_bit_identical(self):
        rng = np.random.default_rng(1)
        lam = rng.uniform(0.1, 1.0, 3)

        def compute(v):
            return dual.exp(v[0]) * v[1] + dual.log(v[2]) / (v[0] + 1.0)

        plain = compute(lam)
        lifted = compute(lift_design(lam))
        assert float(plain) == float(lifted)


class TestGradCheck:
    def test_quadratic_is_exact_to_roundoff(self):
        def f(v):
            return dual.dsum(v * v)

        assert grad_check(f, np.array([3.0]), h=1e-5) < 1e-8

    def test_linear_model_eig(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            lam = rng.uniform(-1, 1, 3)
            assert grad_check(lambda v: linear_eig_value(v, 1.0), lam) < 1e-6

    def test_stat5_log_likelihood(self):
        model = Stat5Model(noise_sd=0.3)
        rng = np.random.default_rng(3)
        theta = model.sample_prior_values(rng, 1)[0]
        theta2 = model.sample_prior_values(rng, 1)[0]
        eps = model.sample_noise_values(rng, 1)[0]
        # keep design times away from the interpolation grid nodes
        lam = np.sort(rng.uniform(1.0, 59.0, 16))
        lam = np.where(np.abs(lam / 0.25 - np.round(lam / 0.25)) < 0.1, lam + 0.05, lam)

        def f(v):
            y = model.observe(model.forward(theta, v), eps)
            return model.log_likelihood(y, theta2, v)

        assert grad_check(f, lam) < 1e-4
