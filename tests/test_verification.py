import numpy as np

import lowbit.verification as verification
from lowbit.engines import first_order_quant_step


class TestFreshChecks:
    def test_all_checks_pass(self):
        results = verification.run_checks()
        assert [r.name for r in results if not r.passed] == []

    def test_lines_carry_measurement_and_threshold(self):
        res = verification.check_proxy_loss_two_route()
        line = res.line()
        assert res.name in line
        assert "measured=" in line and "threshold=" in line
        assert line.startswith("PASS")

    def test_threshold_scaling(self):
        base = verification.check_inverse_factor()
        scaled = verification.check_inverse_factor(scale=10.0)
        assert scaled.threshold == base.threshold * 10


class TestMutationSensitivity:
    def test_gradient_sign_flip_breaks_kkt_check(self, monkeypatch):
        # a sign error in the gradient term of the constrained step must be
        # caught by the optimality check at its 1e-8 threshold
        def flipped(err, gradient, hinv, q, exact_multiplier=True):
            return first_order_quant_step(
                err, -np.asarray(gradient), hinv, q, exact_multiplier
            )

        monkeypatch.setattr(verification, "first_order_quant_step", flipped)
        res = verification.check_kkt_optimality()
        assert not res.passed
        assert res.measured > res.threshold

    def test_perturbed_upper_factor_breaks_cholesky_check(self, monkeypatch):
        # U off by a relative 1e-11 must fail the 1e-13 check on U U^T,
        # which the 1e-8 check through T would not see
        factor_of = verification.inverse_cholesky

        def perturbed(state):
            factor = factor_of(state)
            factor.upper[...] *= 1 + 1e-11
            return factor

        monkeypatch.setattr(verification, "inverse_cholesky", perturbed)
        res = verification.check_cholesky_factor()
        assert not res.passed
        assert res.measured > res.threshold

    def test_unscalable_checks_ignore_tol_scale(self):
        # exactly the checks that take no scale keep their thresholds under
        # an override; every other threshold is multiplied by it
        base = {r.name: r.threshold for r in verification.run_checks()}
        scaled = {r.name: r.threshold for r in verification.run_checks(tol_scale=1e6)}
        assert scaled.keys() == base.keys()
        kept = {name for name in base if scaled[name] == base[name]}
        assert kept == {
            "factor_vs_dense_oracle_codes",
            "foem_beta0_equals_gptq",
            "identity_hessian_gptq_equals_rtn",
            "quantizer_half_step_bound",
            "quantizer_sign_equivariance",
            "synthetic_covariance_convergence",
            "gradient_alignment_positive",
        }
        for name in base.keys() - kept:
            assert scaled[name] == base[name] * 1e6

    def test_impossible_tolerance_fails_cleanly(self):
        res = verification.check_inverse_factor(scale=1e-12)
        assert not res.passed
