"""Proximality detection, epsilon-proximality certification, and composition."""

import numpy as np
import pytest

import limitcone as lc
from limitcone.errors import (
    ContractionUnverified,
    InvalidInput,
    NotProximal,
    SeparationViolated,
)
from limitcone.proximality import sampled_contraction_check

from .conftest import rotation2, strongly_contracting_element


class TestTopEigendata:
    def test_diagonal(self):
        top, x, h = lc.top_eigendata(np.diag([4.0, 2.0, 1.0 / 8.0]))
        assert top == pytest.approx(4.0, abs=1e-12)
        assert np.allclose(x.rep, [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(h.covector, [1.0, 0.0, 0.0], atol=1e-12)

    def test_triangular_left_eigenvector(self):
        # oracle: phi^T g = 2 phi^T solved by hand gives phi proportional to (3, 2)
        top, x, h = lc.top_eigendata(np.array([[2.0, 1.0], [0.0, 0.5]]))
        assert top == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(x.rep, [1.0, 0.0], atol=1e-12)
        assert np.allclose(h.covector, np.array([3.0, 2.0]) / np.sqrt(13.0), atol=1e-10)

    def test_rotation_not_proximal(self):
        with pytest.raises(NotProximal):
            lc.top_eigendata(rotation2(np.pi / 3))

    def test_repeated_top_modulus_not_proximal(self):
        with pytest.raises(NotProximal):
            lc.top_eigendata(np.diag([2.0, 2.0, 0.25]))

    def test_negative_dominant_eigenvalue_accepted(self):
        top, x, _ = lc.top_eigendata(np.diag([-3.0, 1.0, -1.0 / 3.0]))
        assert top == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(x.rep, [1.0, 0.0, 0.0], atol=1e-12)


class TestCertifyEpsProximal:
    def test_strong_diagonal_certificate(self):
        g = lc.GroupElement.from_matrix(np.diag([100.0, 1.0, 0.01]))
        cert = lc.certify_eps_proximal(g, 1, 0.1)
        assert cert.gap_value == pytest.approx(1.0, abs=1e-12)
        assert cert.mode == "sampled"
        assert cert.sample_count == 10_000
        # the observed pairwise expansion is recorded as evidence
        assert np.isfinite(cert.lipschitz_bound)

    def test_rotation_refused(self):
        g = lc.GroupElement.from_matrix(rotation2(0.3))
        with pytest.raises(NotProximal):
            lc.certify_eps_proximal(g, 1, 0.1)

    def test_repeated_top_refused(self):
        g = lc.GroupElement.from_matrix(np.diag([2.0, 2.0, 0.25]))
        with pytest.raises(NotProximal):
            lc.certify_eps_proximal(g, 1, 0.1)

    def test_separation_gate(self):
        # proximal, but attracting point and repelling hyperplane nearly
        # incident: gap < 2 epsilon
        g = lc.GroupElement.from_matrix([[2.0, 40.0], [0.0, 0.5]])
        with pytest.raises(SeparationViolated):
            lc.certify_eps_proximal(g, 1, 0.1)

    def test_weak_contraction_refuted_by_sampling(self):
        # eigenvalue ratio 1/4 cannot map B^0.1 into the 0.1-ball: a sampled
        # image point witnesses the violation
        g = lc.GroupElement.from_matrix(np.diag([8.0, 2.0, 1.0 / 16.0]))
        with pytest.raises(ContractionUnverified) as exc:
            lc.certify_eps_proximal(g, 1, 0.1)
        assert exc.value.refuted

    def test_invalid_epsilon(self):
        g = lc.GroupElement.from_matrix(np.diag([4.0, 0.25]))
        with pytest.raises(InvalidInput):
            lc.certify_eps_proximal(g, 1, 1.5)

    def test_certificate_invariants(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = strongly_contracting_element(rng)
            for k in (1, 2):
                cert = lc.certify_eps_proximal(g, k, 0.05, seed=3)
                m = lc.exterior_power(g, k)
                assert cert.gap_value >= 2 * cert.epsilon
                # attracting really is an eigenline of Lambda^k g
                v = cert.attracting.rep
                alpha = float(v @ (m @ v))
                assert np.linalg.norm(m @ v - alpha * v) <= 1e-8 * np.linalg.norm(m, 2)
                assert abs(abs(alpha) - cert.top_modulus) <= 1e-8 * cert.top_modulus
                # Lemma-style monitor: lambda_1 <= ||M|| always, ratio bounded away
                # from zero on certified instances
                assert cert.norm_ratio <= 1.0 + 1e-10
                assert cert.norm_ratio >= 1e-6

    def test_sampled_determinism(self):
        g = lc.GroupElement.from_matrix(np.diag([100.0, 1.0, 0.01]))
        a = lc.certify_eps_proximal(g, 1, 0.1, seed=5)
        b = lc.certify_eps_proximal(g, 1, 0.1, seed=5)
        assert a.lipschitz_bound == b.lipschitz_bound

    def test_attracting_point_iteration_converges(self):
        rng = np.random.default_rng(8)
        g = strongly_contracting_element(rng)
        cert = lc.certify_eps_proximal(g, 1, 0.05)
        m = g.entries
        phi = cert.repelling.covector
        converged = 0
        for _ in range(100):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            if abs(phi @ x) < 0.05:
                continue
            for _ in range(200):
                x = m @ x
                x /= np.linalg.norm(x)
            if lc.proj_distance(lc.ProjectivePoint.from_vector(x), cert.attracting) <= 1e-6:
                converged += 1
        assert converged >= 90  # points started outside B^eps are not counted

    def test_power_stability(self):
        rng = np.random.default_rng(13)
        g = strongly_contracting_element(rng)
        c1 = lc.certify_eps_proximal(g, 1, 0.05)
        c2 = lc.certify_eps_proximal(g @ g, 1, 0.05)
        assert lc.proj_distance(c1.attracting, c2.attracting) <= 1e-8
        assert (
            lc.proj_distance(
                lc.ProjectivePoint.from_vector(c1.repelling.covector),
                lc.ProjectivePoint.from_vector(c2.repelling.covector),
            )
            <= 1e-8
        )


class TestAnalyticMode:
    def test_analytic_certifies_strong_elements(self):
        g = lc.GroupElement.from_matrix(np.diag([3000.0, 1.0, 1.0 / 3000.0]))
        cert = lc.certify_eps_proximal(g, 1, 0.1, mode="analytic")
        assert cert.mode == "analytic"
        assert cert.sample_count == 0
        assert cert.lipschitz_bound <= 0.1

    def test_analytic_inconclusive_is_not_refutation(self):
        g = lc.GroupElement.from_matrix(np.diag([4.0, 1.0, 0.25]))
        with pytest.raises(ContractionUnverified) as exc:
            lc.certify_eps_proximal(g, 1, 0.1, mode="analytic")
        assert not exc.value.refuted

    @pytest.mark.slow
    def test_analytic_is_conservative_against_dense_sampling(self):
        # 100 seeded instances: no analytic pass may be refuted by 10^6-pair
        # sampling, at either exterior degree
        from scipy.linalg import expm

        rng = np.random.default_rng(99)
        passes = 0
        tried = 0
        while passes < 100:
            tried += 1
            assert tried < 1000
            gap1 = rng.uniform(8.0, 10.0)
            gap2 = rng.uniform(8.0, 10.0)
            d = np.array([gap1 + gap2, gap2, 0.0])
            d -= d.mean()
            a = rng.normal(0.0, 0.2, (3, 3))
            q = expm((a - a.T) / 2.0)
            g = lc.GroupElement.from_unimodular(q @ np.diag(np.exp(d)) @ q.T)
            try:
                for k in (1, 2):
                    lc.certify_eps_proximal(g, k, 0.1, mode="analytic")
            except lc.LimitConeError:
                continue
            passes += 1
            for k in (1, 2):
                lc.certify_eps_proximal(
                    g, k, 0.1, mode="sampled", sample_count=1_000_000, seed=4
                )


class TestCertifyThetaProximal:
    def test_empty_theta_is_vacuous(self):
        g = lc.GroupElement.from_matrix(rotation2(0.2))
        assert lc.certify_theta_proximal(g, [], 0.1) == []

    def test_full_theta_strong_element(self):
        rng = np.random.default_rng(30)
        g = strongly_contracting_element(rng)
        certs = lc.certify_theta_proximal(g, [1, 2], 0.05)
        assert [c.rep.k for c in certs] == [1, 2]

    def test_failure_is_annotated_with_degree(self):
        g = lc.GroupElement.from_matrix(np.diag([2.0, 2.0, 0.25]))
        with pytest.raises(NotProximal, match="degree 1"):
            lc.certify_theta_proximal(g, [1], 0.1)

    def test_failure_at_second_degree(self):
        # lambda_2 = lambda_3: degree 1 is proximal, degree 2 is not
        g = lc.GroupElement.from_matrix(np.diag([4.0, 0.5, 0.5]))
        with pytest.raises(NotProximal, match="degree 2"):
            lc.certify_theta_proximal(g, [1, 2], 0.4)


class TestSampledContractionCheck:
    def test_deterministic_given_seed_and_matrix(self):
        m = np.diag([50.0, 1.0, 0.02])
        _, x, h = lc.top_eigendata(m)
        a = sampled_contraction_check(m, x, h, 0.1, 2000, seed=7)
        b = sampled_contraction_check(m, x, h, 0.1, 2000, seed=7)
        assert a == b

    def test_image_distance_matches_worst_case(self):
        # for diag(r^-1, 1, r) at the standard splitting the worst image sine
        # over B^eps is (lambda_2/lambda_1) * sqrt(1 - eps^2)/eps
        m = np.diag([100.0, 1.0, 0.01])
        _, x, h = lc.top_eigendata(m)
        eps = 0.1
        max_image, _ = sampled_contraction_check(m, x, h, eps, 100_000, seed=0)
        bound = (1.0 / 100.0) * np.sqrt(1.0 - eps * eps) / eps
        assert max_image <= bound * (1.0 + 1e-2)
        assert max_image >= bound * 0.95  # the sampler actually explores the edge


class TestComposeCertificates:
    def test_single_letter_exact(self):
        g = lc.GroupElement.from_matrix(np.diag([100.0, 1.0, 0.01]))
        cert = lc.certify_eps_proximal(g, 1, 0.1)
        out = lc.compose_certificates([cert], [5])
        assert out.epsilon == pytest.approx(0.2)
        assert out.log_center == pytest.approx(5 * np.log(100.0), rel=1e-12)
        assert out.log_lower == out.log_center == out.log_upper

    def test_sl2_pair_interval_contains_actual(self, sl2_pair):
        g1, g2 = sl2_pair
        c1 = lc.certify_eps_proximal(g1, 1, 0.1)
        c2 = lc.certify_eps_proximal(g2, 1, 0.1)
        out = lc.compose_certificates([c1, c2], [1, 1])
        assert out.log_center == pytest.approx(2.0 * np.log(10.0), abs=1e-10)
        actual = lc.jordan_projection(g1 @ g2).coords[0]
        assert actual == pytest.approx(3.931539, abs=5e-6)
        assert out.log_lower <= actual <= out.log_upper

    def test_aligned_pair_separation_violated(self, sl2_pair_aligned):
        g1, g2 = sl2_pair_aligned
        c1 = lc.certify_eps_proximal(g1, 1, 0.1)
        c2 = lc.certify_eps_proximal(g2, 1, 0.1)
        with pytest.raises(SeparationViolated) as exc:
            lc.compose_certificates([c1, c2], [1, 1])
        assert exc.value.pair is not None

    def test_product_correctness_on_certified_words(self, sl2_semigroup):
        # every compose success must bracket the assembled product's top
        # Jordan coordinate
        sys_ = sl2_semigroup
        elems = sys_.alphabet.elements
        certs = {i: sys_.certificate(i, 1) for i in range(len(elems))}
        rng = np.random.default_rng(2)
        for _ in range(20):
            letters = [int(rng.integers(0, 2)) for _ in range(int(rng.integers(1, 5)))]
            powers = [int(rng.integers(1, 3)) for _ in letters]
            out = lc.compose_certificates([certs[i] for i in letters], powers)
            mats = []
            for i, p in zip(letters, powers):
                mats.extend([elems[i].entries] * p)
            actual = lc.product_jordan(mats, 2).coords[0]
            assert out.log_lower - 1e-9 <= actual <= out.log_upper + 1e-9

    def test_rejects_bad_powers(self):
        g = lc.GroupElement.from_matrix(np.diag([100.0, 1.0, 0.01]))
        cert = lc.certify_eps_proximal(g, 1, 0.1)
        with pytest.raises(InvalidInput):
            lc.compose_certificates([cert], [0])
        with pytest.raises(InvalidInput):
            lc.compose_certificates([], [])
