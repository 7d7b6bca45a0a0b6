"""Proximality detection, epsilon-proximality certification, and composition."""

import tracemalloc

import numpy as np
import pytest

import limitcone as lc
from limitcone.errors import (
    ContractionUnverified,
    InvalidInput,
    NotProximal,
    SeparationViolated,
)
from limitcone import proximality
from limitcone.proximality import (
    _instance_rng,
    _sample_bset,
    analytic_contraction_bounds,
    contraction_check,
    exact_image_distance,
    exact_spectrum,
    sampled_contraction_check,
)

from .conftest import (
    FORGE_RAY_1,
    FORGE_RAY_2,
    reference_top_eigendata,
    rotation2,
    strongly_contracting_element,
)


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

    def test_complex_dominant_pair_is_not_simple(self):
        # modulus 2 at angle 1e-9: the pair ties, so the gap test refuses it
        m = np.diag([2.0, 2.0, 0.25])
        m[:2, :2] = 2.0 * rotation2(1e-9)
        with pytest.raises(NotProximal, match=r"dominant modulus 2\.0 is not simple"):
            lc.top_eigendata(m)

    def test_negative_dominant_eigenvalue_accepted(self):
        top, x, _ = lc.top_eigendata(np.diag([-3.0, 1.0, -1.0 / 3.0]))
        assert top == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(x.rep, [1.0, 0.0, 0.0], atol=1e-12)


def _readout(top_eigendata, m):
    """What top_eigendata gives for m: its bits, or its exception and message."""
    try:
        top, x, h = top_eigendata(m)
    except (lc.NotProximal, lc.NumericalFailure) as e:
        return type(e).__name__, str(e)
    return top, x.rep.tobytes(), h.covector.tobytes()


def _assert_equals_the_reference(matrices):
    outcomes = []
    for m in matrices:
        got = _readout(lc.top_eigendata, m)
        assert got == _readout(reference_top_eigendata, m)
        outcomes.append(got[0])
    return outcomes


def _near_real_corpus(rng, d, count):
    """count random real d x d matrices, then count conjugates P^-1 C P of a
    diagonal C with a planted complex pair r e^(+-i theta), theta in 1e-12..1e-4,
    whose modulus r is often the largest or the smallest."""
    core = np.zeros((count, d, d))
    core[:, range(d), range(d)] = rng.choice([-1.0, 1.0], (count, d)) * np.exp(
        rng.normal(0.0, 1.0, (count, d))
    )
    theta = 10.0 ** rng.uniform(-12.0, -4.0, count)
    r = np.exp(rng.choice([-1.0, 1.0], count) * rng.uniform(0.5, 2.5, count))
    core[:, 0, 0] = core[:, 1, 1] = r * np.cos(theta)
    core[:, 1, 0] = r * np.sin(theta)
    core[:, 0, 1] = -core[:, 1, 0]
    p = rng.standard_normal((count, d, d))
    return np.concatenate([rng.standard_normal((count, d, d)), np.linalg.solve(p, core @ p)])


class TestOneSimpleDominanceTest:
    # the relative-gap test alone decides proximality: a real matrix's complex
    # eigenvalue ties with its conjugate, so a realness clause changes no row
    def test_the_mask_equals_one_that_keeps_the_realness_clause(self):
        rng = np.random.default_rng(2020)
        near_real = 0
        for d in range(2, 9):
            corpus = _near_real_corpus(rng, d, 300)
            # the inverses' dominant eigenvalues are the corpus's smallest
            for stack in (corpus, np.linalg.inv(corpus)):
                split = proximality.eigen_splittings(stack)
                # the eigenvalue whose modulus the splitting reads, from the same `eig`
                vals = np.linalg.eig(stack)[0]
                top = vals[np.arange(len(vals)), np.argmax(np.abs(vals), axis=1)]
                assert np.array_equal(np.abs(top), split.top)
                real = np.abs(top.imag) <= proximality.EIGEN_GAP_TOL * split.top
                assert np.array_equal(split.proximal, split.proximal & real)
                near_real += np.count_nonzero(real & (top.imag != 0.0))
        # complex dominant eigenvalues that the realness clause would have let through
        assert near_real > 100


FORGES = [
    (2, [[1.0, -1.0]], 0.1),
    (3, [[2.0, -0.5, -1.5], [1.5, 0.5, -2.0]], 0.05),
    (4, [[3.0, 1.0, -1.0, -3.0], [2.0, 1.5, -1.5, -2.0]], 0.03),
]


class TestTopEigendataEqualsTheReference:
    # the batch of one of the eigen-splitting kernel against the per-matrix
    # readout it replaced, bit for bit, exceptions and messages included

    @pytest.mark.parametrize("forge", [lc.forge_semigroup, lc.forge_group])
    @pytest.mark.parametrize("n, rays, eps", FORGES)
    def test_forged_letters(self, forge, n, rays, eps):
        rays = np.array(rays) / np.linalg.norm(rays, axis=1, keepdims=True)
        sys_ = forge(n, lc.TargetCone.from_rays(rays), eps, seed=0)
        letters = sys_.alphabet.elements
        matrices = [lc.exterior_power(e, k) for e in letters for k in range(1, n)]
        assert all(isinstance(o, float) for o in _assert_equals_the_reference(matrices))

    def test_contracting_corpus(self):
        rng = np.random.default_rng(3)
        elements = [strongly_contracting_element(rng) for _ in range(40)]
        matrices = [lc.exterior_power(g, k) for g in elements for k in (1, 2)]
        _assert_equals_the_reference(matrices)

    def test_complex_top_pairs(self):
        rng = np.random.default_rng(4)
        matrices = []
        for d in (2, 3, 4, 6):
            for _ in range(10):
                core = np.diag(rng.uniform(0.1, 0.5, d))
                core[:2, :2] = 2.0 * rotation2(rng.uniform(0.2, 3.0))
                basis = rng.standard_normal((d, d))
                matrices.append(basis @ core @ np.linalg.inv(basis))
        outcomes = _assert_equals_the_reference(matrices)
        assert outcomes == ["NotProximal"] * len(matrices)

    def test_gaps_either_side_of_the_tolerance(self):
        rng = np.random.default_rng(5)
        matrices = []
        for scale in (0.9, 0.99, 1.01, 1.1):
            for _ in range(5):
                q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
                d = np.diag([1.0, 1.0 - scale * lc.proximality.EIGEN_GAP_TOL, 0.5])
                matrices.extend([d, q @ d @ q.T])
        outcomes = _assert_equals_the_reference(matrices)
        assert "NotProximal" in outcomes and 1.0 in outcomes


class TestCertifyEpsProximal:
    def test_strong_diagonal_certificate(self):
        g = lc.GroupElement.from_matrix(np.diag([100.0, 1.0, 0.01]))
        cert = lc.certify_eps_proximal(g, 1, 0.1)
        assert cert.gap_value == pytest.approx(1.0, abs=1e-12)
        assert cert.mode == "sampled"
        assert cert.sample_count == 10_000
        # sampling leaves the Lipschitz condition unchecked
        assert cert.lipschitz_bound is None

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
        # sampling, at either exterior degree; the corpus is symmetric, so no
        # sampled image point may lie beyond the exact closed form either
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
                # the decision sampled certification makes, with its observed maximum
                m = lc.exterior_power(g, k)
                ed = lc.top_eigendata(m)
                image, _ = contraction_check(m, ed, ed[1], ed[2], 0.1, "sampled", 1_000_000, 4)
                closed = exact_image_distance(exact_spectrum(d, 1.0, k).log_ratio, 0.1)
                assert image <= closed * (1.0 + 1e-9)


class TestCertifyThetaProximal:
    def test_empty_theta_is_vacuous(self):
        g = lc.GroupElement.from_matrix(rotation2(0.2))
        assert lc.certify_theta_proximal(g, [], 0.1) == []

    def test_epsilon_is_checked_even_with_no_degree(self):
        # the request rule runs before the loop over degrees
        g = lc.GroupElement.from_matrix(rotation2(0.2))
        with pytest.raises(InvalidInput, match="epsilon"):
            lc.certify_theta_proximal(g, [], 5.0)

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


SL4_RAYS = [[3.0, 1.0, -1.0, -3.0], [5.0, 1.0, -2.0, -4.0], [4.0, 2.0, -2.0, -4.0]]


def _witness_image_distance(g, k, x):
    """The chordal distance of Lambda^k g x from x+, applied numerically."""
    q, r, s = g.factors
    y = lc.exterior_power(g, k) @ x
    top = exact_spectrum(r, s, k).top
    return lc.proj_distance(
        lc.ProjectivePoint.from_vector(y),
        lc.ProjectivePoint.from_vector(lc.compound_matrix(q, k)[:, top]),
    )


class TestExactCertification:
    def test_factored_elements_are_exact_in_sampled_mode(self, forged_semigroup):
        g = forged_semigroup.generators[0]
        certs = lc.certify_theta_proximal(g, [1, 2], 0.05, mode="sampled", sample_count=1)
        assert [(c.mode, c.sample_count, c.gap_value) for c in certs] == [("exact", 0, 1.0)] * 2
        with pytest.raises(InvalidInput, match="mode"):
            lc.certify_eps_proximal(g, 1, 0.05, mode="exact")
        with pytest.raises(InvalidInput, match="epsilon"):
            lc.certify_eps_proximal(g, 1, 1.0)

    @pytest.mark.parametrize("epsilon", [0.55, 0.9])
    def test_separation_refuses_epsilon_above_one_half(self, forged_semigroup, epsilon):
        # an exact certificate's gap is 1, which is below 2 * epsilon here
        g = forged_semigroup.generators[0]
        with pytest.raises(SeparationViolated, match="2\\*epsilon"):
            lc.certify_eps_proximal(g, 1, epsilon)

    def test_a_tied_top_is_not_proximal(self):
        # the top two of power * ray tie at degree 1, so the exact spectrum's
        # relative gap is 0
        ray = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
        g = lc.GroupElement.from_factors(np.eye(3), ray, 5)
        with pytest.raises(NotProximal, match="is not simple"):
            lc.certify_eps_proximal(g, 1, 0.1)

    @pytest.mark.parametrize("count", [0, -5])
    def test_sampled_mode_still_validates_the_sample_count(self, forged_semigroup, count):
        g = forged_semigroup.generators[0]
        with pytest.raises(InvalidInput, match="sample_count"):
            lc.certify_eps_proximal(g, 1, 0.05, sample_count=count)

    @pytest.mark.parametrize("n, rays, eps", [(3, [FORGE_RAY_1, FORGE_RAY_2], 0.05), (4, SL4_RAYS, 0.03)])
    def test_analytic_mode_keeps_its_lipschitz_gate(self, n, rays, eps):
        # the exact certificate's recorded stretch is a lower bound on the
        # Lipschitz constant: above epsilon, the analytic mode, which proves
        # that clause, must not certify; where it does, its bound is the larger
        sys_ = lc.forge_semigroup(n, lc.TargetCone.from_rays(rays), eps, seed=5)
        gated = 0
        for (i, k), exact in sys_.eigendata.items():
            g = sys_.alphabet.elements[i]
            if exact.lipschitz_bound > eps:
                with pytest.raises(lc.CertificationFailure):
                    lc.certify_eps_proximal(g, k, eps, mode="analytic")
                gated += 1
                continue
            try:
                cert = lc.certify_eps_proximal(g, k, eps, mode="analytic")
            except lc.CertificationFailure:
                continue
            assert cert.mode == "analytic"
            assert cert.lipschitz_bound >= exact.lipschitz_bound
        assert gated >= 2

    def test_false_sampled_certificate_is_refuted(self):
        # sampling certified this letter at power 22 (seed 5, letter 2); its
        # worst point of B^eps maps to 1.057 * eps at degrees 1 and 3
        sys_ = lc.forge_semigroup(4, lc.TargetCone.from_rays(SL4_RAYS), 0.03, seed=5)
        assert sys_.forge_report["powers"] == [16, 24, 23]
        q, r, _ = sys_.generators[2].factors
        g = lc.GroupElement.from_factors(q, r, 22)
        for k in (1, 3):
            with pytest.raises(ContractionUnverified) as exc:
                lc.certify_eps_proximal(g, k, 0.03)
            err = exc.value
            assert err.refuted
            assert err.image_distance == pytest.approx(0.0317, abs=5e-5)
            x = err.witness
            x_plus = lc.compound_matrix(q, k)[:, exact_spectrum(r, 22.0, k).top]
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
            assert abs(x_plus @ x) == pytest.approx(0.03, abs=1e-12)  # on the edge of B^eps
            got = _witness_image_distance(g, k, x)
            assert got == pytest.approx(err.image_distance, rel=1e-9)
            assert got > 0.03
        lc.certify_eps_proximal(g, 2, 0.03)
        certs = lc.certify_theta_proximal(lc.GroupElement.from_factors(q, r, 23), [1, 2, 3], 0.03)
        assert [c.mode for c in certs] == ["exact"] * 3

    @pytest.mark.parametrize("seed", [5, 20])
    def test_certified_letters_map_their_witness_inside(self, seed):
        eps = 0.03
        sys_ = lc.forge_semigroup(4, lc.TargetCone.from_rays(SL4_RAYS), eps, seed=seed)
        for (i, k), cert in sys_.eigendata.items():
            g = sys_.alphabet.elements[i]
            q, r, s = g.factors
            spec = exact_spectrum(r, s, k)
            qk = lc.compound_matrix(q, k)
            x = eps * qk[:, spec.top] + np.sqrt(1.0 - eps * eps) * qk[:, spec.second]
            got = _witness_image_distance(g, k, x)
            assert got == pytest.approx(exact_image_distance(spec.log_ratio, eps), rel=1e-9)
            assert got <= eps

    @pytest.mark.parametrize(
        "kind, n, rays, eps, seed",
        [
            ("semigroup", 3, [FORGE_RAY_1, FORGE_RAY_2], 0.05, 7),
            ("group", 3, [FORGE_RAY_1, FORGE_RAY_2], 0.05, 7),
            ("group", 2, [[1.0, -1.0]], 0.1, 0),
            ("semigroup", 4, SL4_RAYS, 0.03, 5),
            ("semigroup", 4, [[3.0, 1.0, -1.0, -3.0], [3.0, -0.5, -1.0, -1.5]], 0.02, 1),
        ],
    )
    def test_one_power_less_is_refuted(self, kind, n, rays, eps, seed):
        forge = lc.forge_group if kind == "group" else lc.forge_semigroup
        sys_ = forge(n, lc.TargetCone.from_rays(rays), eps, seed=seed)
        for g, p in zip(sys_.generators, sys_.forge_report["powers"]):
            if p == 1:
                continue
            below = lc.GroupElement.from_factors(g.factors[0], g.factors[1], p - 1)
            letters = [below, below.inverse()] if kind == "group" else [below]
            refuted = []
            for e in letters:
                try:
                    lc.certify_theta_proximal(e, range(1, n), eps)
                except ContractionUnverified as err:
                    refuted.append(err.refuted)
            assert refuted and all(refuted)

    def test_closed_form_bounds_every_sampled_maximum(self):
        # forged letters at, just below and just above their forged power: no
        # sampled image point lies farther from x+ than the closed form
        rng = np.random.default_rng(11)
        checked = 0
        for n in range(2, 7):
            ray = np.cumsum(rng.uniform(0.5, 1.5, n))[::-1]
            ray -= ray.mean()
            ray /= np.linalg.norm(ray)
            q = lc.schottky._haar_rotation(rng, n)
            for eps in (0.02, 0.03, 0.05, 0.1):
                p = lc.schottky._certifying_power(0, ray, (1.0,), eps, 2**20)
                for power in {max(1, p - 1), p, p + 1}:
                    g = lc.GroupElement.from_factors(q, ray, power)
                    for k in range(1, n):
                        spec = exact_spectrum(ray, float(power), k)
                        closed = exact_image_distance(spec.log_ratio, eps)
                        v = lc.compound_matrix(q, k)[:, spec.top]
                        observed = sampled_contraction_check(
                            lc.exterior_power(g, k),
                            lc.ProjectivePoint.from_vector(v),
                            lc.ProjectiveHyperplane.from_covector(v),
                            eps, 2000, seed=power,
                        )
                        assert observed <= closed * (1.0 + 1e-9)
                        checked += 1
        assert checked >= 4 * 15 * 2


class TestSampledContractionCheck:
    def test_deterministic_given_seed_and_matrix(self):
        m = np.diag([50.0, 1.0, 0.02])
        _, x, h = lc.top_eigendata(m)
        a = sampled_contraction_check(m, x, h, 0.1, 2000, seed=7)
        b = sampled_contraction_check(m, x, h, 0.1, 2000, seed=7)
        assert a == b

    @staticmethod
    def _instances():
        """(m, target, repelling, epsilon, count, seed) over d = 2-6, several
        epsilon and counts 1, 777 and 10,000; the pair is the matrix's own."""
        rng = np.random.default_rng(41)
        for d in range(2, 7):
            logs = np.sort(rng.uniform(-3.0, 3.0, d))[::-1]
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            m = q @ np.diag(np.exp(logs - logs.mean())) @ q.T + 0.1 * rng.standard_normal((d, d))
            _, x, h = lc.top_eigendata(m)
            for eps in (0.02, 0.1, 0.3):
                for count in (1, 777, 10_000):
                    yield m, x, h, eps, count, d + count

    @staticmethod
    def _reference_sample(m, h, eps, count, seed):
        """The one sample of B^eps and its normalised image, by the formula
        the check used before it took its pairs from that sample."""
        x = _sample_bset(_instance_rng(seed, m), h.covector, eps, count)
        y = m @ x
        return x, y / np.linalg.norm(y, axis=0)

    @staticmethod
    def _chordal(a, b):
        return np.minimum(np.linalg.norm(a - b, axis=0), np.linalg.norm(a + b, axis=0))

    def test_image_maximum_is_the_first_draw_bit_for_bit(self):
        for m, x, h, eps, count, seed in self._instances():
            _, y = self._reference_sample(m, h, eps, count, seed)
            expected = float(self._chordal(y, x.rep[:, None]).max())
            assert sampled_contraction_check(m, x, h, eps, count, seed) == expected

    def test_one_draw_per_check(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[-1])
            return _sample_bset(*args)

        monkeypatch.setattr(proximality, "_sample_bset", counting)
        m = np.diag([50.0, 1.0, 0.02])
        _, x, h = lc.top_eigendata(m)
        sampled_contraction_check(m, x, h, 0.1, 2000, seed=7)
        assert calls == [2000]

    def test_one_point_has_no_pair_and_the_image_still_decides(self):
        # the image clause passes or refutes on that point alone
        m = np.diag([1e6, 1.0, 1e-6])
        ed = lc.top_eigendata(m)
        image, _ = contraction_check(m, ed, ed[1], ed[2], 0.1, "sampled", 1, 3)
        assert 0.0 < image <= 1e-5
        m = np.diag([2.0, 1.0, 0.5])
        ed = lc.top_eigendata(m)
        with pytest.raises(ContractionUnverified) as exc:
            contraction_check(m, ed, ed[1], ed[2], 0.1, "sampled", 1, 3)
        assert exc.value.refuted
        assert exc.value.image_distance == sampled_contraction_check(m, ed[1], ed[2], 0.1, 1, 3)
        assert exc.value.image_distance > 0.1

    def test_image_distance_matches_worst_case(self):
        # for diag(r^-1, 1, r) at the standard splitting the worst image sine
        # over B^eps is (lambda_2/lambda_1) * sqrt(1 - eps^2)/eps
        m = np.diag([100.0, 1.0, 0.01])
        _, x, h = lc.top_eigendata(m)
        eps = 0.1
        max_image = sampled_contraction_check(m, x, h, eps, 100_000, seed=0)
        bound = (1.0 / 100.0) * np.sqrt(1.0 - eps * eps) / eps
        assert max_image <= bound * (1.0 + 1e-2)
        assert max_image >= bound * 0.95  # the sampler actually explores the edge


class TestContractionCheck:
    def test_own_pair_is_the_plain_analytic_bound(self):
        # against the element's own pair both offsets are 0.0, so the decision
        # is the analytic bound at epsilon itself, bit for bit
        rng = np.random.default_rng(31)
        passed = 0
        for _ in range(10):
            g = strongly_contracting_element(rng)
            for k in (1, 2):
                m = lc.exterior_power(g, k)
                ed = lc.top_eigendata(m)
                for eps in (0.1, 0.05):
                    radius, lipschitz, _ = analytic_contraction_bounds(m, ed, eps)
                    if radius <= eps and lipschitz <= eps:
                        got = contraction_check(m, ed, ed[1], ed[2], eps, "analytic", 0, 0)
                        assert got == (radius, lipschitz)
                        passed += 1
                    else:
                        with pytest.raises(ContractionUnverified) as exc:
                            contraction_check(m, ed, ed[1], ed[2], eps, "analytic", 0, 0)
                        assert not exc.value.refuted
        assert passed

    def test_sampled_mode_is_the_sampled_check_and_its_gate(self):
        m = np.diag([100.0, 1.0, 0.01])
        ed = lc.top_eigendata(m)
        observed = sampled_contraction_check(m, ed[1], ed[2], 0.1, 2000, seed=5)
        assert contraction_check(m, ed, ed[1], ed[2], 0.1, "sampled", 2000, 5) == (observed, None)
        witness = sampled_contraction_check(m, ed[1], ed[2], 0.05, 2000, seed=5)
        with pytest.raises(ContractionUnverified) as exc:
            contraction_check(m, ed, ed[1], ed[2], 0.05, "sampled", 2000, 5)
        assert exc.value.refuted
        assert exc.value.image_distance == witness

    def test_unknown_mode(self):
        m = np.diag([100.0, 1.0, 0.01])
        ed = lc.top_eigendata(m)
        with pytest.raises(InvalidInput, match="mode"):
            contraction_check(m, ed, ed[1], ed[2], 0.1, "exact", 2000, 0)


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
            factors = []
            for i, p in zip(letters, powers):
                factors.extend([elems[i]] * p)
            actual = lc.product_jordan(factors).coords[0]
            assert out.log_lower - 1e-9 <= actual <= out.log_upper + 1e-9

    def test_rejects_bad_powers(self):
        g = lc.GroupElement.from_matrix(np.diag([100.0, 1.0, 0.01]))
        cert = lc.certify_eps_proximal(g, 1, 0.1)
        with pytest.raises(InvalidInput):
            lc.compose_certificates([cert], [0])
        with pytest.raises(InvalidInput):
            lc.compose_certificates([], [])

    def test_rejects_fractional_powers(self):
        # g^1.5 is no word of the semigroup: no interval is predicted for it
        g = lc.GroupElement.from_matrix(np.diag([100.0, 1.0, 0.01]))
        cert = lc.certify_eps_proximal(g, 1, 0.1)
        with pytest.raises(InvalidInput, match="power must be an integer"):
            lc.compose_certificates([cert], [1.5])


class TestCheckRequest:
    def test_a_good_request_passes(self):
        assert proximality.MODES == ("analytic", "sampled")
        for mode in proximality.MODES:
            assert proximality.check_request(0.5, mode, 1, 0) is None
        # analytic mode takes no samples
        assert proximality.check_request(0.5, "analytic", 0, 0) is None

    @pytest.mark.parametrize(
        "request_, words",
        [
            ((0.0, "sampled", 1, 0), r"epsilon must be in \(0, 1\), got 0.0"),
            ((1.0, "analytic", 1, 0), r"epsilon must be in \(0, 1\), got 1.0"),
            ((float("nan"), "sampled", 1, 0), r"epsilon must be in \(0, 1\), got nan"),
            ((0.1, "exact", 1, 0), "unknown mode 'exact'"),
            ((0.1, "sampled", 0, 0), "sample_count must be >= 1, got 0"),
            ((0.1, "sampled", 1, -1), "seed must be >= 0, got -1"),
        ],
    )
    def test_each_rule_refuses(self, request_, words):
        with pytest.raises(InvalidInput, match=words):
            proximality.check_request(*request_)


class TestSampleCount:
    def test_sampled_check_needs_a_sample(self):
        m = np.diag([4.0, 2.0, 1.0 / 8.0])
        x = lc.ProjectivePoint.from_vector([1.0, 0.0, 0.0])
        h = lc.ProjectiveHyperplane.from_covector([1.0, 0.0, 0.0])
        for count in (0, -1):
            with pytest.raises(InvalidInput, match="sample_count"):
                sampled_contraction_check(m, x, h, 0.1, count, seed=0)

    def test_certification_and_membership_refuse_zero_samples(self):
        g = lc.GroupElement.from_matrix(np.diag([100.0, 1.0, 0.01]))
        with pytest.raises(InvalidInput, match="sample_count"):
            lc.certify_eps_proximal(g, 1, 0.1, sample_count=0)
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInput, match="sample_count"):
            lc.in_open_semigroup(
                strongly_contracting_element(rng), lc.FacetFrame.identity(3), 0.05, samples=0
            )

    @pytest.mark.parametrize("count", [0, -1])
    def test_zero_samples_are_refused_before_the_eigendata(self, count):
        # a non-proximal element is refused as a usage error, not as a verdict
        rotation = lc.GroupElement.from_matrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(InvalidInput, match="sample_count"):
            lc.certify_eps_proximal(rotation, 1, 0.1, sample_count=count)
        with pytest.raises(InvalidInput, match="sample_count"):
            lc.in_open_semigroup(rotation, lc.FacetFrame.identity(2), 0.05, samples=count)
        # analytic mode takes no samples
        with pytest.raises(lc.NotProximal):
            lc.certify_eps_proximal(rotation, 1, 0.1, mode="analytic", sample_count=count)


def _old_sample_bset(rng, phi, eps, count):
    """The sampler's formula before it worked in place: np.where signs, an
    outer-product projection and a full-size tail."""
    t = rng.uniform(eps, 1.0, size=count)
    t *= np.where(rng.integers(0, 2, size=count), 1.0, -1.0)
    w = rng.standard_normal((phi.shape[0], count))
    w -= np.outer(phi, phi @ w)
    wn = np.linalg.norm(w, axis=0)
    wn[wn == 0.0] = 1.0
    w /= wn
    w *= np.sqrt(np.maximum(0.0, 1.0 - t**2))
    w += phi[:, None] * t
    return w


class TestSampledCheckCandidates:
    """The check takes the sine of every image column's angle to the target
    in one pass and recomputes the exact formula on the few candidate
    columns; its maximum is the reference formula's over the whole sample,
    bit for bit."""

    COUNTS = (1, 2, 3, 2047, 2048, 2049, 2050, 4097, 10_000)

    @staticmethod
    def _instances(dims, top_gap=None, seed=59):
        """(d, m) per dimension; with `top_gap`, m's top log gap is that."""
        rng = np.random.default_rng(seed)
        for d in dims:
            logs = np.sort(rng.uniform(-3.0, 3.0, d))[::-1]
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            if top_gap is None:
                m = q @ np.diag(np.exp(logs - logs.mean())) @ q.T + 0.1 * rng.standard_normal((d, d))
            else:
                logs[0] = logs[1] + top_gap
                m = q @ np.diag(np.exp(logs - logs.mean())) @ q.T
            yield d, m

    @staticmethod
    def _reference_maximum(m, x, h, eps, count, seed):
        reference = TestSampledContractionCheck
        _, ys = reference._reference_sample(m, h, eps, count, seed)
        return float(reference._chordal(ys, x.rep[:, None]).max())

    @staticmethod
    def _counting_candidates(monkeypatch):
        counts = []
        select = proximality._image_candidates

        def counting(y, point):
            chosen = select(y, point)
            counts.append(len(chosen))
            return chosen

        monkeypatch.setattr(proximality, "_image_candidates", counting)
        return counts

    def test_candidates_keep_the_whole_sample_maxima(self):
        checked = 0
        for d, m in self._instances(range(2, 11)):
            for scale in (1e-120, 1.0, 1e120):
                _, x, h = lc.top_eigendata(scale * m)
                for count in self.COUNTS:
                    seed = 100 * d + count
                    expected = self._reference_maximum(scale * m, x, h, 0.1, count, seed)
                    got = sampled_contraction_check(scale * m, x, h, 0.1, count, seed)
                    assert got == expected, (d, scale, count)
                    checked += 1
        assert checked == 9 * 3 * len(self.COUNTS)

    def test_strongly_contracting_maxima_below_1e_7(self):
        for d, m in self._instances(range(2, 11), top_gap=22.0):
            _, x, h = lc.top_eigendata(m)
            for count in self.COUNTS:
                expected = self._reference_maximum(m, x, h, 0.1, count, d + count)
                assert 0.0 < expected < 1e-7
                assert sampled_contraction_check(m, x, h, 0.1, count, d + count) == expected

    def test_strongly_contracting_inputs_have_few_candidates(self, monkeypatch):
        # images within 1e-7 of the target all tie in cos^2, not in sin^2
        counts = self._counting_candidates(monkeypatch)
        rng = np.random.default_rng(23)
        e1 = np.eye(3)[0]
        frame = (lc.ProjectivePoint.from_vector(e1), lc.ProjectiveHyperplane.from_covector(e1))
        for seed in range(8):
            g1, g2 = strongly_contracting_element(rng), strongly_contracting_element(rng)
            for k in (1, 2):
                for g in (g1, g1 @ g2):
                    m = lc.exterior_power(g, k)
                    _, x, h = lc.top_eigendata(m)
                    for target, repelling in ((x, h), frame):
                        sampled_contraction_check(m, target, repelling, 0.05, 10_000, seed)
        for d, m in self._instances(range(2, 11), top_gap=22.0):
            _, x, h = lc.top_eigendata(m)
            sampled_contraction_check(m, x, h, 0.1, 10_000, d)
        assert len(counts) == 8 * 2 * 2 * 2 + 9
        assert 1 <= min(counts) and max(counts) <= 8

    def test_a_near_tie_recomputes_both_columns(self):
        # columns a few ulps apart: where the sine proxy orders them one way
        # and the exact formula the other, both must be recomputed
        rng = np.random.default_rng(17)
        disagreements = 0
        for trial in range(600):
            d = 2 + trial % 9
            point = lc.ProjectivePoint.from_vector(rng.standard_normal(d)).rep
            w = rng.standard_normal(d)
            w -= (w @ point) * point
            first = point + 10.0 ** rng.uniform(-8.0, -1.0) * w / np.linalg.norm(w)
            cols = np.stack([first, first * (1.0 + 4e-16 * rng.standard_normal(d))], axis=1)
            exact = proximality._image_distances(cols, point[:, None], proximality._sum_rows)
            s2, tame = proximality._sine_squares(cols, point)
            assert tame.all()
            if np.sign(exact[1] - exact[0]) * np.sign(s2[1] - s2[0]) < 0:
                disagreements += 1
                assert proximality._image_candidates(cols, point).tolist() == [0, 1]
        assert disagreements >= 20

    def test_a_single_candidate_at_d_8_and_up_sums_rows_in_wide_order(self, monkeypatch):
        # numpy sums a gathered lone column over axis 0 in another order than
        # a wide array; from d = 8 on that can move the maximum's last bit
        counts = self._counting_candidates(monkeypatch)
        reference = TestSampledContractionCheck
        lone_differs = 0
        for d, m in self._instances((8, 9, 10, 12), seed=61):
            _, x, h = lc.top_eigendata(m)
            for seed in range(15):
                xs, ys = reference._reference_sample(m, h, 0.1, 777, seed)
                image = reference._chordal(ys, x.rep[:, None])
                assert sampled_contraction_check(m, x, h, 0.1, 777, seed) == image.max()
                assert counts[-1] == 1
                worst = (m @ xs)[:, [int(np.argmax(image))]]
                lone = reference._chordal(worst / np.linalg.norm(worst, axis=0), x.rep[:, None])
                lone_differs += int(lone[0] != image.max())
        assert lone_differs >= 1

    def test_rows_are_summed_in_wide_order_at_any_width(self):
        rng = np.random.default_rng(8)
        for d in range(2, 13):
            a = rng.standard_normal((d, 50))
            wide = np.add.reduce(a, axis=0)
            for idx in ([7], [3, 41], [0, 9, 33]):
                assert proximality._sum_rows(a[:, idx]).tobytes() == wide[idx].tobytes(), (d, idx)

    def test_sampler_keeps_the_bits_of_its_old_formula(self):
        for d, m in self._instances(range(2, 11)):
            _, _, h = lc.top_eigendata(m)
            for count in (1, 2, 777, 2049):
                new = _sample_bset(_instance_rng(count, m), h.covector, 0.05, count)
                old = _old_sample_bset(_instance_rng(count, m), h.covector, 0.05, count)
                assert new.tobytes() == old.tobytes(), (d, count)

    def test_no_sample_sized_temporaries(self):
        m = np.diag([50.0, 1.0, 0.02])
        _, x, h = lc.top_eigendata(m)
        count = 200_000
        tracemalloc.start()
        try:
            sampled_contraction_check(m, x, h, 0.1, count, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 3 * count * 8 + 2**20

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, -0.1, float("nan"), float("inf")])
    def test_epsilon_outside_the_unit_interval_is_refused_before_drawing(self, eps, monkeypatch):
        drawn = []
        monkeypatch.setattr(proximality, "_sample_bset", lambda *a: drawn.append(a))
        m = np.diag([50.0, 1.0, 0.02])
        _, x, h = lc.top_eigendata(m)
        with pytest.raises(InvalidInput, match="epsilon"):
            sampled_contraction_check(m, x, h, eps, 100, seed=0)
        assert drawn == []

    def test_negative_seed_is_refused_before_drawing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(proximality, "_sample_bset", lambda *a: drawn.append(a))
        m = np.diag([50.0, 1.0, 0.02])
        _, x, h = lc.top_eigendata(m)
        with pytest.raises(InvalidInput, match="seed"):
            sampled_contraction_check(m, x, h, 0.1, 100, seed=-1)
        assert drawn == []
