"""Schottky verification, word estimates, open semigroups, and forging."""

import numpy as np
import pytest
from scipy.linalg import expm

import limitcone as lc
from limitcone.errors import (
    ConeNotInvolutionStable,
    EpsilonTooLarge,
    InvalidInput,
    NotReduced,
    RayNotInChamber,
    SeparationViolated,
    TooFewGenerators,
)

from .conftest import FORGE_RAY_1, FORGE_RAY_2, strongly_contracting_element


class TestVerifySchottky:
    def test_sl2_semigroup_certifies(self, sl2_semigroup):
        sys_ = sl2_semigroup
        assert sys_.kind == "semigroup"
        assert sys_.t == 2
        assert sys_.separation.shape == (2, 2, 1)
        assert float(sys_.separation.min()) >= 0.6

    def test_aligned_pair_refused_with_diagnostics(self, sl2_pair_aligned):
        with pytest.raises(SeparationViolated) as exc:
            lc.verify_schottky(sl2_pair_aligned, epsilons=[0.1, 0.1])
        assert exc.value.pair is not None
        i, j = exc.value.pair
        assert float(exc.value.separation[i, j].min()) <= 1e-12

    def test_too_few_generators(self, sl2_pair):
        with pytest.raises(TooFewGenerators):
            lc.verify_schottky([sl2_pair[0]])

    def test_invalid_inputs(self, sl2_pair):
        with pytest.raises(InvalidInput):
            lc.verify_schottky(sl2_pair, kind="monoid")
        with pytest.raises(InvalidInput):
            lc.verify_schottky(sl2_pair, epsilons=[0.1])
        with pytest.raises(InvalidInput):
            lc.verify_schottky(sl2_pair, epsilons=[0.1, 1.5])
        g3 = lc.GroupElement.from_matrix(np.diag([10.0, 1.0, 0.1]))
        with pytest.raises(InvalidInput):
            lc.verify_schottky([sl2_pair[0], g3])

    def test_group_kind(self, sl2_group):
        sys_ = sl2_group
        assert len(sys_.alphabet.elements) == 4
        assert sys_.alphabet.labels() == ["g1", "g2", "g1^-1", "g2^-1"]
        assert sys_.alphabet.inverse_index(0) == 2 and sys_.alphabet.inverse_index(3) == 1
        # the (g, g^-1) separation is exempt -- and genuinely degenerate here
        assert float(sys_.separation[0, 2].min()) <= 1e-10
        # every non-exempt pair still clears the 6*eps bar
        t = sys_.t
        for i in range(4):
            for j in range(4):
                if j == (i + t) % (2 * t):
                    continue
                assert float(sys_.separation[i, j].min()) >= 0.6

    def test_certificates_cover_all_degrees(self, sl2_semigroup):
        for i in range(2):
            cert = sl2_semigroup.certificate(i, 1)
            assert cert.epsilon == 0.1
            assert cert.gap_value >= 0.2

    def test_roundtrip_through_from_matrix(self, sl2_semigroup):
        regs = [
            lc.GroupElement.from_matrix(g.entries) for g in sl2_semigroup.generators
        ]
        again = lc.verify_schottky(regs, epsilons=list(sl2_semigroup.epsilons))
        assert np.allclose(again.separation, sl2_semigroup.separation, atol=1e-12)


class TestWordLyapunovEstimate:
    def test_single_letter_power_has_no_defect(self, sl2_semigroup):
        lam, disc = lc.word_lyapunov_estimate(sl2_semigroup, [(0, 5)])
        assert np.max(np.abs(disc)) <= 1e-6
        assert lam.coords[0] == pytest.approx(5.0 * np.log(10.0), abs=1e-6)

    def test_pair_defect_oracle(self, sl2_semigroup):
        # oracle: lambda_1(g1 g2) = 3.931539 vs letterwise 2 log 10
        lam, disc = lc.word_lyapunov_estimate(sl2_semigroup, [(0, 1), (1, 1)])
        assert lam.coords[0] == pytest.approx(3.931539, abs=5e-6)
        assert disc[0] == pytest.approx(3.931539 - 2.0 * np.log(10.0), abs=5e-6)

    def test_defect_stays_bounded_with_powers(self, sl2_semigroup):
        _, disc2 = lc.word_lyapunov_estimate(sl2_semigroup, [(0, 1), (1, 1)])
        _, disc4 = lc.word_lyapunov_estimate(sl2_semigroup, [(0, 2), (1, 2)])
        assert np.max(np.abs(disc4)) <= 2.0 * np.max(np.abs(disc2))

    def test_group_words_must_be_very_reduced(self, sl2_group):
        with pytest.raises(NotReduced):
            lc.word_lyapunov_estimate(sl2_group, [(0, 1), (2, 1)])
        with pytest.raises(NotReduced):
            lc.word_lyapunov_estimate(sl2_group, [(0, 1), (1, 1), (2, 1)])
        with pytest.raises(NotReduced):
            lc.word_lyapunov_estimate(sl2_group, [])
        # a mixed very reduced word goes through
        lam, _ = lc.word_lyapunov_estimate(sl2_group, [(0, 1), (1, 1), (0, 1)])
        assert lam.coords[0] > 0.0

    def test_rejects_nonpositive_exponents(self, sl2_semigroup):
        with pytest.raises(InvalidInput):
            lc.word_lyapunov_estimate(sl2_semigroup, [(0, 0)])


class TestOpenSemigroupMembership:
    def test_strong_element_accepted(self):
        rng = np.random.default_rng(41)
        g = strongly_contracting_element(rng)
        f = lc.FacetFrame.identity(3)
        ev = lc.in_open_semigroup(g, f, 0.05)
        assert ev
        assert ev.mode == "sampled"
        assert ev.max_image_distance <= 0.05

    def test_product_closure(self):
        rng = np.random.default_rng(42)
        g1 = strongly_contracting_element(rng)
        g2 = strongly_contracting_element(rng)
        f = lc.FacetFrame.identity(3)
        assert lc.in_open_semigroup(g1 @ g2, f, 0.05)
        assert lc.in_open_semigroup(g2 @ g1, f, 0.05)

    def test_rotation_rejected(self):
        theta = 0.7
        m = np.eye(3)
        m[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        ev = lc.in_open_semigroup(
            lc.GroupElement.from_matrix(m), lc.FacetFrame.identity(3), 0.05
        )
        assert not ev

    def test_moderate_contraction_rejected(self):
        # eigenvalue ratio 1/100 cannot contract the 0.05-slab complement into
        # the 0.05-ball: a sampled image point at distance ~0.196 witnesses it
        g = lc.GroupElement.from_matrix(np.diag([100.0, 1.0, 0.01]))
        ev = lc.in_open_semigroup(g, lc.FacetFrame.identity(3), 0.05)
        assert not ev
        assert ev.max_image_distance > 0.05

    def test_epsilon_capped_by_frame(self):
        g = lc.GroupElement.from_matrix(np.diag([100.0, 1.0, 0.01]))
        f = lc.FacetFrame.identity(3)
        assert f.epsilon_bound() == pytest.approx(0.1, abs=1e-12)
        with pytest.raises(EpsilonTooLarge):
            lc.in_open_semigroup(g, f, 0.1)

    def test_analytic_witness_rejection(self):
        # attracting point well separated from the slab but far from the frame
        # ball: a genuine non-membership witness, not an inconclusive bound
        rng = np.random.default_rng(43)
        a = rng.normal(0.0, 0.3, (3, 3))
        q = expm((a - a.T) / 2.0)
        d = np.array([8.0, 0.0, -8.0])
        g = lc.GroupElement.from_unimodular(q @ np.diag(np.exp(d)) @ q.T)
        ev = lc.in_open_semigroup(g, lc.FacetFrame.identity(3), 0.05, mode="analytic")
        assert not ev
        assert "attracting point" in ev.reason

    def test_frame_validation(self):
        with pytest.raises(InvalidInput):
            lc.FacetFrame(np.diag([1e5, 1.0, 1e-5]))
        g = lc.GroupElement.from_matrix(np.eye(2))
        with pytest.raises(InvalidInput):
            lc.in_open_semigroup(g, lc.FacetFrame.identity(3), 0.05)


class TestConeSemigroupMembership:
    @staticmethod
    def _bracketing_cone(direction: np.ndarray) -> lc.TargetCone:
        # rotate the direction by +-0.1 rad in the chamber plane: the cone has
        # the direction on its axis at boundary distance sin(0.1) ~ 0.0998
        from limitcone.cones import chamber_basis

        b = chamber_basis(3)
        dc = b.T @ (direction / np.linalg.norm(direction))
        rays = []
        for theta in (0.1, -0.1):
            c, s = np.cos(theta), np.sin(theta)
            rays.append(b @ (np.array([[c, -s], [s, c]]) @ dc))
        return lc.TargetCone.from_rays(rays)

    def test_interior_direction_accepted(self):
        rng = np.random.default_rng(44)
        g = strongly_contracting_element(rng)
        lam = lc.jordan_projection(g).coords
        cone = self._bracketing_cone(lam)
        f = lc.FacetFrame.identity(3)
        assert lc.in_cone_semigroup(g, f, 0.05, cone)

    def test_outside_direction_rejected(self):
        rng = np.random.default_rng(45)
        g = strongly_contracting_element(rng)
        # a narrow cone hugging the x1 = x2 chamber wall, far from lambda(g)
        r1 = np.array([1.0, 0.98, -1.98])
        r2 = np.array([1.0, 0.8, -1.8])
        cone = lc.TargetCone.from_rays(
            [r1 / np.linalg.norm(r1), r2 / np.linalg.norm(r2)]
        )
        ev = lc.in_cone_semigroup(g, lc.FacetFrame.identity(3), 0.05, cone)
        assert not ev
        assert "cone" in ev.reason

    def test_product_closure(self):
        rng = np.random.default_rng(46)
        g1 = strongly_contracting_element(rng)
        g2 = strongly_contracting_element(rng)
        prod = g1 @ g2
        cone = self._bracketing_cone(lc.jordan_projection(prod).coords)
        assert lc.in_cone_semigroup(prod, lc.FacetFrame.identity(3), 0.05, cone)


class TestTargetCone:
    def test_rays_are_normalized_and_sorted(self, forge_cone):
        for r in forge_cone.rays:
            assert np.linalg.norm(r.coords) == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(r.coords) <= 0.0)

    def test_duplicate_rays_rejected(self):
        with pytest.raises(InvalidInput):
            lc.TargetCone.from_rays([FORGE_RAY_1, FORGE_RAY_1])

    def test_zero_ray_rejected(self):
        with pytest.raises(RayNotInChamber):
            lc.TargetCone.from_rays([np.zeros(3)])

    def test_nonpositive_margin_rejected(self):
        with pytest.raises(InvalidInput):
            lc.TargetCone.from_rays([FORGE_RAY_1], margin=0.0)

    def test_involution_stability(self, forge_cone):
        # iota maps the two fixture rays to each other
        assert forge_cone.involution_stable()
        assert not lc.TargetCone.from_rays([FORGE_RAY_1]).involution_stable()
        half_line = lc.TargetCone.from_rays([np.array([1.0, -1.0]) / np.sqrt(2.0)])
        assert half_line.involution_stable()


class TestForgeSemigroup:
    def test_forged_system_certifies(self, forged_semigroup, forge_cone):
        sys_ = forged_semigroup
        assert sys_.kind == "semigroup"
        assert sys_.t == 2
        assert float(sys_.separation.min()) >= 0.3
        assert sys_.forge_report is not None
        assert all(p >= 1 for p in sys_.forge_report["powers"])

    def test_lyapunov_directions_hit_the_rays_exactly(
        self, forged_semigroup, forge_cone
    ):
        # the certificates' top moduli recover lambda in exact factored form
        powers = forged_semigroup.forge_report["powers"]
        rays = [r.coords for r in forge_cone.rays]
        for j, (p, ray) in enumerate(zip(powers, rays)):
            l1 = np.log(forged_semigroup.certificate(j, 1).top_modulus)
            l2 = np.log(forged_semigroup.certificate(j, 2).top_modulus)
            lam = np.array([l1, l2 - l1, -l2])
            assert np.allclose(lam / np.linalg.norm(lam), ray, atol=1e-12)

    def test_word_directions_stay_near_the_cone(self, forged_semigroup):
        report = forged_semigroup.forge_report
        assert report["word_depth"] == 6
        assert report["word_count"] == 126  # all 2 + 4 + ... + 64 semigroup words
        assert report["max_direction_distance"] <= 0.05

    def test_deterministic_in_seed(self, forge_cone, forged_semigroup):
        again = lc.forge_semigroup(3, forge_cone, 0.05, seed=7)
        for a, b in zip(again.generators, forged_semigroup.generators):
            assert np.array_equal(a.entries, b.entries)

    def test_near_wall_cone(self):
        # rays hugging a chamber wall still forge, at much higher powers
        r = np.array([1.0, 0.9, -1.9])
        cone = lc.TargetCone.from_rays([r / np.linalg.norm(r), FORGE_RAY_1])
        sys_ = lc.forge_semigroup(3, cone, 0.05, seed=3)
        assert float(sys_.separation.min()) >= 0.3

    def test_singular_ray_rejected(self):
        r = np.array([1.0, 1.0, -2.0])
        cone = lc.TargetCone.from_rays([r / np.linalg.norm(r)])
        with pytest.raises(RayNotInChamber):
            lc.forge_semigroup(3, cone, 0.05)

    def test_single_ray_is_thickened(self):
        cone = lc.TargetCone.from_rays([FORGE_RAY_1])
        sys_ = lc.forge_semigroup(3, cone, 0.05, seed=1)
        assert sys_.t == 2


class TestForgedLettersAreExact:
    def test_wide_dynamic_range_lyapunov_directions(self):
        # powers [18, 55, 55]: about e^70 of dynamic range, far past 1/eps_mach,
        # where minors of the rounded entries lose the small spectral data
        cone = lc.TargetCone.from_rays(
            [[3.0, 1.0, -1.0, -3.0], [3.0, -0.5, -1.0, -1.5], [2.0, 1.5, -1.5, -2.0]]
        )
        sys_ = lc.forge_semigroup(4, cone, 0.02, seed=1)
        for j, power in enumerate(sys_.forge_report["powers"]):
            lam, _ = lc.word_lyapunov_estimate(sys_, [(j, 2)])
            want = 2.0 * power * cone.rays[j].coords
            assert np.linalg.norm(lam.coords - want) <= 1e-9 * np.linalg.norm(want)


class TestForgeGroup:
    def test_sl2_half_line(self):
        cone = lc.TargetCone.from_rays([np.array([1.0, -1.0]) / np.sqrt(2.0)])
        sys_ = lc.forge_group(2, cone, 0.1, seed=0)
        assert sys_.kind == "group"
        assert len(sys_.alphabet.elements) == 4
        # exact inverses are kept alongside the generators
        for g, gi in zip(sys_.generators, sys_.alphabet.elements[2:]):
            assert np.allclose(g.entries @ gi.entries, np.eye(2), atol=1e-9)

    def test_sl3_symmetric_cone(self, forge_cone):
        sys_ = lc.forge_group(3, forge_cone, 0.05, seed=7)
        assert len(sys_.alphabet.elements) == 4
        assert sys_.forge_report["max_direction_distance"] <= 0.1

    def test_unstable_cone_rejected(self):
        with pytest.raises(ConeNotInvolutionStable):
            lc.forge_group(3, lc.TargetCone.from_rays([FORGE_RAY_1]), 0.05)


class TestCertifiedSoundness:
    def test_short_words_are_proximal(self, sl2_semigroup):
        # every word of a certified system is proximal with additive-up-to-
        # defect Lyapunov data
        elems = sl2_semigroup.alphabet.elements
        from itertools import product

        for l in range(1, 5):
            for letters in product(range(2), repeat=l):
                mats = [elems[i].entries for i in letters]
                prod = mats[0]
                for m in mats[1:]:
                    prod = prod @ m
                top, _, _ = lc.top_eigendata(prod)
                assert np.log(top) > 0.0
