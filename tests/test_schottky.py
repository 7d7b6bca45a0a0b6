"""Schottky verification, word estimates, open semigroups, and forging."""

import sys
from dataclasses import fields
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from scipy.linalg import expm

import limitcone as lc
from limitcone.errors import (
    ConeNotInvolutionStable,
    ContractionUnverified,
    EpsilonTooLarge,
    InvalidInput,
    NotReduced,
    RayNotInChamber,
    SeparationUnachievable,
    SeparationViolated,
    TooFewGenerators,
)
from limitcone.proximality import sampled_contraction_check

from .conftest import FORGE_RAY_1, FORGE_RAY_2, rotation2, strongly_contracting_element


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

    @pytest.mark.parametrize(
        "request_, words",
        [
            ({"mode": "exact"}, "unknown mode"),
            ({"samples": 0}, "sample_count"),
            ({"epsilons": [0.1, 1.5]}, "epsilon"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_a_bad_request_is_refused_before_the_alphabet(
        self, sl2_pair, monkeypatch, request_, words
    ):
        # the request rule runs once per generator epsilon, before any letter is built
        def build(*args):
            raise AssertionError("alphabet built")

        monkeypatch.setattr(lc.schottky.Alphabet, "of", build)
        with pytest.raises(InvalidInput, match=words):
            lc.verify_schottky(sl2_pair, **request_)

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

    @pytest.mark.parametrize("word", [[(-1, 1)], [(0, 1), (-2, 1)], [(4, 1)]])
    def test_letters_outside_the_alphabet_are_refused(self, sl2_group, word):
        # a negative index read the letter counted from the end
        with pytest.raises(InvalidInput, match="outside the 4-letter alphabet"):
            lc.word_lyapunov_estimate(sl2_group, word)

    @pytest.mark.parametrize("name", ["sl2_group", "forged_semigroup"])
    def test_one_batch_equals_one_product_per_letter(self, request, name):
        # the letters and the spelled word are read in one batch, to the bits
        # of one product_jordan call per letter and one for the word
        system = request.getfixturevalue(name)
        letters = system.alphabet.elements
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 100:
            word = [
                (int(rng.integers(0, len(letters))), int(rng.integers(1, 4)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            if not system.alphabet.very_reduced([i for i, _ in word]):
                continue
            expected = np.zeros(system.n)
            for i, p in word:
                expected += p * lc.product_jordan([letters[i]]).coords
            lam = lc.product_jordan([letters[i] for i, p in word for _ in range(p)]).coords
            got, disc = lc.word_lyapunov_estimate(system, word)
            assert np.array_equal(got.coords, lam)
            assert np.array_equal(disc, lam - expected)
            checked += 1

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_frame_with_a_non_finite_entry_is_invalid(self, bad):
        f = np.eye(3)
        f[1, 2] = bad
        with pytest.raises(InvalidInput, match="finite"):
            lc.FacetFrame(f)

    def test_frame_validation(self):
        with pytest.raises(InvalidInput):
            lc.FacetFrame(np.diag([1e5, 1.0, 1e-5]))
        g = lc.GroupElement.from_matrix(np.eye(2))
        with pytest.raises(InvalidInput):
            lc.in_open_semigroup(g, lc.FacetFrame.identity(3), 0.05)

    @pytest.mark.parametrize("mode", ["sampled", "analytic"])
    @pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf, 0.0, -0.01])
    def test_epsilon_outside_the_open_interval_is_invalid(self, monkeypatch, mode, epsilon):
        # nan fails every comparison, and for epsilon <= 0 every point is a
        # witness: neither is a membership question
        calls = count_top_eigendata(monkeypatch)
        g = lc.GroupElement.from_matrix(np.diag([4.0, 1.0, 0.25]))
        with pytest.raises(InvalidInput, match="epsilon"):
            lc.in_open_semigroup(g, lc.FacetFrame.identity(3), epsilon, mode=mode)
        assert not calls  # epsilon is checked before any degree runs

    def test_unknown_mode_is_invalid(self, monkeypatch):
        calls = count_top_eigendata(monkeypatch)
        g = lc.GroupElement.from_matrix(np.diag([4.0, 1.0, 0.25]))
        with pytest.raises(InvalidInput, match="unknown mode 'exact'"):
            lc.in_open_semigroup(g, lc.FacetFrame.identity(3), 0.05, mode="exact")
        assert not calls

    @pytest.mark.parametrize("epsilon", [1.0, 1.5])
    def test_epsilon_of_one_or_more_breaks_the_request_rule(self, epsilon):
        # no epsilon >= 1 is a certification request; the frame's bound
        # epsilon_f judges the epsilons that are
        g = lc.GroupElement.from_matrix(np.diag([4.0, 1.0, 0.25]))
        f = lc.FacetFrame.identity(3)
        with pytest.raises(InvalidInput, match=r"epsilon must be in \(0, 1\)"):
            lc.in_open_semigroup(g, f, epsilon)
        with pytest.raises(EpsilonTooLarge):
            lc.in_open_semigroup(g, f, 0.5)

    @pytest.mark.parametrize("mode", ["sampled", "analytic"])
    def test_non_proximal_element_rejected_as_such(self, mode):
        # the 0.7 rad rotation of test_rotation_rejected: one verdict in both modes
        theta = 0.7
        m = np.eye(3)
        m[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        ev = lc.in_open_semigroup(
            lc.GroupElement.from_matrix(m), lc.FacetFrame.identity(3), 0.05, mode=mode
        )
        assert not ev
        assert ev.reason == "degree 1: not proximal"

    def test_inconclusive_degree_is_raised_with_its_prefix(self):
        # g's repelling hyperplane lies 0.46 from the frame's, wider than the
        # 0.05 slab: the analytic comparison proves nothing, and says so
        g = lc.GroupElement.from_matrix(np.array([[10.0, 5.0], [0.0, 0.1]]))
        with pytest.raises(ContractionUnverified) as exc:
            lc.in_open_semigroup(g, lc.FacetFrame.identity(2), 0.05, mode="analytic")
        assert not exc.value.refuted
        assert str(exc.value).startswith(
            "degree 1: analytic slab comparison degenerate (hyperplane offset 0.4634"
        )

    def test_sampled_rejection_carries_its_witness(self):
        g = lc.GroupElement.from_matrix(np.diag([100.0, 1.0, 0.01]))
        f = lc.FacetFrame.identity(3)
        ev = lc.in_open_semigroup(g, f, 0.05, samples=2000, seed=3)
        witness = sampled_contraction_check(
            lc.exterior_power(g, 1), f.point(1), f.hyperplane(1), 0.05, 2000, 3
        )
        assert ev.max_image_distance == witness
        assert ev.reason.startswith("degree 1: sampled image point")


class TestSampledModeLeavesLipschitzUnchecked:
    """Sampling falsifies the image condition only: no sampled outcome
    records a Lipschitz value."""

    def test_certificate_membership_and_refutation_record_none(self):
        g = lc.GroupElement.from_matrix(np.diag([100.0, 1.0, 0.01]))
        cert = lc.certify_eps_proximal(g, 1, 0.1, seed=5)
        assert cert.mode == "sampled" and cert.lipschitz_bound is None
        # None, unlike NaN, keeps same-seed certificates equal
        assert lc.certify_eps_proximal(g, 1, 0.1, seed=5) == cert
        rng = np.random.default_rng(0)
        ev = lc.in_open_semigroup(strongly_contracting_element(rng), lc.FacetFrame.identity(3), 0.05)
        assert ev.accepted and ev.mode == "sampled"
        assert [f.name for f in fields(ev)] == ["accepted", "mode", "reason", "max_image_distance"]
        with pytest.raises(lc.ContractionUnverified) as exc:
            lc.certify_eps_proximal(lc.GroupElement.from_matrix(np.diag([8.0, 2.0, 1.0 / 16.0])), 1, 0.1)
        assert exc.value.refuted and exc.value.image_distance > 0.1
        assert not hasattr(exc.value, "expansion")


def _seeded_entries():
    """Each public entry that takes a seed, as a call of that seed."""
    cone = lc.TargetCone.from_rays([FORGE_RAY_1, FORGE_RAY_2])
    plain = lc.GroupElement.from_matrix(np.diag([1e4, 1.0, 1e-4]))
    factored = lc.GroupElement.from_factors(np.eye(3), FORGE_RAY_1, 30)
    frame = lc.FacetFrame.identity(3)
    pair = [lc.GroupElement.from_matrix(np.diag([10.0, 0.1]))]
    pair.append(lc.GroupElement.from_matrix(rotation2(np.pi / 4) @ pair[0].entries @ rotation2(-np.pi / 4)))
    sampler = lc.WordSampler(tuple(pair), max_length=2)
    return {
        "forge_semigroup": lambda s: lc.forge_semigroup(3, cone, 0.05, seed=s),
        "forge_group": lambda s: lc.forge_group(3, lc.TargetCone.from_rays([FORGE_RAY_1, -FORGE_RAY_1[::-1]]), 0.05, seed=s),
        "certify_eps_proximal-exact": lambda s: lc.certify_eps_proximal(factored, 1, 0.1, seed=s),
        "certify_eps_proximal-analytic": lambda s: lc.certify_eps_proximal(plain, 1, 0.1, mode="analytic", seed=s),
        "certify_eps_proximal-sampled": lambda s: lc.certify_eps_proximal(plain, 1, 0.1, seed=s),
        "certify_matrix_eps_proximal-analytic": lambda s: lc.proximality.certify_matrix_eps_proximal(
            plain.entries, lc.Representation(n=3, k=1), 0.1, "analytic", seed=s
        ),
        "certify_matrix_eps_proximal-sampled": lambda s: lc.proximality.certify_matrix_eps_proximal(
            plain.entries, lc.Representation(n=3, k=1), 0.1, seed=s
        ),
        "certify_theta_proximal": lambda s: lc.certify_theta_proximal(plain, [1, 2], 0.1, mode="analytic", seed=s),
        "verify_schottky": lambda s: lc.verify_schottky(pair, seed=s),
        "in_open_semigroup": lambda s: lc.in_open_semigroup(plain, frame, 0.05, seed=s),
        "WordSampler": lambda s: lc.WordSampler(tuple(pair), max_length=2, seed=s),
        "check_convexity": lambda s: lc.check_convexity(lc.estimate_cone(sampler), sampler, seed=s),
    }


@pytest.mark.parametrize("entry", list(_seeded_entries()))
def test_a_negative_seed_is_refused_before_any_work(entry, monkeypatch):
    call = _seeded_entries()[entry]
    call(0)  # the call is well formed: seed 0 runs
    calls = count_top_eigendata(monkeypatch)
    with pytest.raises(InvalidInput, match="seed must be >= 0, got -1"):
        call(-1)
    assert not calls


def count_top_eigendata(monkeypatch) -> list:
    """Count top_eigendata calls wherever a module of the package bound it."""
    original = lc.proximality.top_eigendata
    seen = []

    def counted(m):
        seen.append(np.asarray(m).shape)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name == "limitcone" or name.startswith("limitcone."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return seen


class TestEigendataReadOnce:
    @pytest.mark.parametrize("mode", ["sampled", "analytic"])
    def test_certification_reads_each_matrix_once(self, monkeypatch, mode):
        rng = np.random.default_rng(47)
        elements = [strongly_contracting_element(rng) for _ in range(3)]
        calls = count_top_eigendata(monkeypatch)
        outcomes = []
        for g in elements:
            for k in (1, 2):
                try:
                    outcomes.append(lc.certify_eps_proximal(g, k, 0.1, mode=mode, sample_count=500))
                except lc.CertificationFailure as e:
                    outcomes.append(e)
        assert len(calls) == len(outcomes) == 6
        assert any(isinstance(o, lc.ProximalityCertificate) for o in outcomes)

    @pytest.mark.parametrize("mode", ["sampled", "analytic"])
    def test_membership_reads_each_degree_once(self, monkeypatch, mode):
        g = lc.GroupElement.from_matrix(np.diag([1e5, 1.0, 1e-5]))
        calls = count_top_eigendata(monkeypatch)
        assert lc.in_open_semigroup(g, lc.FacetFrame.identity(3), 0.05, mode=mode, samples=500)
        assert calls == [(3, 3), (3, 3)]


class TestFacetFrame:
    def test_a_frame_has_a_flag(self):
        # a 1x1 frame has no exterior degree, hence no flag and no epsilon_f
        with pytest.raises(InvalidInput, match="size"):
            lc.FacetFrame(np.eye(1))

    def test_flag_is_built_once(self):
        f = lc.FacetFrame.identity(4)
        for k in range(1, 4):
            assert f.point(k) is f.point(k)
            assert f.hyperplane(k) is f.hyperplane(k)
        for k in (0, -1, 4):  # no exterior degree: no flag, not a neighbour's
            with pytest.raises(KeyError):
                f.point(k)

    def test_flag_matches_its_definition(self):
        rng = np.random.default_rng(49)
        h = expm(rng.normal(0.0, 0.3, (4, 4)))
        f = lc.FacetFrame(h)
        gaps = []
        for k in range(1, 4):
            ck = lc.compound_matrix(h, k)
            e0 = np.zeros(ck.shape[0])
            e0[0] = 1.0
            x = lc.ProjectivePoint.from_vector(ck[:, 0])
            phi = lc.ProjectiveHyperplane.from_covector(np.linalg.solve(ck.T, e0))
            assert f.point(k) == x and f.hyperplane(k) == phi
            gaps.append(lc.gap(x, phi))
        assert f.epsilon_bound() == 0.1 * min(gaps)


class TestConeSemigroupMembership:
    """An element of the open semigroup of a frame whose lambda lies in a
    target cone: in_open_semigroup decides the first, in_cone the second."""

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
        assert lc.in_open_semigroup(g, lc.FacetFrame.identity(3), 0.05)
        assert lc.cones.in_cone(lam, cone.rays_matrix())

    def test_outside_direction_rejected(self):
        rng = np.random.default_rng(45)
        g = strongly_contracting_element(rng)
        # a narrow cone hugging the x1 = x2 chamber wall, far from lambda(g)
        r1 = np.array([1.0, 0.98, -1.98])
        r2 = np.array([1.0, 0.8, -1.8])
        cone = lc.TargetCone.from_rays([r1, r2])
        lam = lc.jordan_projection(g).coords
        assert lc.in_open_semigroup(g, lc.FacetFrame.identity(3), 0.05)
        assert not lc.cones.in_cone(lam, cone.rays_matrix())
        assert lc.cones.cone_distance(lam / np.linalg.norm(lam), cone.rays_matrix()) > 0.05

    def test_product_closure(self):
        rng = np.random.default_rng(46)
        g1 = strongly_contracting_element(rng)
        g2 = strongly_contracting_element(rng)
        prod = g1 @ g2
        lam = lc.jordan_projection(prod).coords
        cone = self._bracketing_cone(lam)
        assert lc.in_open_semigroup(prod, lc.FacetFrame.identity(3), 0.05)
        assert lc.cones.in_cone(lam, cone.rays_matrix())

    def test_forged_letter_is_read_from_its_factors(self):
        # lambda(g) = power * ray to rounding, and the letter is a member of
        # the open semigroup of its own rotation's frame; the rounded entries
        # of this letter (power 56) put lambda far from power * ray
        forged = lc.forge_semigroup(4, lc.TargetCone.from_rays(REPRODUCER_RAYS), 0.02, seed=1)
        g = forged.generators[1]
        _, ray, power = g.factors
        expected = power * ray
        assert lc.in_open_semigroup(g, lc.FacetFrame(g.factors[0]), 0.05)

        def off(lam):
            return np.linalg.norm(lam - expected) / np.linalg.norm(expected)

        assert off(lc.jordan_projection(g).coords) <= 1e-12
        assert off(lc.jordan_projection(lc.GroupElement.from_matrix(g.entries)).coords) > 1e-12


class TestTargetCone:
    def test_rays_are_normalized_and_sorted(self, forge_cone):
        for r in forge_cone.rays:
            assert np.linalg.norm(r.coords) == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(r.coords) <= 0.0)

    @pytest.mark.parametrize("ray", [[-3.0, -1.0, 1.0, 3.0], [1.0, -2.0, 1.0], [-1.0, 1.0]])
    def test_a_ray_whose_coordinates_increase_is_refused(self, ray):
        # it was sorted into the chamber, so the forge built another cone
        with pytest.raises(RayNotInChamber, match=r"ray \[") as err:
            lc.TargetCone.from_rays([ray])
        assert str(np.asarray(ray, float)) in str(err.value)

    def test_tied_coordinates_are_allowed(self):
        cone = lc.TargetCone.from_rays([[1.0, 1.0, -2.0], [2.0, -1.0, -1.0]])
        assert np.array_equal(cone.rays[0].coords, np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0))

    def test_duplicate_rays_rejected(self):
        with pytest.raises(InvalidInput):
            lc.TargetCone.from_rays([FORGE_RAY_1, FORGE_RAY_1])

    def test_zero_ray_rejected(self):
        with pytest.raises(RayNotInChamber):
            lc.TargetCone.from_rays([np.zeros(3)])

    @pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_a_ray_with_a_non_finite_coordinate_is_refused_without_a_warning(self, x):
        # the suite turns a RuntimeWarning into an error, so a warning from the
        # norm or the division before the refusal fails here
        with pytest.raises(InvalidInput, match="finite"):
            lc.TargetCone.from_rays([FORGE_RAY_1, [x, 0.0, -1.0]])

    @pytest.mark.parametrize("margin", [0.0, -0.1, np.nan, np.inf, -np.inf])
    def test_nonpositive_margin_rejected(self, margin):
        # a rays file may spell NaN or Infinity, which json parses
        with pytest.raises(InvalidInput, match="margin"):
            lc.TargetCone.from_rays([FORGE_RAY_1], margin=margin)

    def test_the_margin_is_kept_as_given(self):
        assert lc.TargetCone.from_rays([FORGE_RAY_1]).margin == 0.05
        cone = lc.TargetCone.from_rays([FORGE_RAY_1], margin=1)
        assert cone.margin == 1.0 and type(cone.margin) is float

    def test_the_forge_does_not_read_the_margin(self, forged_semigroup):
        # cones that differ in their margin alone forge the same system
        wide = lc.TargetCone.from_rays([FORGE_RAY_1, FORGE_RAY_2], margin=0.5)
        again = lc.forge_semigroup(3, wide, 0.05, seed=7)
        assert again == forged_semigroup
        assert again.forge_report == forged_semigroup.forge_report

    def test_rejects_empty_and_mixed_dimension_rays(self):
        with pytest.raises(InvalidInput, match="at least one ray"):
            lc.TargetCone.from_rays([])
        with pytest.raises(InvalidInput, match="one dimension"):
            lc.TargetCone.from_rays([FORGE_RAY_1, [3.0, 1.0, -1.0, -3.0]])

    def test_involution_stability(self, forge_cone):
        # iota maps the two fixture rays to each other
        assert forge_cone.involution_stable()
        assert not lc.TargetCone.from_rays([FORGE_RAY_1]).involution_stable()
        half_line = lc.TargetCone.from_rays([np.array([1.0, -1.0]) / np.sqrt(2.0)])
        assert half_line.involution_stable()


class TestValueEquality:
    def test_forged_systems_compare_and_hash_by_their_generators(
        self, forged_semigroup, forge_cone
    ):
        # the generators' dataclass __eq__ compared numpy arrays and raised
        again = lc.forge_semigroup(3, forge_cone, 0.05, seed=7)
        assert again == forged_semigroup
        assert hash(again) == hash(forged_semigroup)
        assert lc.forge_semigroup(3, forge_cone, 0.05, seed=8) != forged_semigroup

    def test_target_cones_compare_and_hash_by_their_rays(self, forge_cone):
        again = lc.TargetCone.from_rays([FORGE_RAY_1, FORGE_RAY_2])
        assert again == forge_cone
        assert len({again, forge_cone}) == 1
        assert lc.TargetCone.from_rays([FORGE_RAY_1, FORGE_RAY_2], margin=0.1) != forge_cone
        assert lc.TargetCone.from_rays([FORGE_RAY_1]) != forge_cone


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

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("forge", [lc.forge_semigroup, lc.forge_group])
    def test_dimension_checked_before_the_rotation_draw(self, forge_cone, monkeypatch, forge, n):
        def draw(*args):
            raise AssertionError("rotation drawn")

        monkeypatch.setattr(lc.schottky, "_haar_rotation", draw)
        with pytest.raises(InvalidInput, match="dimension"):
            forge(n, forge_cone, 0.05)

    def test_overflow_is_max_power_exceeded(self):
        # a ray this close to the wall x1 = x2 needs a power near 1,500:
        # exp(p * r1) still fits float64, exp(p * (r1 + r2)) of Lambda^2 does not
        r = np.array([1.0, 0.99, -1.99])
        r /= np.linalg.norm(r)
        power = lc.schottky._certifying_power(0, r, (1.0,), 0.05, 2**20)
        assert (r[0] + r[1]) * power > np.log(np.finfo(float).max) > r[0] * power
        cone = lc.TargetCone.from_rays([r, FORGE_RAY_1])
        with pytest.raises(lc.MaxPowerExceeded, match="overflowed"):
            lc.forge_semigroup(3, cone, 0.05)

    def test_power_above_max_power_is_max_power_exceeded(self, forge_cone):
        # the fixture cone needs power 16
        with pytest.raises(lc.MaxPowerExceeded, match="above 15"):
            lc.forge_semigroup(3, forge_cone, 0.05, seed=7, max_power=15)
        assert lc.forge_semigroup(3, forge_cone, 0.05, seed=7, max_power=16)

    def test_single_ray_is_thickened(self):
        cone = lc.TargetCone.from_rays([FORGE_RAY_1])
        sys_ = lc.forge_semigroup(3, cone, 0.05, seed=1)
        assert sys_.t == 2


REPRODUCER_RAYS = [[3.0, 1.0, -1.0, -3.0], [3.0, -0.5, -1.0, -1.5], [2.0, 1.5, -1.5, -2.0]]


@pytest.fixture(scope="module")
def reproducer():
    """Powers [18, 55, 55]: about e^70 of dynamic range, far past 1/eps_mach,
    where minors of the rounded entries lose the small spectral data."""
    cone = lc.TargetCone.from_rays(REPRODUCER_RAYS)
    return cone, lc.forge_semigroup(4, cone, 0.02, seed=1)


class TestForgedLettersAreExact:
    def test_wide_dynamic_range_lyapunov_directions(self, reproducer):
        cone, sys_ = reproducer
        for j, power in enumerate(sys_.forge_report["powers"]):
            lam, _ = lc.word_lyapunov_estimate(sys_, [(j, 2)])
            want = 2.0 * power * cone.rays[j].coords
            assert np.linalg.norm(lam.coords - want) <= 1e-9 * np.linalg.norm(want)


    def test_single_letter_projections_read_the_factors(self, reproducer):
        # mu = lambda = power * ray for q diag(exp(power * ray)) q^T; the
        # rounded entries missed it by up to 17.7 in one coordinate
        _, sys_ = reproducer
        for g in sys_.generators:
            _, r, s = g.factors
            want = s * r
            tol = 1e-12 * np.linalg.norm(want)
            assert np.abs(lc.jordan_projection(g).coords - want).max() <= tol
            assert np.abs(lc.cartan_projection(g).coords - want).max() <= tol
            assert np.abs(lc.regularity_gaps(g) + np.diff(want)).max() <= tol

    def test_letters_carry_their_factors(self, reproducer):
        cone, sys_ = reproducer
        assert sys_.alphabet.elements == sys_.generators
        for g, power, ray in zip(sys_.generators, sys_.forge_report["powers"], cone.rays):
            q, r, s = g.factors
            assert s == power and np.array_equal(r, ray.coords)
            assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)

    def test_report_reads_the_exact_letters(self, reproducer):
        cone, sys_ = reproducer
        assert sys_.forge_report["max_direction_distance"] <= cone.margin

    @pytest.mark.parametrize("seed", [1, 3])
    def test_forges_what_it_certifies(self, seed):
        # the report over the rounded entries once refused these systems
        cone = lc.TargetCone.from_rays(REPRODUCER_RAYS)
        sys_ = lc.forge_semigroup(4, cone, 0.03, seed=seed)
        assert float(sys_.separation.min()) >= 6 * 0.03
        assert sys_.forge_report["max_direction_distance"] <= cone.margin

    def test_group_inverses_negate_the_power(self):
        half_line = lc.TargetCone.from_rays([np.array([1.0, -1.0]) / np.sqrt(2.0)])
        sys_ = lc.forge_group(2, half_line, 0.1, seed=0)
        for g, inv in zip(sys_.generators, sys_.alphabet.elements[2:]):
            assert inv.factors[2] == -g.factors[2]
            assert np.array_equal(inv.entries, g.inverse().entries)


class TestForgeCertifiesOnce:
    @staticmethod
    def _half_line():
        return lc.TargetCone.from_rays([np.array([1.0, -1.0]) / np.sqrt(2.0)])

    @pytest.mark.parametrize("kind", ["semigroup", "group"])
    def test_no_letter_is_certified_twice(self, monkeypatch, forge_cone, kind):
        original = lc.proximality.certify_eps_proximal
        seen = []

        def counted(g, k, *args, **kwargs):
            seen.append((g.entries.tobytes(), k))
            return original(g, k, *args, **kwargs)

        # replace the function wherever a module of the package bound it
        for name, module in list(sys.modules.items()):
            if name == "limitcone" or name.startswith("limitcone."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        if kind == "group":
            lc.forge_group(2, self._half_line(), 0.1, seed=0)
        else:
            lc.forge_semigroup(3, forge_cone, 0.05, seed=7)
        assert seen
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize(
        "forge, rays, eps",
        [
            (lc.forge_semigroup, [[3.0, 1.0, -1.0, -3.0], [5.0, 1.0, -2.0, -4.0]], 0.03),
            (lc.forge_group, [FORGE_RAY_1, FORGE_RAY_2], 0.05),
        ],
    )
    def test_no_rotation_compound_is_built_twice(self, monkeypatch, forge, rays, eps):
        # each draw's exterior powers and exact certificates, of a letter and
        # its inverse, read one compound per (rotation, degree)
        original = lc.projgeom.compound_matrix
        built = []

        def counted(m, k):
            built.append((np.asarray(m).tobytes(), k))
            return original(m, k)

        for name, module in list(sys.modules.items()):
            if name == "limitcone" or name.startswith("limitcone."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        forge(len(rays[0]), lc.TargetCone.from_rays(rays), eps, seed=7)
        assert built
        assert len(built) == len(set(built))

    @pytest.mark.parametrize("kind", ["semigroup", "group"])
    def test_eigendata_equals_a_fresh_certification(self, forged_semigroup, kind):
        sys_ = (
            forged_semigroup
            if kind == "semigroup"
            else lc.forge_group(2, self._half_line(), 0.1, seed=0)
        )
        seed = 7 if kind == "semigroup" else 0
        alphabet = sys_.alphabet
        assert set(sys_.eigendata) == {
            (i, k) for i in range(len(alphabet.elements)) for k in range(1, sys_.n)
        }
        for (i, k), cert in sys_.eigendata.items():
            fresh = lc.certify_eps_proximal(
                lc.GroupElement.from_factors(*alphabet.elements[i].factors),
                k,
                sys_.epsilons[alphabet.letters[i][0]],
                seed=seed,
            )
            assert cert == fresh, (i, k)


class TestForgeEpsilonRange:
    # 0.6 lies in (0, 1) but no gap reaches 6 * 0.6
    @pytest.mark.parametrize("epsilon", [0.0, -0.1, 0.6, 1.5])
    @pytest.mark.parametrize("forge", [lc.forge_semigroup, lc.forge_group])
    def test_unreachable_epsilon_is_invalid(self, forge_cone, forge, epsilon):
        with pytest.raises(InvalidInput, match="epsilon"):
            forge(3, forge_cone, epsilon)


SL4_BENCH_RAYS = [[3.0, 1.0, -1.0, -3.0], [5.0, 1.0, -2.0, -4.0], [4.0, 2.0, -2.0, -4.0]]


def _exact_distance(v, rays):
    """The distance from v to the span of `rays`, in exact rational
    arithmetic, as a 40-digit Decimal: |v|^2 - h.x with G x = h the normal
    equations.  Also the coefficients x."""
    a = [[Fraction(t) for t in r] for r in rays]
    b = [Fraction(t) for t in v]
    k = len(a)
    # Gauss-Jordan on [G | h]
    m = [[sum(p * q for p, q in zip(a[i], a[j])) for j in range(k)]
         + [sum(p * q for p, q in zip(a[i], b))] for i in range(k)]
    for i in range(k):
        m[i] = [t / m[i][i] for t in m[i]]
        for j in range(k):
            if j != i:
                m[j] = [p - m[j][i] * q for p, q in zip(m[j], m[i])]
    x = [m[i][k] for i in range(k)]
    r2 = sum(t * t for t in b) - sum(xi * sum(p * q for p, q in zip(ai, b)) for xi, ai in zip(x, a))
    with localcontext() as ctx:
        ctx.prec = 40
        return (Decimal(r2.numerator) / Decimal(r2.denominator)).sqrt(), x


@pytest.mark.parametrize("seed", range(48))
def test_the_forge_report_matches_nnls(monkeypatch, seed):
    # the report's one batched call reads the faces of a 3-ray cone in R^4.
    # NNLS on each direction gives the same distances and decisions; the
    # reported farthest distance has the 12 digits of its exact value
    calls, distance = [], lc.cones.cone_distance

    def recorded(v, rays):
        calls.append((v, rays))
        return distance(v, rays)

    monkeypatch.setattr(lc.cones, "cone_distance", recorded)
    sys_ = lc.forge_semigroup(4, lc.TargetCone.from_rays(SL4_BENCH_RAYS), 0.03, seed=seed)
    ((units, rays),) = calls
    got = distance(units, rays)
    want = np.array([scipy.optimize.nnls(rays.T, u)[1] for u in units])
    assert len(units) == sys_.forge_report["word_count"] == 1000
    assert np.abs(got - want).max() <= 1e-11
    assert np.array_equal(got <= lc.cones.SLACK, want <= lc.cones.SLACK)
    report = sys_.forge_report["max_direction_distance"]
    far = int(np.argmax(got))
    if want.max() <= lc.cones.SLACK:
        assert report == 0.0
        return
    support = scipy.optimize.nnls(rays.T, units[far])[0] > 0.0
    exact, coefficients = _exact_distance(units[far], rays[support])
    assert min(coefficients) > 0
    assert report == got[far]
    with localcontext() as ctx:
        ctx.prec = 12
        assert Decimal(f"{report:.12g}") == +exact  # unary plus rounds to 12 digits


class TestForgeSeparationSlack:
    @staticmethod
    def _forge_counting_draws(monkeypatch):
        draws = []
        original = lc.schottky.verify_schottky

        def counted(*args, **kwargs):
            draws.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(lc.schottky, "verify_schottky", counted)
        cone = lc.TargetCone.from_rays(SL4_BENCH_RAYS)
        return lc.forge_semigroup(4, cone, 0.03, seed=7), len(draws)

    def test_the_slack_decides_which_draw_is_kept(self, monkeypatch):
        kept, draws = self._forge_counting_draws(monkeypatch)
        assert kept.min_separation >= 6 * 0.03 * 1.05
        assert kept.min_separation / 0.03 == pytest.approx(7.09, abs=0.01)
        # without the slack an earlier draw, certified at 6.11 epsilon, is kept
        monkeypatch.setattr(lc.schottky, "FORGE_SEPARATION_SLACK", 1.0)
        bare, bare_draws = self._forge_counting_draws(monkeypatch)
        assert bare_draws < draws
        assert bare.min_separation / 0.03 == pytest.approx(6.11, abs=0.01)
        assert not np.array_equal(bare.generators[0].entries, kept.generators[0].entries)

    def test_refusal_names_the_separation_it_applied(self):
        # no rotation draw of seed 5 reaches 6 * 0.05 * 1.05 = 0.315
        cone = lc.TargetCone.from_rays(SL4_BENCH_RAYS)
        with pytest.raises(SeparationUnachievable, match=r"6\*epsilon\*1\.05 = 0\.315 in 100 tries"):
            lc.forge_semigroup(4, cone, 0.05, seed=5)


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
