"""Sampled limit cones, convexity evidence, limit sets, and facets."""

import dataclasses
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limitcone as lc
from limitcone import limits
from limitcone.errors import BudgetExceeded, DegenerateSample, InvalidInput, NotReduced
from limitcone.proximality import eigen_splittings

from .conftest import reference_top_eigendata, rotation2


def _sampler(gens, **kw):
    return lc.WordSampler(generators=tuple(gens), **kw)


class TestWordSampler:
    def test_validation(self, sl2_pair):
        with pytest.raises(InvalidInput):
            _sampler(sl2_pair, kind="monoid")
        with pytest.raises(InvalidInput):
            _sampler(sl2_pair, max_length=0)
        with pytest.raises(InvalidInput):
            _sampler([])
        with pytest.raises(InvalidInput, match="count must be >= 0"):
            _sampler(sl2_pair, count=-1)

    def test_expected_counts(self, sl2_pair):
        assert _sampler(sl2_pair, max_length=3).expected_word_count() == 14
        assert _sampler(sl2_pair, kind="group", max_length=2).expected_word_count() == 16
        assert _sampler(sl2_pair, count=37, max_length=5).expected_word_count() == 37
        for kind in ("semigroup", "group"):
            s = _sampler(sl2_pair, kind=kind, max_length=5)
            assert s.expected_word_count() == len(s.words())

    def test_count_zero_enumerates(self, sl2_pair):
        s = _sampler(sl2_pair, max_length=3)
        assert s.count == 0 and s.strategy == "exhaustive"
        assert s.words() == sorted(_reference_walk(s.alphabet, 3), key=lambda w: (len(w), w))

    def test_a_positive_count_draws(self, sl2_pair):
        # a count beside an enumerable max_length is not ignored: 50 words are
        # drawn, not the 14 reduced words of length <= 3
        s = _sampler(sl2_pair, max_length=3, count=50, seed=2)
        assert s.strategy == "random"
        words = s.words()
        assert len(words) == 50
        assert words == _reference_draw(s)
        assert all(1 <= len(w) <= 3 for w in words)

    def test_strategy_is_derived_and_cannot_be_set(self, sl2_pair):
        with pytest.raises(TypeError):
            _sampler(sl2_pair, strategy="random", count=5)
        s = _sampler(sl2_pair, count=5)
        with pytest.raises(AttributeError):
            s.strategy = "exhaustive"
        assert s.strategy == "random"
        assert "strategy" not in {f.name for f in dataclasses.fields(s)}

    def test_group_alphabet_has_inverses(self, sl2_pair):
        s = _sampler(sl2_pair, kind="group")
        mats = [e.entries for e in s.alphabet.elements]
        assert len(mats) == 4
        assert np.allclose(mats[0] @ mats[2], np.eye(2), atol=1e-10)
        assert s.alphabet.inverse_index(1) == 3 and s.alphabet.inverse_index(3) == 1


class TestAlphabet:
    def test_generators_must_share_one_dimension(self, sl2_pair):
        g3 = lc.GroupElement.from_matrix(np.diag([10.0, 1.0, 0.1]))
        with pytest.raises(InvalidInput, match="one dimension"):
            limits.Alphabet.of([sl2_pair[0], g3])
        # the sampler builds its alphabet, so it refuses too, before any product
        with pytest.raises(InvalidInput, match="one dimension"):
            _sampler([sl2_pair[0], g3], kind="group")

    def test_layout_labels_and_compounds(self, sl2_pair):
        a = limits.Alphabet.of(sl2_pair, "group")
        assert a.letters == ((0, False, 2), (1, False, 3), (0, True, 0), (1, True, 1))
        assert a.labels() == ["g1", "g2", "g1^-1", "g2^-1"]
        assert a.elements[:2] == tuple(sl2_pair)
        for e in a.elements:
            assert np.array_equal(lc.exterior_power(e, 1), lc.compound_matrix(e.entries, 1))
        s = limits.Alphabet.of(sl2_pair)
        assert [s.inverse_index(i) for i in range(2)] == [None, None]

    @pytest.mark.parametrize(
        "kind, word, expected",
        [
            ("group", (), False),  # the empty word
            ("semigroup", (), False),
            ("group", (0, 2), False),  # adjacent cancellation
            ("group", (1, 0, 2, 3), False),
            ("group", (0, 1, 2), False),  # the first letter inverts the last
            ("group", (3, 0, 1), False),
            ("group", (0,), True),
            ("group", (2, 2), True),
            ("group", (0, 1, 0), True),  # a mixed valid word
            ("group", (1, 0, 3, 0), True),
            ("semigroup", (0,), True),  # every nonempty semigroup word
            ("semigroup", (0, 1, 1, 0), True),
        ],
    )
    def test_very_reduced_table(self, sl2_pair, sl2_group, sl2_semigroup, kind, word, expected):
        a = limits.Alphabet.of(sl2_pair, kind)
        assert a.very_reduced(word) is expected
        assert a.very_reduced(list(word)) is expected
        # word_lyapunov_estimate admits exactly the very reduced words
        system = sl2_group if kind == "group" else sl2_semigroup
        if expected:
            lc.word_lyapunov_estimate(system, [(i, 1) for i in word])
        else:
            with pytest.raises(NotReduced):
                lc.word_lyapunov_estimate(system, [(i, 1) for i in word])

    @pytest.mark.parametrize("kind", ["semigroup", "group"])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_walker_and_forge_report_words_are_unchanged(self, sl2_pair, kind, t):
        # the recursive walker, the inverse pairing and the forge report's
        # filter and cap, as they were spelled before the alphabet
        from limitcone.schottky import _sample_forge_words

        a = limits.Alphabet.of((sl2_pair * 2)[:t], kind)
        size = len(a.elements)

        def inv(i):
            return (i + t) % (2 * t) if kind == "group" else None

        def extend(prefix):
            for i in range(size):
                if prefix and i == inv(prefix[-1]):
                    continue
                word = prefix + (i,)
                yield word
                if len(word) < 6:
                    yield from extend(word)

        walked = list(extend(()))
        assert sorted(w for level, _, _ in a.levels(6) for w in level) == walked
        words = [w for w in walked if len(w) == 1 or w[0] != inv(w[-1])]
        if len(words) > 1000:
            keep = np.random.default_rng(5).choice(len(words), size=1000, replace=False)
            words = [words[i] for i in sorted(keep)]
        assert _sample_forge_words(a, rng_seed=5) == words

    def test_convexity_admits_the_same_pairs(self, sl2_pair):
        # check_convexity's seam test, as it was spelled before the alphabet
        s = _sampler(sl2_pair, kind="group", max_length=3)
        a = s.alphabet
        inv = a.inverse_index
        words = s.words()
        admitted = 0
        for w1 in words:
            for w2 in words:
                old = not (
                    w1[0] == inv(w1[-1])
                    or w2[0] == inv(w2[-1])
                    or w2[0] == inv(w1[-1])
                    or w1[0] == inv(w2[-1])
                )
                assert a.very_reduced(w1 * 2 + w2 * 2) is old
                admitted += old
        assert 0 < admitted < len(words) ** 2


def _assert_batches_equal_letter_products(s, words=None):
    """Every word's mu/lambda, read from its batch, are bit-identical to the
    product_cartan/product_jordan of its letters: one accumulator."""
    elems = s.alphabet.elements
    for batch, product, _ in limits._batches(s, words):
        mu = lc.projections.product_projection(product, jordan=False)
        lam = lc.projections.product_projection(product, jordan=True)
        for row, word in enumerate(batch):
            letters = [elems[i] for i in word]
            assert np.array_equal(lc.product_jordan(letters).coords, lam[row])
            assert np.array_equal(lc.product_cartan(letters).coords, mu[row])


class TestSamplerWords:
    def test_exhaustive_order_and_count(self, sl2_pair):
        words = _sampler(sl2_pair, max_length=3).words()
        assert len(words) == 14
        assert words[:6] == [
            (0,),
            (1,),
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]
        assert all(len(w) <= 3 for w in words)

    def test_group_words_are_reduced(self, sl2_pair):
        s = _sampler(sl2_pair, kind="group", max_length=3)
        words = s.words()
        assert len(words) == 4 + 12 + 36
        for w in words:
            for a, b in zip(w, w[1:]):
                assert b != s.alphabet.inverse_index(a)

    def test_random_reproducible(self, sl2_pair):
        kw = dict(count=100, max_length=5, seed=9)
        a = _sampler(sl2_pair, **kw).words()
        b = _sampler(sl2_pair, **kw).words()
        assert a == b
        c = _sampler(sl2_pair, **{**kw, "seed": 10}).words()
        assert a != c

    def test_budget_guard(self, sl2_pair):
        with pytest.raises(BudgetExceeded):
            _sampler(sl2_pair, max_length=25).words()

    def test_word_product_matches_direct(self, sl2_pair):
        g1, g2 = sl2_pair
        s = _sampler(sl2_pair, max_length=3)
        product = s.alphabet.accumulate([(0, 1, 1)])
        direct = g1 @ g2 @ g2
        (p, ls), = product
        assert np.allclose(np.exp(ls[0]) * p[0], direct.entries, atol=1e-9)
        mu = lc.projections.product_projection(product, jordan=False)[0]
        lam = lc.projections.product_projection(product, jordan=True)[0]
        assert np.allclose(mu, lc.cartan_projection(direct).coords, atol=1e-9)
        assert np.allclose(lam, lc.jordan_projection(direct).coords, atol=1e-9)

    @pytest.mark.parametrize("kind", ["semigroup", "group"])
    def test_word_projections_equal_letter_products(self, sl2_pair, kind):
        s = _sampler(sl2_pair, kind=kind, max_length=4)
        _assert_batches_equal_letter_products(s)
        # a supplied list of the same words is one ragged batch, read the same
        _assert_batches_equal_letter_products(s, s.words())

    def test_random_word_projections_equal_letter_products(self, forged_semigroup):
        s = _sampler(
            forged_semigroup.generators, count=20, max_length=8, seed=3
        )
        _assert_batches_equal_letter_products(s)


class TestEstimateCone:
    def test_single_hyperbolic_generator(self):
        g = lc.GroupElement.from_matrix(np.diag([10.0, 1.0, 0.1]))
        est = lc.estimate_cone(_sampler([g], max_length=4))
        assert est.hull_dim == 1
        assert len(est.hull_rays) == 1
        lam = lc.jordan_projection(g).coords
        assert np.allclose(
            est.hull_rays[0].coords, lam / np.linalg.norm(lam), atol=1e-9
        )
        assert max(est.per_word_mu_lambda_gap) <= 1e-9

    def test_sl2_pair_single_direction(self, sl2_pair):
        est = lc.estimate_cone(_sampler(sl2_pair, max_length=5))
        assert est.hull_dim == 1
        assert np.allclose(
            est.hull_rays[0].coords, np.array([1.0, -1.0]) / np.sqrt(2.0), atol=1e-12
        )

    def test_forged_hull(self, forged_cone_estimate, forge_cone):
        est = forged_cone_estimate
        assert est.hull_dim == 2
        assert len(est.hull_rays) == 2
        got = sorted([tuple(r.coords) for r in est.hull_rays])
        want = sorted([tuple(r.coords) for r in forge_cone.rays])
        for g, w in zip(got, want):
            cos = float(np.dot(g, w))
            assert np.arccos(np.clip(cos, -1.0, 1.0)) <= np.deg2rad(2.0)

    def test_hull_soundness(self, forged_cone_estimate):
        from limitcone import cones

        hull = np.stack([r.coords for r in forged_cone_estimate.hull_rays])
        for d in forged_cone_estimate.directions:
            assert cones.in_cone(d.coords, hull, slack=1e-9)

    def test_hull_stable_in_depth(self, forged_semigroup, forged_cone_estimate):
        shallow = lc.estimate_cone(
            _sampler(forged_semigroup.generators, max_length=3)
        )
        got = sorted([tuple(r.coords) for r in shallow.hull_rays])
        deep = sorted([tuple(r.coords) for r in forged_cone_estimate.hull_rays])
        for g, w in zip(got, deep):
            cos = float(np.clip(np.dot(g, w), -1.0, 1.0))
            assert np.arccos(cos) <= np.deg2rad(1.0)

    def test_degenerate_sample(self):
        g = lc.GroupElement.from_matrix(rotation2(0.5))
        with pytest.raises(DegenerateSample):
            lc.estimate_cone(_sampler([g], max_length=3))

    @pytest.mark.parametrize("power", [6, 8, 10])
    def test_one_ray_cone_of_near_duplicate_directions(self, power):
        # from p = 8 on, rounding splits lambda's one direction into several
        # within 1e-9; the hull keeps the ray they share
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))
        r = np.array([3.0, 1.0, -1.0, -3.0]) / np.sqrt(20.0)
        gens = [
            lc.GroupElement.from_unimodular(q @ np.diag(np.exp(s * power * r)) @ q.T)
            for s in (1, 2)
        ]
        est = lc.estimate_cone(_sampler(gens, max_length=6))
        assert est.hull_rays
        for ray in est.hull_rays:
            assert np.abs(ray.coords - r).max() <= 1e-9


class TestCheckConvexity:
    def test_sl2_midpoints_converge(self, sl2_pair):
        s = _sampler(sl2_pair, max_length=3)
        est = lc.estimate_cone(s)
        report = lc.check_convexity(est, s, trials=10, seed=0)
        assert report.trials == 10
        # one-dimensional chamber: every direction is the midpoint
        assert report.max_final_error <= 1e-6
        assert report.all_in_hull

    def test_group_trials_respect_seams(self, sl2_pair):
        s = _sampler(sl2_pair, kind="group", max_length=2)
        est = lc.estimate_cone(s)
        report = lc.check_convexity(est, s, trials=5, seed=1)
        assert report.trials == 5
        assert len(report.angular_errors) == 5
        assert all(len(e) == 4 for e in report.angular_errors)

    def test_a_narrower_hull_misses_the_powers(self, forged_sampler, forged_cone_estimate):
        # one of the two hull rays alone cannot hold the midpoints between them
        est = forged_cone_estimate
        assert lc.check_convexity(est, forged_sampler, trials=5).all_in_hull
        narrow = dataclasses.replace(est, hull_rays=est.hull_rays[:1], hull_dim=1)
        assert not lc.check_convexity(narrow, forged_sampler, trials=5).all_in_hull

    def test_no_admissible_pair_is_a_degenerate_sample(self, sl2_pair):
        # one drawn word, the conjugate g2 g1 g2^-1: its last letter undoes its
        # first, so no w^m w^m is very reduced
        s = _sampler(sl2_pair, kind="group", max_length=3, count=1, seed=8)
        (word,) = [w for batch, _, _ in limits._batches(s) for w in batch]
        assert not s.alphabet.very_reduced(word * 4)
        est = lc.estimate_cone(_sampler(sl2_pair, max_length=2))
        with pytest.raises(DegenerateSample, match="no admissible word pair"):
            lc.check_convexity(est, s, trials=3)

    def test_rotations_have_no_direction_to_converge_to(self, sl2_pair):
        # lambda of a rotation word is rounding noise: estimate_cone and
        # check_convexity refuse the sample alike
        s = _sampler([lc.GroupElement.from_matrix(rotation2(t)) for t in (0.5, 1.1)], max_length=3)
        with pytest.raises(DegenerateSample):
            lc.estimate_cone(s)
        est = lc.estimate_cone(_sampler(sl2_pair, max_length=2))
        with pytest.raises(DegenerateSample, match="no admissible word pair"):
            lc.check_convexity(est, s, trials=5)

    def test_kept_midpoints_clear_the_noise_floor(self, sl2_pair):
        # diag(10, 0.1) with a rotation: a pair of rotation words has a
        # midpoint of rounding noise, and is dropped, not redrawn
        s = _sampler([sl2_pair[0], lc.GroupElement.from_matrix(rotation2(0.5))], max_length=3)
        a = s.alphabet
        words = s.words()
        rng = np.random.default_rng(4)
        drawn = []
        for _ in range(20):  # a semigroup's pairs are all very reduced
            w1 = words[int(rng.integers(0, len(words)))]
            w2 = words[int(rng.integers(0, len(words)))]
            drawn.append((w1, w2))

        def lam(word):
            return _reference_projection(_reference_accumulate(a, word), True)

        def floor(length):
            return 1e-9 * max(1.0, length)

        want = []
        for w1, w2 in drawn:
            mid = 0.5 * (lam(w1) + lam(w2))
            length = len(w1) + len(w2)
            if np.linalg.norm(mid) <= floor(0.5 * length):
                continue
            mid = mid / np.linalg.norm(mid)
            errs = []
            for m in (1, 2, 4, 8):
                power = lam(w1 * m + w2 * m)
                norm = np.linalg.norm(power)
                errs.append(np.pi if norm <= floor(m * length) else limits._angle(power / norm, mid))
            want.append(tuple(errs))
        report = lc.check_convexity(lc.estimate_cone(s), s, trials=20, seed=4)
        assert 0 < report.trials == len(want) < len(drawn)
        assert np.array_equal(np.array(report.angular_errors), np.array(want))

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_must_be_positive(self, sl2_pair, trials):
        # a usage error, not a sampling failure
        s = _sampler(sl2_pair, max_length=2)
        with pytest.raises(InvalidInput, match="trials"):
            lc.check_convexity(lc.estimate_cone(s), s, trials=trials)


class TestCompareMuLambda:
    def test_diagonal_generator_is_exact(self):
        g = lc.GroupElement.from_matrix(np.diag([4.0, 2.0, 1.0 / 8.0]))
        gaps = lc.compare_mu_lambda(_sampler([g], max_length=6))
        assert max(gaps) <= 1e-9

    def test_sl2_pair_bounded(self, sl2_pair):
        gaps = lc.compare_mu_lambda(_sampler(sl2_pair, max_length=8))
        assert all(g <= gaps[1] + 0.5 for g in gaps)

    def test_unipotent_growth(self):
        u = lc.GroupElement.from_matrix([[1.0, 1.0], [0.0, 1.0]])
        gaps = lc.compare_mu_lambda(_sampler([u], max_length=16))
        # lambda vanishes while mu grows ~ log(length): the gap diverges
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] >= 1.0

    def test_words_longer_than_the_recursion_limit(self):
        g = lc.GroupElement.from_matrix(np.diag([2.0, 0.5]))
        gaps = lc.compare_mu_lambda(_sampler([g], max_length=1500))
        assert len(gaps) == 1500
        assert max(gaps) <= 1e-9

    def test_a_length_no_word_has_is_nan(self, sl2_pair):
        # five drawn words of lengths 6, 12, 11, 12 and 6: no gap is known at
        # the other lengths, and 0.0 would claim mu = lambda there
        s = _sampler(sl2_pair, count=5, max_length=12, seed=1)
        lengths = {len(w) for w in s.words()}
        assert lengths == {6, 11, 12}
        gaps = lc.compare_mu_lambda(s)
        assert len(gaps) == 12
        for length, g in enumerate(gaps, start=1):
            assert np.isnan(g) == (length not in lengths)
        est = lc.estimate_cone(s)
        for length in lengths:
            want = max(g for g, l in zip(est.per_word_mu_lambda_gap, est.word_lengths) if l == length)
            assert gaps[length - 1] == want


class TestEstimateLimitSet:
    def test_single_hyperbolic_forward_and_backward(self):
        g = lc.GroupElement.from_matrix(np.diag([10.0, 1.0, 0.1]))
        s = _sampler([g], max_length=4)
        fwd = lc.estimate_limit_set(s, side="forward")
        bwd = lc.estimate_limit_set(s, side="backward")
        assert fwd.depth == 4 and fwd.side == "forward"
        for k in (1, 2):
            assert len(fwd.cloud(k)) == 1
            assert len(bwd.cloud(k)) == 1
        assert np.allclose(fwd.cloud(1)[0].rep, [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(bwd.cloud(1)[0].rep, [0.0, 0.0, 1.0], atol=1e-12)

    def test_sl2_group_cloud_grows_and_converges(self, sl2_pair):
        clouds = {}
        for depth in (3, 4, 5):
            s = _sampler(sl2_pair, kind="group", max_length=depth)
            clouds[depth] = lc.estimate_limit_set(s).cloud(1)
        assert len(clouds[3]) < len(clouds[4]) < len(clouds[5])
        hd43 = lc.hausdorff_distance(clouds[4], clouds[3])
        hd54 = lc.hausdorff_distance(clouds[5], clouds[4])
        assert hd54 < hd43

    def test_invariance_under_generators(self, sl2_pair):
        g1, _ = sl2_pair
        s = _sampler(sl2_pair, kind="group", max_length=5)
        cloud = lc.estimate_limit_set(s).cloud(1)
        image = [
            lc.ProjectivePoint.from_vector(g1.entries @ p.rep) for p in cloud
        ]
        # generator images of the cloud stay close to the cloud
        worst = max(
            min(lc.proj_distance(q, p) for p in cloud) for q in image
        )
        assert worst <= 0.05

    @pytest.mark.parametrize("k", [0, -1, 3])
    def test_a_degree_outside_the_clouds_is_refused(self, k):
        # n = 3 has clouds of degrees 1 and 2; k - 1 once read another degree's
        s = _sampler([lc.GroupElement.from_matrix(np.diag([10.0, 1.0, 0.1]))], max_length=2)
        with pytest.raises(InvalidInput):
            lc.estimate_limit_set(s).cloud(k)

    def test_invalid_side(self, sl2_pair):
        with pytest.raises(InvalidInput):
            lc.estimate_limit_set(_sampler(sl2_pair), side="sideways")

    def test_degenerate_sample(self):
        g = lc.GroupElement.from_matrix(rotation2(0.4))
        with pytest.raises(DegenerateSample):
            lc.estimate_limit_set(_sampler([g], max_length=3))


class TestEstimateFacets:
    def test_counts_and_transversality(self, sl2_pair):
        facets = lc.estimate_facets(_sampler(sl2_pair, max_length=3))
        by_length = {}
        for f in facets:
            by_length[len(f.word)] = by_length.get(len(f.word), 0) + 1
        assert by_length == {1: 2, 2: 4, 3: 8}
        assert all(f.general_position for f in facets)

    def test_commuting_pair_keeps_diagonal_facets(self, sl2_pair_aligned):
        # gamma2 = diag(0.1, 10) commutes with gamma1: mixed products are
        # diagonal, words multiplying to the identity drop out as non-proximal
        facets = lc.estimate_facets(_sampler(sl2_pair_aligned, max_length=3))
        assert len(facets) == 12
        assert all(f.general_position for f in facets)
        e1 = lc.ProjectivePoint.from_vector([1.0, 0.0])
        e2 = lc.ProjectivePoint.from_vector([0.0, 1.0])
        for f in facets:
            assert min(
                lc.proj_distance(f.forward[0], e1),
                lc.proj_distance(f.forward[0], e2),
            ) <= 1e-9

    def test_density_mechanism(self, sl2_pair):
        # the facet of w1 h w2 approximates (forward flag of w1, backward flag
        # of w2) already at one repetition
        facets = {
            f.word: f for f in lc.estimate_facets(_sampler(sl2_pair, max_length=3))
        }
        probe = facets[(0, 0, 1)]
        lead = facets[(0,)]
        tail = facets[(1,)]
        assert lc.proj_distance(probe.forward[0], lead.forward[0]) <= 0.1
        assert lc.proj_distance(probe.backward[0], tail.backward[0]) <= 0.1

    @pytest.mark.filterwarnings("error")
    def test_degenerate_sample(self, monkeypatch):
        calls = []
        eig = np.linalg.eig

        def counting(a):
            calls.append(a.shape)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting)
        g = lc.GroupElement.from_matrix(rotation2(0.4))
        with np.errstate(all="raise"), pytest.raises(DegenerateSample):
            lc.estimate_facets(_sampler([g], max_length=2))
        # one splitting per level; a level that keeps no row reads no covectors
        assert calls == [(1, 2, 2), (1, 2, 2)]

    # log gap 6e-7 < DEFAULT_PROXIMALITY_FILTER, relative gap far above
    # EIGEN_GAP_TOL: proximal to the splitting, unresolved to the limit set
    FLAT = np.diag(np.exp([3e-7, -3e-7]))

    def test_a_log_gap_under_the_filter_yields_no_facet(self):
        reference_top_eigendata(self.FLAT)  # no NotProximal
        s = _sampler([lc.GroupElement.from_matrix(self.FLAT)], max_length=1)
        with pytest.raises(DegenerateSample):
            lc.estimate_limit_set(s)
        with pytest.raises(DegenerateSample):
            lc.estimate_facets(s)

    def test_keep_the_words_the_limit_set_keeps_both_ways(self, sl2_pair):
        s = _sampler([*sl2_pair, lc.GroupElement.from_matrix(self.FLAT)], max_length=3)
        words = [f.word for f in lc.estimate_facets(s)]
        assert words == [word for word, *_ in _reference_facets(s)]
        # the lone letter is refused; its square, log gap 1.2e-6, is kept
        assert (2,) not in words and (2, 2) in words

    @pytest.mark.parametrize("name", ["sl2-semigroup", "sl2-group", "forged-sl3"])
    def test_equal_the_per_word_reference(self, request, sl2_pair, name):
        if name == "forged-sl3":
            sampler = request.getfixturevalue("forged_sampler")
        else:
            sampler = _sampler(sl2_pair, kind=name[4:], max_length=5)
        facets = lc.estimate_facets(sampler)
        reference = _reference_facets(sampler)
        assert len(facets) == len(reference) > 0
        for f, (word, fwd, bwd, general) in zip(facets, reference):
            assert f.word == word and f.general_position == general
            # read-only C-contiguous reps, as ProjectivePoint.from_vector makes
            assert all(
                x.rep.flags.c_contiguous and not x.rep.flags.writeable
                for x in f.forward + f.backward
            )
            assert np.array_equal(np.concatenate([x.rep for x in f.forward]), fwd)
            assert np.array_equal(np.concatenate([x.rep for x in f.backward]), bwd)


def _reference_facets(sampler, epsilon_filter=limits.DEFAULT_PROXIMALITY_FILTER):
    """estimate_facets one word and one readout at a time: per word that is
    proximal both ways with log gaps above the filter at every degree, the
    limit set's rule, (word, forward reps, backward reps, general position).
    The forward side is the limit set's (`_reference_forward`): a word's
    repelling covector is its own product's left eigenvector nearest the
    eigenvalue of the row its forward side is read from."""
    a = sampler.alphabet
    words = sampler.words()
    out = []
    for word, (forward, src) in zip(words, _reference_forward(a, words)):
        compounds = _reference_accumulate(a, word)
        data = [forward, _reference_eigdata(compounds, True)]
        if any(d is None or not all(g > epsilon_filter for g, _ in d) for d in data):
            continue
        fwd, gaps = [], []
        try:
            for (p, _), (q, _), (_, vec) in zip(compounds, _reference_accumulate(a, words[src]), forward):
                reference_top_eigendata(q)  # the proximal mask of the row read
                vals = np.linalg.eig(q)[0]
                alpha = vals[np.argmax(np.abs(vals))]
                wl, vl = np.linalg.eig(p.T)
                covector = np.real(vl[:, np.argmin(np.abs(wl - alpha))])
                x = lc.ProjectivePoint.from_vector(vec).rep
                fwd.append(x)
                gaps.append(abs(float(lc.ProjectiveHyperplane.from_covector(covector).covector @ x)))
        except lc.NotProximal:
            continue
        backward = _reference_eigdata(compounds, backward=True)
        if backward is None or not all(_reference_backward_proximal(p) for p, _ in compounds):
            continue
        bwd = [lc.ProjectivePoint.from_vector(vec).rep for _, vec in backward]
        out.append((word, np.concatenate(fwd), np.concatenate(bwd), min(gaps) > epsilon_filter))
    return out


def _reference_backward_proximal(p):
    """The backward `Splitting.proximal` mask of one matrix: its smallest
    eigenvalue modulus is nonzero, simple and real."""
    vals = np.linalg.eig(p)[0]
    low, runner = vals[np.argsort(np.abs(vals))[:2]]
    a, b = abs(low), abs(runner)
    return a > 0.0 and (b - a) / b >= 1e-10 and abs(low.imag) <= 1e-10 * a


def _reference_distinct_rows(rows, tol):
    # the quadratic greedy loop the vectorised kernel replaced
    out = []
    for r in rows:
        if not any(np.linalg.norm(r - o) <= tol for o in out):
            out.append(r)
    return out


def _reference_greedy_distinct(reps, tol, merges):
    # the kernel's loop before it kept a one-row window untouched
    keys = limits._dedup_keys(reps)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    lo = np.searchsorted(sorted_keys, keys - 4.0 * tol, side="left").tolist()
    hi = np.searchsorted(sorted_keys, keys + 4.0 * tol, side="right").tolist()
    alive = np.ones(len(reps), dtype=bool)
    kept = []
    for i in range(len(reps)):
        if not alive[i]:
            continue
        kept.append(i)
        window = order[lo[i] : hi[i]]
        later = window[(window > i) & alive[window]]
        if later.size:
            alive[later[merges(later, i)]] = False
    return kept


def _reference_merge_points(vectors):
    pts = []
    for v in vectors:
        cand = lc.ProjectivePoint.from_vector(v)
        if not any(lc.proj_distance(cand, q) <= limits.MERGE_TOL for q in pts):
            pts.append(cand)
    return tuple(pts)


def _assert_same_dedup(rows, tol):
    """Directions at `tol` and points at MERGE_TOL keep what the loops keep."""
    rows = [np.asarray(r, dtype=float) for r in rows]
    assert np.array_equal(
        np.stack(limits._distinct_rows(rows, tol)),
        np.stack(_reference_distinct_rows(rows, tol)),
    )
    assert np.array_equal(
        np.stack([p.rep for p in limits._merge_points(rows)]),
        np.stack([p.rep for p in _reference_merge_points(rows)]),
    )


@pytest.fixture(scope="module")
def forged_sl4_dedup_inputs():
    """The forward limit-set clouds per degree and the lambda directions of
    the benchmark's forged SL(4) system (epsilon 0.03, seed 5, depth 7), as
    the dedup kernels receive them."""
    rays = np.array([(3, 1, -1, -3), (5, 1, -2, -4), (4, 2, -2, -4)], dtype=float)
    cone = lc.TargetCone.from_rays(list(rays / np.linalg.norm(rays, axis=1)[:, None]))
    system = lc.forge_semigroup(4, cone, 0.03, seed=5)
    sampler = _sampler(system.generators, max_length=7)
    clouds, dirs = [], []
    merge_points, distinct_rows = limits._merge_points, limits._distinct_rows

    def capture_points(vectors):
        clouds.append(vectors)
        return merge_points(vectors)

    def capture_rows(rows, tol):
        dirs.append(rows)
        return distinct_rows(rows, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "_merge_points", capture_points)
        mp.setattr(limits, "_distinct_rows", capture_rows)
        lc.estimate_limit_set(sampler)
        lc.estimate_cone(sampler)
    return clouds, dirs[0]


def _offset(v, w, distance):
    """v moved by `distance` along the unit part of w orthogonal to v."""
    w = w - (w @ v) * v
    return v + distance * w / np.linalg.norm(w)


def _lambda_directions(sampler):
    """The unit Jordan projection of each sampled word, from its letters."""
    elems = sampler.alphabet.elements
    return [lc.product_jordan([elems[i] for i in w]).direction() for w in sampler.words()]


class TestDedupKernels:
    DIRECTION_TOL = 1e-12  # the tolerance estimate_cone uses

    @pytest.mark.parametrize("kind", ["semigroup", "group"])
    def test_sl2_clouds_and_directions_match_the_loops(self, sl2_pair, kind):
        s = _sampler(sl2_pair, kind=kind, max_length=5)
        products = [_reference_accumulate(s.alphabet, w) for w in s.words()]
        for side in (False, True):
            vecs = [eigen_splittings(p[0][0][None])[side].vectors[0] for p in products]
            _assert_same_dedup(vecs, limits.MERGE_TOL)
        _assert_same_dedup(_lambda_directions(s), self.DIRECTION_TOL)

    def test_forged_directions_match_the_loop(self, forged_sampler):
        dirs = _lambda_directions(forged_sampler)
        kept = limits._distinct_rows(dirs, self.DIRECTION_TOL)
        assert 1 < len(kept) < len(dirs)
        assert np.array_equal(
            np.stack(kept), np.stack(_reference_distinct_rows(dirs, self.DIRECTION_TOL))
        )

    def test_exact_duplicates(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((6, 3))
        rows = base[rng.integers(0, 6, size=40)]
        for tol in (self.DIRECTION_TOL, limits.MERGE_TOL):
            _assert_same_dedup(rows, tol)
        assert len(limits._distinct_rows(list(rows), self.DIRECTION_TOL)) == 6
        assert len(limits._merge_points(rows)) == 6

    @pytest.mark.parametrize("factor", [0.5, 0.999, 1.001, 3.9, 4.1])
    def test_pairs_around_the_tolerance(self, factor):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.standard_normal(4)
            v /= np.linalg.norm(v)
            w = rng.standard_normal(4)
            for tol in (self.DIRECTION_TOL, limits.MERGE_TOL):
                _assert_same_dedup([v, _offset(v, w, factor * tol)], tol)
        if factor in (0.5, 3.9, 4.1):
            pair = [v, _offset(v, w, factor * limits.MERGE_TOL)]
            assert len(limits._merge_points(pair)) == (1 if factor < 1 else 2)

    def test_canonical_signs_differ_across_a_tie(self):
        # |v0| > |v1| and |u1| > |u0|: the canonical representatives point
        # almost opposite ways while the lines are 1e-10 apart
        v = np.array([1.0 + 1e-10, -1.0])
        u = np.array([1.0, -1.0 - 1e-10])
        a, b = (lc.ProjectivePoint.from_vector(x) for x in (v, u))
        assert np.linalg.norm(a.rep - b.rep) > 1.0
        _assert_same_dedup([v, u], limits.MERGE_TOL)
        assert len(limits._merge_points([v, u])) == 1

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0)])
    def test_chain_pins_greedy_order(self, order):
        # d(a, b) < tol, d(b, c) < tol, d(a, c) > tol
        v = np.array([0.6, -0.48, 0.64])
        w = np.array([0.0, 1.0, 0.0])
        # b first absorbs both ends; a or c first keeps the other end too
        expected = 1 if order[0] == 1 else 2
        for tol in (self.DIRECTION_TOL, limits.MERGE_TOL):
            chain = [_offset(v, w, s * tol) for s in (0.0, 0.7, 1.4)]
            rows = [chain[i] for i in order]
            _assert_same_dedup(rows, tol)
            assert len(limits._distinct_rows(rows, tol)) == expected
        assert len(limits._merge_points(rows)) == expected

    def test_decider_called_at_most_once_per_kept_row(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((6, 3))
        corpora = [(base[rng.integers(0, 6, size=40)], tol)
                   for tol in (self.DIRECTION_TOL, limits.MERGE_TOL)]
        v = np.array([0.6, -0.48, 0.64])
        w = np.array([0.0, 1.0, 0.0])
        for order in ((0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0)):
            for tol in (self.DIRECTION_TOL, limits.MERGE_TOL):
                chain = [_offset(v, w, s * tol) for s in (0.0, 0.7, 1.4)]
                corpora.append((np.stack([chain[i] for i in order]), tol))
        for rows, tol in corpora:
            asked = []

            def merges(later, i):
                assert later.size and (later > i).all() and i not in asked
                asked.append(i)
                return np.array([np.linalg.norm(rows[j] - rows[i]) <= tol for j in later])

            kept = limits._greedy_distinct(rows, tol, merges)
            assert 0 < len(asked) <= len(kept) and set(asked) <= set(kept)
            assert np.array_equal(rows[kept], np.stack(_reference_distinct_rows(rows, tol)))

    def test_point_dedup_makes_at_most_one_exact_call_per_candidate(
        self, sl2_pair, monkeypatch
    ):
        # the quadratic loop made about one call per (candidate, kept point)
        counts = {"calls": 0, "candidates": 0}
        proj_distance, merge_points = limits.proj_distance, limits._merge_points

        def counting_distance(x1, x2):
            counts["calls"] += 1
            return proj_distance(x1, x2)

        def counting_merge(vectors):
            counts["candidates"] += len(vectors)
            return merge_points(vectors)

        monkeypatch.setattr(limits, "proj_distance", counting_distance)
        monkeypatch.setattr(limits, "_merge_points", counting_merge)
        sample = lc.estimate_limit_set(_sampler(sl2_pair, kind="group", max_length=6))
        assert counts["candidates"] == 1456 and len(sample.cloud(1)) == 448
        assert 0 < counts["calls"] <= counts["candidates"]

    def test_point_dedup_measures_once_per_kept_point(self, sl2_pair, monkeypatch):
        # a per-candidate loop measures every candidate against the kept points
        calls = []
        chordal_distances = limits.chordal_distances

        def counting_chordal(a, b):
            calls.append(1)
            return chordal_distances(a, b)

        monkeypatch.setattr(limits, "chordal_distances", counting_chordal)
        sample = lc.estimate_limit_set(_sampler(sl2_pair, kind="group", max_length=6))
        assert len(sample.cloud(1)) == 448
        assert 0 < len(calls) <= 448

    def test_forged_sl4_clouds_and_directions_match_the_loops(self, forged_sl4_dedup_inputs):
        clouds, dirs = forged_sl4_dedup_inputs
        for cloud in clouds:
            kept = limits._merge_points(cloud)
            assert len(kept) < len(cloud) // 50  # dense clusters
            assert np.array_equal(
                np.stack([p.rep for p in kept]),
                np.stack([p.rep for p in _reference_merge_points(cloud)]),
            )
        kept = limits._distinct_rows(dirs, self.DIRECTION_TOL)
        assert 1 < len(kept) < len(dirs)
        assert np.array_equal(
            np.stack(kept), np.stack(_reference_distinct_rows(dirs, self.DIRECTION_TOL))
        )

    def test_rows_sharing_one_key(self, monkeypatch):
        d = 4
        # the key of a basis vector is that coordinate of the key direction
        u = limits._dedup_keys(np.eye(d))
        rng = np.random.default_rng(3)
        cloud = rng.standard_normal((60, d))
        cloud -= np.outer(cloud @ u, u)
        cloud /= np.linalg.norm(cloud, axis=1)[:, None]
        assert np.ptp(limits._dedup_keys(cloud)) < self.DIRECTION_TOL
        calls = {"same": 0, "measure": 0}
        proj_distance, chordal_distances = limits.proj_distance, limits.chordal_distances

        def counting_distance(x1, x2):
            calls["same"] += 1
            return proj_distance(x1, x2)

        def counting_chordal(a, b):
            calls["measure"] += 1
            return chordal_distances(a, b)

        monkeypatch.setattr(limits, "proj_distance", counting_distance)
        monkeypatch.setattr(limits, "chordal_distances", counting_chordal)
        # no two rows lie within 4 * tol: one window holds them all, yet
        # the exact distance is never asked
        assert len(limits._merge_points(cloud)) == len(cloud)
        assert calls == {"same": 0, "measure": len(cloud) - 1}
        _assert_same_dedup(cloud, self.DIRECTION_TOL)
        for tol in (self.DIRECTION_TOL, limits.MERGE_TOL):
            rows = list(cloud)
            for v in cloud[:10]:
                w = rng.standard_normal(d)
                w -= (w @ u) * u
                rows += [_offset(v, w, 0.5 * tol), _offset(v, w, 1.001 * tol)]
            assert np.ptp(limits._dedup_keys(np.stack(rows))) < tol
            _assert_same_dedup(rng.permutation(rows), tol)

    def test_only_rows_within_tol_reach_the_decider(self, monkeypatch):
        # a point at 1.001 MERGE_TOL cannot merge and is never asked about;
        # points a few ulps either side of MERGE_TOL still are, and
        # proj_distance settles them
        tol = limits.MERGE_TOL
        base = np.array([0.6, 0.0, -0.8])
        ulp = np.finfo(float).eps
        asked_about = []
        proj_distance = limits.proj_distance

        def counting_distance(x1, x2):
            asked_about.append(1)
            return proj_distance(x1, x2)

        monkeypatch.setattr(limits, "proj_distance", counting_distance)
        for factor, asked, kept in (
            (1.001, 0, 2), (1.0 + 4 * ulp, 1, 2), (1.0, 1, 1), (1.0 - 4 * ulp, 1, 1),
        ):
            # the offset sits where base is 0 and both rows have norm 1.0, so
            # their canonical representatives differ by exactly the offset
            rows = np.stack([base, base + [0.0, factor * tol, 0.0]])
            asked_about.clear()
            got = limits._merge_points(rows)
            assert (len(asked_about), len(got)) == (asked, kept), factor

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 6),
        clusters=st.integers(1, 8),
        fine=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_clouds_match_the_loops(self, seed, d, clusters, fine):
        tol = self.DIRECTION_TOL if fine else limits.MERGE_TOL
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(clusters):
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            rows.append(v)
            # planted duplicates around the tolerance and the prefilter's reach
            for factor in rng.uniform(0.5, 4.1, size=rng.integers(0, 4)):
                rows.append(_offset(v, rng.standard_normal(d), factor * tol))
            # the same line, spelled with the other sign
            rows.append(-_offset(v, rng.standard_normal(d), 0.5 * tol))
            # a chain: neighbours within tol, ends apart
            w = rng.standard_normal(d)
            rows += [_offset(v, w, s * tol) for s in (0.7, 1.4, 2.1)]
        # representatives whose canonical signs differ across a tie of the
        # largest coordinates
        tie = rng.uniform(-0.5, 0.5, size=d)
        tie[:2] = (1.0, -1.0)
        a, b = tie.copy(), tie.copy()
        a[0] += 0.3 * tol
        b[1] -= 0.3 * tol
        rows += [a / np.linalg.norm(a), b / np.linalg.norm(b)]
        _assert_same_dedup(rng.permutation(rows), tol)


def _window_corpus(kind, seed, tol):
    """Rows for the dedup kernel: "singletons" (most key windows hold one row,
    as on the sl3 workload), "duplicates" (a few clusters, as on sl2 and sl4)
    or "planted" (partners whose keys sit just inside and just outside the
    4 * tol window, with a few exact repeats)."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    if kind == "singletons":
        rows = rng.standard_normal((1500, d))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        rows = np.concatenate([rows, rows[rng.integers(0, 1500, size=300)]])
    elif kind == "duplicates":
        base = rng.standard_normal((8, d))
        base /= np.linalg.norm(base, axis=1)[:, None]
        rows = base[rng.integers(0, 8, size=1500)]
        rows = rows + 0.1 * tol * rng.standard_normal(rows.shape)
    else:
        u = limits._dedup_keys(np.eye(d))
        base = rng.standard_normal((60, d))
        base *= np.sign(base @ u)[:, None]  # positive keys: moving along u adds to the key
        partners = {f: base + f * 4.0 * tol * u for f in (0.25, 0.999, 1.001, 1.5)}
        gap = {f: limits._dedup_keys(p) - limits._dedup_keys(base) for f, p in partners.items()}
        assert (gap[0.999] <= 4.0 * tol).all() and (gap[1.001] > 4.0 * tol).all()
        rows = np.concatenate([base, *partners.values(), base[:10]])
    return rng.permutation(rows)


class TestDedupWindows:
    """A kept row whose key window holds it alone is kept with no array work;
    the kernel keeps what the loop before that rule kept."""

    TOLS = [1e-12, limits.MERGE_TOL]

    @staticmethod
    def _predicates(rows, tol):
        return {
            "distance": lambda later, i: limits.row_norms(rows[later] - rows[i]) <= tol,
            # everything in the window merges: the kept list is the windows' own
            "window": lambda later, i: np.ones(later.size, dtype=bool),
        }

    @staticmethod
    def _recorded(merges, calls):
        """`merges`, appending each call's (i, later) to `calls`."""
        def record(later, i):
            calls.append((i, later.tolist()))
            return merges(later, i)
        return record

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("kind", ["singletons", "duplicates", "planted"])
    @pytest.mark.parametrize("seed", range(4))
    def test_kept_rows_equal_the_loop(self, kind, seed, tol):
        rows = _window_corpus(kind, seed, tol)
        for name, merges in self._predicates(rows, tol).items():
            got = limits._greedy_distinct(rows, tol, merges)
            assert got == _reference_greedy_distinct(rows, tol, merges), name

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("kind", ["singletons", "duplicates", "planted"])
    def test_merges_is_asked_once_per_window_with_later_rows(self, kind, tol):
        rows = _window_corpus(kind, 7, tol)
        keys = limits._dedup_keys(rows)
        sorted_keys = np.sort(keys)
        span = (np.searchsorted(sorted_keys, keys + 4.0 * tol, side="right")
                - np.searchsorted(sorted_keys, keys - 4.0 * tol, side="left"))
        for merges in self._predicates(rows, tol).values():
            asked, want = [], []
            kept = limits._greedy_distinct(rows, tol, self._recorded(merges, asked))
            _reference_greedy_distinct(rows, tol, self._recorded(merges, want))
            assert asked == want
            called = [i for i, _ in asked]
            assert len(set(called)) == len(called) and set(called) <= set(kept)
            assert all(span[i] > 1 for i in called)
            assert all(later and min(later) > i for i, later in asked)
            if kind == "singletons":
                assert sum(span[i] == 1 for i in kept) > len(kept) // 2


# The per-word engine that the batched one replaced, carried as the
# reference: one accumulator per word, one readout per word and degree.


def _reference_accumulate(alphabet, word):
    product = []
    for k in range(1, alphabet.n):
        d = comb(alphabet.n, k)
        product.append((np.eye(d) / np.sqrt(d), 0.5 * np.log(d)))
    for i in word:
        out = []
        powers = [lc.exterior_power(alphabet.elements[i], k) for k in range(1, alphabet.n)]
        for (p, ls), c in zip(product, powers):
            q = p @ c
            s = float(np.linalg.norm(q))
            out.append((q / s, ls + np.log(s)))
        product = out
    return product


def _reference_projection(product, jordan):
    partial = []
    for p, ls in product:
        if jordan:
            top = float(np.max(np.abs(np.linalg.eigvals(p))))
        else:
            # the library's read of the top singular value, on a stack of one
            q = p[None]
            top = float(np.sqrt(np.linalg.eigvalsh(q.transpose(0, 2, 1) @ q)[0, -1]))
        partial.append(float(np.log(top) + ls))
    v = np.sort(np.diff([0.0] + partial + [0.0]))[::-1]
    return v - v.sum() / v.shape[0]


def _reference_eigdata(product, backward):
    """Per degree (log gap, attracting vector), or None where the per-word
    readout raised NotProximal."""
    out = []
    for p, _ in product:
        vals, vecs = np.linalg.eig(p)
        mod = np.abs(vals)
        order = np.argsort(mod)[::-1]
        top_i, second_i = (order[-1], order[-2]) if backward else (order[0], order[1])
        a, b = mod[top_i], mod[second_i]
        if min(a, b) <= 0.0:
            return None
        vec = np.real(vecs[:, top_i])
        if float(np.linalg.norm(vec)) == 0.0:
            return None
        out.append((abs(float(np.log(a) - np.log(b))), vec))
    return out


def _reference_walk(alphabet, max_length):
    """The reduced words in preorder, by recursion: the walk the levels replaced."""

    def extend(prefix):
        for i in range(len(alphabet.elements)):
            if prefix and i == alphabet.inverse_index(prefix[-1]):
                continue
            word = prefix + (i,)
            yield word
            if len(word) < max_length:
                yield from extend(word)

    return list(extend(()))


def _reference_draw(sampler):
    rng = np.random.default_rng(int(sampler.seed))
    a = sampler.alphabet
    words = []
    for _ in range(sampler.count):
        word = []
        for _ in range(int(rng.integers(1, sampler.max_length + 1))):
            while True:
                i = int(rng.integers(0, len(a.elements)))
                if not word or i != a.inverse_index(word[-1]):
                    break
            word.append(i)
        words.append(tuple(word))
    return words


def _cancels(alphabet):
    return [-1 if c is None else c for _, _, c in alphabet.letters]


def _reference_core(cancels, word):
    """(start, core): the word's cyclic core, by tuples, the end letters
    dropped while they cancel, one letter kept, and how many went from each end."""
    core, start = tuple(word), 0
    while len(core) > 2 and core[-1] == cancels[core[0]]:
        core, start = core[1:-1], start + 1
    return start, core


def _reference_canon(cancels, word):
    """The least rotation of the word's cyclic core, from every rotation."""
    core = _reference_core(cancels, word)[1]
    return min(core[i:] + core[:i] for i in range(len(core)))


def _reference_class_lambda(alphabet, word):
    """lambda of the class of a representative, as the class readout reads
    it: from the word when it is cyclically reduced, else from the least
    rotation of its cyclic core."""
    cancels = _cancels(alphabet)
    if len(_reference_core(cancels, word)[1]) < len(word):
        word = _reference_canon(cancels, word)
    return _reference_projection(_reference_accumulate(alphabet, word), True)


def _reference_lead(cancels, word, rep):
    """The length of the prefix p with w p = p r, of the word w and its
    cyclically reduced representative r: the core's letters up to the first
    place its rotation is r, after the letters the core drops in front.
    None when r is not cyclically reduced."""
    if len(_reference_core(cancels, rep)[1]) < len(rep):
        return None
    start, core = _reference_core(cancels, word)
    canon = _reference_canon(cancels, word)

    def shift(v):
        return min(i for i in range(len(v)) if v[i:] + v[:i] == canon)

    return start + (shift(core) - shift(rep)) % len(core)


def _free_reduction(cancels, word):
    """The letters left once every letter next to the one that cancels it is dropped."""
    out = []
    for i in word:
        if out and cancels[out[-1]] == i:
            out.pop()
        else:
            out.append(i)
    return tuple(out)


def _reference_representatives(cancels, words):
    """Per word, the first of the shortest words of the list with its canon."""
    canons = [_reference_canon(cancels, w) for w in words]
    best = {}
    for i, c in enumerate(canons):
        if c not in best or len(words[i]) < len(words[best[c]]):
            best[c] = i
    return [best[c] for c in canons]


def _mp_letters(mp, alphabet):
    """The letters as exact matrices at the working precision of `mp` (mpmath).

    A generator is its entries, or q diag(exp(s r)) q^T with q orthonormalised
    at full precision when it is factored (its entries round away the small
    singular values); an inverse letter is the generator's exact inverse, so
    u v u^-1 is exactly a conjugate of v.
    """
    gens = {}
    for j, _, _ in alphabet.letters:
        g = alphabet.elements[j]
        if g.factors is None:
            gens[j] = mp.matrix(g.entries.tolist())
        else:
            q, r, power = g.factors
            q = mp.qr(mp.matrix(q.tolist()))[0]
            d = mp.diag([mp.exp(mp.mpf(power) * mp.mpf(x)) for x in r.tolist()])
            gens[j] = q * d * q.T
    return [gens[j] ** -1 if inverted else gens[j] for j, inverted, _ in alphabet.letters]


def _mp_product(letters, word):
    """The word's product of `letters` (see `_mp_letters`)."""
    m = letters[word[0]]
    for i in word[1:]:
        m = m * letters[i]
    return m


def _mp_lambda(mp, letters, word):
    """lambda of the word's product of `letters` (see `_mp_letters`)."""
    m = _mp_product(letters, word)
    logs = sorted((mp.log(abs(e)) for e in mp.eig(m, left=False, right=False)), reverse=True)
    mean = sum(logs) / len(logs)
    return np.array([float(x - mean) for x in logs])


def _reference_carried(alphabet, data, word, lead):
    """Per degree (log gap, vector) of the representative's `data`, its
    vectors carried by the product of the word's first `lead` letters."""
    if data is None or not lead:
        return data
    prefix = _reference_accumulate(alphabet, word[:lead])
    return [(gap, p @ vec) for (gap, vec), (p, _) in zip(data, prefix)]


def _reference_forward(alphabet, words):
    """Per word, (data, src): its forward (log gap, vector) per degree, or
    None, as the class readout reads it, and the row whose own eigenvalues
    it takes.  A word takes its representative's gaps and vector, the vector
    carried by the product of its lead prefix; a word whose representative
    is not cyclically reduced reads its own."""
    cancels = _cancels(alphabet)
    data = [_reference_eigdata(_reference_accumulate(alphabet, w), False) for w in words]
    out = []
    for i, (w, r) in enumerate(zip(words, _reference_representatives(cancels, words))):
        t = _reference_lead(cancels, w, words[r])
        out.append((data[i], i) if t is None else (_reference_carried(alphabet, data[r], w, t), r))
    return out


def _reference_convexity(sampler, hull, trials, seed):
    """check_convexity's angular errors, one word and one readout at a time."""
    a = sampler.alphabet
    words = sorted(_reference_walk(a, sampler.max_length), key=lambda w: (len(w), w))
    rng = np.random.default_rng(seed)
    errors = []
    attempts = 0
    while len(errors) < trials and attempts < 50 * trials:
        attempts += 1
        w1 = words[int(rng.integers(0, len(words)))]
        w2 = words[int(rng.integers(0, len(words)))]
        if not a.very_reduced(w1 * 2 + w2 * 2):
            continue
        mid = 0.5 * (
            _reference_projection(_reference_accumulate(a, w1), True)
            + _reference_projection(_reference_accumulate(a, w2), True)
        )
        if float(np.linalg.norm(mid)) == 0.0:
            continue
        mid = mid / float(np.linalg.norm(mid))
        errs = []
        for m in (1, 2, 4, 8):
            lam = _reference_projection(_reference_accumulate(a, w1 * m + w2 * m), True)
            norm = float(np.linalg.norm(lam))
            errs.append(np.pi if norm == 0.0 else limits._angle(lam / norm, mid))
        errors.append(tuple(errs))
    return errors


@pytest.fixture(scope="module")
def forged_sl4():
    rays = np.array([[3.0, 1, -1, -3], [5.0, 1, -2, -4], [4.0, 2, -2, -4]])
    cone = lc.TargetCone.from_rays(rays / np.linalg.norm(rays, axis=1, keepdims=True))
    return lc.forge_semigroup(4, cone, 0.03, seed=0)


class TestBatchedEngine:
    @pytest.fixture(params=["sl2-semigroup", "sl2-group", "forged-sl3", "forged-sl4",
                            "random-sl3", "random-sl2-group"])
    def sampler(self, request, sl2_pair):
        name = request.param
        if name == "sl2-semigroup":
            return _sampler(sl2_pair, max_length=6)
        if name == "sl2-group":
            return _sampler(sl2_pair, kind="group", max_length=6)
        if name == "forged-sl3":
            return request.getfixturevalue("forged_sampler")
        if name == "forged-sl4":
            return _sampler(request.getfixturevalue("forged_sl4").generators, max_length=4)
        if name == "random-sl3":
            gens = request.getfixturevalue("forged_semigroup").generators
            return _sampler(gens, count=200, max_length=12, seed=3)
        return _sampler(sl2_pair, kind="group", count=200, max_length=9, seed=4)

    def test_words_come_in_the_old_order(self, sampler):
        words = sampler.words()
        if sampler.strategy == "random":
            assert words == _reference_draw(sampler)
        else:
            walked = _reference_walk(sampler.alphabet, sampler.max_length)
            assert words == sorted(walked, key=lambda w: (len(w), w))
        batches = [batch for batch, _, _ in limits._batches(sampler)]
        assert [w for batch in batches for w in batch] == words
        if sampler.strategy == "exhaustive":
            assert [{len(w) for w in b} for b in batches] == [
                {l} for l in range(1, sampler.max_length + 1)
            ]

    def test_products_and_projections_equal_the_per_word_engine(self, sampler):
        a = sampler.alphabet
        for batch, product, _ in limits._batches(sampler):
            mu = lc.projections.product_projection(product, jordan=False)
            lam = lc.projections.product_projection(product, jordan=True)
            for row, word in enumerate(batch):
                ref = _reference_accumulate(a, word)
                for (p, ls), (rp, rls) in zip(product, ref):
                    assert np.array_equal(p[row], rp) and ls[row] == rls
                assert np.array_equal(mu[row], _reference_projection(ref, False))
                assert np.array_equal(lam[row], _reference_projection(ref, True))

    def test_mu_reads_the_top_singular_values_to_8_eps(self, sampler, monkeypatch):
        _assert_top_singular_values_match_svd(sampler, monkeypatch)

    @pytest.mark.parametrize("backward", [False, True])
    def test_eigendata_equals_the_per_word_readout(self, sampler, backward):
        a = sampler.alphabet
        refused = 0
        for batch, product, _ in limits._batches(sampler):
            splits = [eigen_splittings(p)[backward] for p, _ in product]
            with np.errstate(divide="ignore"):
                gaps = [np.abs(np.log(s.top) - np.log(s.second)) for s in splits]
            for row, word in enumerate(batch):
                ref = _reference_eigdata(_reference_accumulate(a, word), backward)
                ok = all(min(s.top[row], s.second[row]) > 0.0 for s in splits)
                assert ok == (ref is not None)
                if ref is None:
                    refused += 1
                    continue
                for s, g, (gap, vec) in zip(splits, gaps, ref):
                    assert g[row] == gap
                    assert np.array_equal(s.vectors[row], vec)
                    point = limits.canonical_units(s.vectors[row : row + 1], "point")[0]
                    assert np.array_equal(point, lc.ProjectivePoint.from_vector(vec).rep)
                if not backward:
                    for s, (p, _) in zip(splits, product):
                        try:
                            reference_top_eigendata(p[row])
                        except lc.NotProximal:
                            assert not s.proximal[row]
                        else:
                            assert s.proximal[row]
        if sampler.n == 4 and backward:
            assert refused > 0  # the forged SL(4) case covers NotProximal words

    def test_estimates_equal_the_per_word_pipeline(self, sampler):
        a = sampler.alphabet
        words = sampler.words()
        products = [_reference_accumulate(a, w) for w in words]
        mus = [_reference_projection(p, False) for p in products]
        # lambda of the word's class, read from its representative
        reps = _reference_representatives(_cancels(a), words)
        lams = [_reference_class_lambda(a, words[r]) for r in reps]
        gaps = [float(np.max(np.abs(m - l))) for m, l in zip(mus, lams)]
        est = lc.estimate_cone(sampler)
        assert est.per_word_mu_lambda_gap == tuple(gaps)
        assert est.word_lengths == tuple(len(w) for w in words)
        dirs = [
            l / np.linalg.norm(l)
            for l, w in zip(lams, words)
            if np.linalg.norm(l) > 1e-9 * max(1.0, float(len(w)))
        ]
        assert np.array_equal(
            np.stack([d.coords for d in est.directions]),
            np.stack(limits._distinct_rows(dirs, 1e-12)),
        )
        by_length = [0.0] * sampler.max_length
        for g, w in zip(gaps, words):
            by_length[len(w) - 1] = max(by_length[len(w) - 1], g)
        assert lc.compare_mu_lambda(sampler) == by_length
        for side in ("forward", "backward"):
            if side == "forward":
                # a word's forward flag is its representative's, carried by
                # the product of its lead prefix
                data = [d for d, _ in _reference_forward(a, words)]
            else:
                data = [_reference_eigdata(p, True) for p in products]
            kept = [d for d in data if d is not None and all(g > 1e-6 for g, _ in d)]
            sample = lc.estimate_limit_set(sampler, side=side)
            for k, cloud in enumerate(sample.points):
                want = limits._merge_points(np.stack([d[k][1] for d in kept]))
                assert np.array_equal(
                    np.stack([p.rep for p in cloud]), np.stack([p.rep for p in want])
                )

    def test_supplied_words_take_the_same_readout(self, sampler):
        # the sampled words, supplied as letter tuples, read the same numbers
        words = sampler.words()
        assert lc.compare_mu_lambda(sampler, words=words) == lc.compare_mu_lambda(sampler)
        a, b = lc.estimate_cone(sampler, words=words), lc.estimate_cone(sampler)
        assert a.per_word_mu_lambda_gap == b.per_word_mu_lambda_gap
        assert a.word_lengths == b.word_lengths
        assert [d.coords.tolist() for d in a.directions] == [d.coords.tolist() for d in b.directions]
        a, b = lc.estimate_limit_set(sampler, words=words), lc.estimate_limit_set(sampler)
        assert [[p.rep.tolist() for p in c] for c in a.points] == [
            [p.rep.tolist() for p in c] for c in b.points
        ]
        a, b = lc.estimate_facets(sampler, words=words), lc.estimate_facets(sampler)
        assert [f.word for f in a] == [f.word for f in b]
        assert [f.general_position for f in a] == [f.general_position for f in b]
        for f, g in zip(a, b):
            assert [x.rep.tolist() for x in f.forward + f.backward] == [
                x.rep.tolist() for x in g.forward + g.backward
            ]

    def test_directions_equal_the_per_row_vectors(self, sampler, monkeypatch):
        kept = []
        distinct_rows = limits._distinct_rows

        def capture(rows, tol):
            kept.append(distinct_rows(rows, tol))
            return kept[-1]

        monkeypatch.setattr(limits, "_distinct_rows", capture)
        est = lc.estimate_cone(sampler)
        want = tuple(lc.ChamberVector.from_coords(row) for row in kept[0])
        assert est.directions == want
        for d, w in zip(est.directions, want):
            assert d.coords.tobytes() == w.coords.tobytes() and hash(d) == hash(w)
            assert not d.coords.flags.writeable
        assert set(est.hull_rays) <= set(want)

    def test_one_eigvals_call_per_level_and_degree(self, sl2_pair, monkeypatch):
        calls = {"eigvals": 0}
        eigvals = np.linalg.eigvals

        def counting(a):
            calls["eigvals"] += 1
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        s = _sampler(sl2_pair, kind="group", max_length=6)
        est = lc.estimate_cone(s)
        assert len(est.word_lengths) == 1456
        # the per-word readout made one call per word and degree
        assert 0 < calls["eigvals"] <= s.max_length * (s.n - 1)

    def test_one_eig_call_per_level_degree_and_side(self, sl2_pair, monkeypatch):
        calls = {"eig": 0}
        eig = np.linalg.eig

        def counting(a):
            calls["eig"] += 1
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", counting)
        s = _sampler(sl2_pair, kind="group", max_length=6)
        levels = s.max_length * (s.n - 1)
        assert len(lc.estimate_facets(s)) > 0
        # the per-word readout made two calls per word and degree
        assert 0 < calls["eig"] <= 2 * levels
        calls["eig"] = 0
        lc.estimate_limit_set(s)
        assert 0 < calls["eig"] <= levels

    def test_classes_equal_the_tuple_reference(self, sampler):
        a = sampler.alphabet
        words = sampler.words()
        canons = []
        for _, _, spelled in limits._batches(sampler):
            lengths = np.count_nonzero(spelled >= 0, axis=1)
            core, _, canon, _ = limits._cyclic_classes(spelled, lengths, np.array(_cancels(a)))
            canons += [tuple(c.tolist()) for c in np.split(canon, np.cumsum(core)[:-1])]
        assert canons == [_reference_canon(_cancels(a), w) for w in words]
        rep = limits._class_readout(sampler)[3].tolist()
        assert rep == _reference_representatives(_cancels(a), words)
        if sampler.strategy == "exhaustive":
            # the least rotation of the core is enumerated, no later than the word
            assert all(r <= i and words[r] == c for i, (r, c) in enumerate(zip(rep, canons)))

    def test_class_members_read_their_representatives_lambda(self, sampler):
        a = sampler.alphabet
        words = sampler.words()
        _, _, lam, rep = limits._class_readout(sampler)
        assert (rep < np.arange(len(rep))).any()  # every sampler has classes of two words
        for i, r in enumerate(rep.tolist()):
            assert lam[i].tobytes() == lam[r].tobytes()
        for r in sorted(set(rep.tolist())):
            assert np.array_equal(lam[r], _reference_class_lambda(a, words[r]))

    @pytest.mark.parametrize("estimate", [lc.estimate_cone, lc.compare_mu_lambda])
    def test_eigvals_reads_the_representatives_alone(self, forged_sl4, estimate, monkeypatch):
        s = _sampler(forged_sl4.generators, max_length=4)
        words = s.words()
        reps = sorted(set(_reference_representatives(_cancels(s.alphabet), words)))
        seen = []
        eigvals = np.linalg.eigvals

        def capture(a):
            seen.append(np.array(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", capture)
        estimate(s)
        # one call per level and degree, in degree order
        assert len(seen) == s.max_length * (s.n - 1)
        assert sum(len(p) for p in seen[:: s.n - 1]) == len(reps) < len(words)
        for k in range(s.n - 1):
            want = [_reference_accumulate(s.alphabet, words[r])[k][0] for r in reps]
            assert np.array_equal(np.concatenate(seen[k :: s.n - 1]), np.stack(want))

    @pytest.mark.parametrize("system", ["sl2-group", "forged-sl3-group"])
    def test_conjugated_group_words_match_mpmath(self, system, sl2_pair, forge_cone):
        mp = pytest.importorskip("mpmath")
        if system == "sl2-group":
            s = _sampler(sl2_pair, kind="group", max_length=7)
        else:
            gens = lc.forge_group(3, forge_cone, 0.05, seed=2).generators
            s = _sampler(gens, kind="group", max_length=6)
        a = s.alphabet
        words = s.words()
        _, _, lam, _ = limits._class_readout(s)
        conjugated = [i for i, w in enumerate(words) if len(_reference_canon(_cancels(a), w)) < len(w)]
        assert len(conjugated) > 300
        with mp.workdps(200):
            letters = _mp_letters(mp, a)
            for i in conjugated:
                want = _mp_lambda(mp, letters, words[i])
                assert np.max(np.abs(lam[i] - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("system", ["sl2-group", "forged-sl3-group-0", "forged-sl3-group-1",
                                        "forged-sl3-group-2"])
    def test_conjugated_group_flags_match_mpmath(self, system, sl2_pair, forge_cone):
        mp = pytest.importorskip("mpmath")
        if system == "sl2-group":
            s = _sampler(sl2_pair, kind="group", max_length=7)
        else:
            gens = lc.forge_group(3, forge_cone, 0.05, seed=int(system[-1])).generators
            s = _sampler(gens, kind="group", max_length=6)
        a = s.alphabet
        words = s.words()
        forward = [np.concatenate(splits) for splits in zip(*(
            [x.vectors[kept] for x in splits]
            for _, _, (splits,), (kept,) in limits._flag_readout(s, side="forward")
        ))]
        kept = np.concatenate([k for _, _, _, (k,) in limits._flag_readout(s, side="forward")])
        rows = np.cumsum(kept) - 1
        conjugated = [
            i for i, w in enumerate(words)
            if kept[i] and len(_reference_canon(_cancels(a), w)) < len(w)
        ]
        assert len(conjugated) > 100
        with mp.workdps(200):
            letters = _mp_letters(mp, a)
            for i in conjugated[:: max(1, len(conjugated) // 150)]:
                vals, vecs = mp.eig(_mp_product(letters, words[i]))
                top = max(range(len(vals)), key=lambda j: abs(vals[j]))
                want = np.array([float(mp.re(vecs[r, top])) for r in range(s.n)])
                got = forward[0][rows[i]]
                want, got = want / np.linalg.norm(want), got / np.linalg.norm(got)
                assert min(np.abs(got - want).max(), np.abs(got + want).max()) <= 1e-12

    def test_sl2_points_lie_on_the_carried_core_point(self, sl2_pair):
        # every forward point is u x+(core) for its word u v u^-1: none lies
        # farther than MERGE_TOL from the exactly carried point
        s = _sampler(sl2_pair, kind="group", max_length=7)
        a = s.alphabet
        words = s.words()
        reps = _reference_representatives(_cancels(a), words)
        products = {}

        def product(word):
            if word not in products:
                products[word] = _reference_accumulate(a, word)[0][0]
            return products[word]

        own = {}
        for r in set(reps):
            data = _reference_eigdata([(product(words[r]), 0.0)], False)
            own[r] = None if data is None else data[0][1]
        far = 0
        readout = limits._flag_readout(s, side="forward")
        vectors = np.concatenate([sp[0].vectors for _, _, (sp,), _ in readout])
        for i, (w, r) in enumerate(zip(words, reps)):
            if own[r] is None:
                continue
            t = _reference_lead(_cancels(a), w, words[r])
            want = own[r] if t == 0 else product(w[:t]) @ own[r]
            x, y = (lc.ProjectivePoint.from_vector(v) for v in (vectors[i], want))
            far += lc.proj_distance(x, y) > limits.MERGE_TOL
        assert far == 0

    def test_semigroup_points_stay_near_each_words_own_eig(self, forged_sl4, sl2_pair):
        filt = limits.DEFAULT_PROXIMALITY_FILTER
        for s in (_sampler(forged_sl4.generators, max_length=5), _sampler(sl2_pair, max_length=7),
                  _sampler(sl2_pair, count=300, max_length=9, seed=2)):
            carried = list(limits._flag_readout(s, side="forward"))
            own = [[eigen_splittings(p)[0] for p, _ in product] for _, product, _ in limits._batches(s)]
            kept = np.concatenate([k for *_, (k,) in carried])
            with np.errstate(divide="ignore"):
                mine = np.concatenate([np.logical_and.reduce([
                    x.proximal & (x.second > 0.0) & (np.abs(np.log(x.top) - np.log(x.second)) > filt)
                    for x in splits
                ]) for splits in own])
            # a word's keep rule reads its representative's moduli; the two
            # disagree only where the runner-up modulus is below the rounding
            # of the product, 0.0 read one way and about 1e-17 the other
            for k in range(s.n - 1):
                ratios = [np.concatenate([sp[k].second / sp[k].top for sp in splits])[kept != mine]
                          for splits in ([sp for _, _, (sp,), _ in carried], own)]
                assert all((r < 1e-15).all() for r in ratios)
            rows = kept & mine
            assert rows.sum() > 0
            for k in range(s.n - 1):
                x = np.concatenate([sp[k].vectors for _, _, (sp,), _ in carried])[rows]
                y = np.concatenate([sp[k].vectors for sp in own])[rows]
                assert np.abs(limits._points(x) - limits._points(y)).max() <= 1e-14

    def test_facets_and_the_limit_set_read_one_readout_per_side(self, sampler):
        # both sides read together, as the facets read them, equal each side
        # read alone, as the limit set reads it: one forward vector and one
        # keep rule per word, bit for bit
        both = list(limits._flag_readout(sampler))
        for i, side in enumerate(("forward", "backward")):
            alone = list(limits._flag_readout(sampler, side=side))
            assert len(alone) == len(both)
            for (*_, (splits,), (kept,)), (*_, sides, kept_both) in zip(alone, both):
                assert np.array_equal(kept, kept_both[i])
                for x, y in zip(splits, sides[i]):
                    assert all(np.array_equal(f, g) for f, g in zip(x, y))


def _sym2(m):
    """The symmetric square of a 2 x 2 matrix, in an orthonormal basis."""
    p = np.zeros((4, 3))
    p[0, 0] = p[3, 2] = 1.0
    p[1, 1] = p[2, 1] = np.sqrt(0.5)
    return p.T @ np.kron(m, m) @ p


def _mu_top_singular_values(product, monkeypatch):
    """Per degree, the top singular values the mu readout of `product` reads:
    the square roots of the top eigenvalues `eigvalsh` returns it."""
    seen, eigvalsh = [], np.linalg.eigvalsh

    def capture(a):
        w = eigvalsh(a)
        seen.append(np.sqrt(w[:, -1]))
        return w

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvalsh", capture)
        lc.projections.product_projection(product, jordan=False)
    return seen


def _assert_top_singular_values_match_svd(sampler, monkeypatch):
    eps = np.finfo(float).eps
    for _, product, _ in limits._batches(sampler):
        tops = _mu_top_singular_values(product, monkeypatch)
        assert len(tops) == len(product)  # one batched call per degree
        for top, (p, _) in zip(tops, product):
            want = np.linalg.svd(p, compute_uv=False)[:, 0]
            assert np.all(np.abs(top - want) <= 8 * eps * want)


def _mp_mu(mp, letters, word):
    """mu of the word's product of `letters` (see `_mp_letters`), from
    mpmath's singular values."""
    m = _mp_product(letters, word)
    logs = sorted((mp.log(x) for x in mp.svd_r(m, compute_uv=False)), reverse=True)
    mean = sum(logs) / len(logs)
    return np.array([float(x - mean) for x in logs])


class TestMuKernel:
    """mu reads each compound's top singular value from its Gram matrix."""

    def test_forged_sl4_at_depth_7_reads_the_top_singular_values_to_8_eps(
        self, forged_sl4, monkeypatch
    ):
        _assert_top_singular_values_match_svd(
            _sampler(forged_sl4.generators, max_length=7), monkeypatch
        )

    @pytest.mark.parametrize("system", ["forged-sl4", "sl2-group"])
    def test_mu_matches_mpmath(self, system, forged_sl4, sl2_pair):
        mp = pytest.importorskip("mpmath")
        if system == "forged-sl4":
            s = _sampler(forged_sl4.generators, max_length=7)
        else:
            s = _sampler(sl2_pair, kind="group", max_length=7)
        words = s.words()
        _, mu, _, _ = limits._class_readout(s)
        rows = np.linspace(0, len(words) - 1, 12).astype(int).tolist()
        # the product's singular values span exp(mu_1 - mu_n) at most the
        # letters' spans multiplied; 50 digits past that keep 50 digits of the
        # smallest singular value
        span = max(
            sum(float(np.ptp(lc.cartan_projection(s.alphabet.elements[i]).coords)) for i in w)
            for w in (words[r] for r in rows)
        )
        with mp.workdps(50 + int(span / np.log(10.0)) + 1):
            letters = _mp_letters(mp, s.alphabet)
            for r in rows:
                want = _mp_mu(mp, letters, words[r])
                assert np.max(np.abs(mu[r] - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("jordan", [False, True], ids=["mu", "lambda"])
    def test_rows_read_alone_equal_the_batch(self, n, jordan):
        # the degrees of SL(2) .. SL(6) have d = 2, 3, 4, 5, 6, 10, 15 and 20
        rng = np.random.default_rng(n)
        count = 40
        product = []
        for k in range(1, n):
            d = comb(n, k)
            p = rng.standard_normal((count, d, d))
            p /= np.linalg.norm(p.reshape(count, -1), axis=1)[:, None, None]
            product.append((p, rng.standard_normal(count)))
        read = lc.projections.product_projection
        full = read(tuple(product), jordan)
        rows = rng.choice(count, 17, replace=False)
        assert np.array_equal(read(lc.projections.take_words(product, rows), jordan), full[rows])
        for i in range(count):
            alone = read(lc.projections.take_words(product, np.array([i])), jordan)
            assert np.array_equal(alone[0], full[i])

    def test_conjugated_drawn_representatives_read_lambda_from_their_cores(self, forge_cone):
        # a drawn group list whose class holds no cyclically reduced member
        # reads lambda from the class's core, not from eig of u v u^-1
        mp = pytest.importorskip("mpmath")
        gens = lc.forge_group(3, forge_cone, 0.05, seed=2).generators
        s = _sampler(gens, kind="group", count=2000, max_length=8, seed=5)
        words = s.words()
        ((_, _, _, _, lead),) = limits._classes(s)
        rows = np.flatnonzero(lead < 0).tolist()
        assert len(rows) == 9
        _, _, lam, _ = limits._class_readout(s)
        with mp.workdps(200):
            letters = _mp_letters(mp, s.alphabet)
            for i in rows:
                want = _mp_lambda(mp, letters, words[i])
                assert np.max(np.abs(lam[i] - want)) <= 1e-12 * np.max(np.abs(want))


class TestClassMap:
    """`_cyclic_classes` against the tuple reference on words of any shape."""

    @staticmethod
    def _corpus(rng, cancels, count, longest):
        size = len(cancels)
        words = [tuple(rng.integers(0, size, size=int(l)).tolist())
                 for l in rng.integers(1, longest + 1, size=count)]
        # powers and conjugates of a few short words give ties and stripped ends
        for w in words[:20]:
            block = w[: 1 + len(w) % 3]
            words.append(block * (1 + len(w) % 5))
            if cancels[0] >= 0:
                words.append((0,) + w + (cancels[0],))
        return words

    @pytest.mark.parametrize("cancels, longest", [
        ([-1], 90),  # one letter
        ([-1, -1], 200),  # spans past 32: the keys are ranked
        ([2, 3, 0, 1], 60),  # a group of two generators, unreduced words too
        ([3, 4, 5, 0, 1, 2], 25),
        ([-1] * 100_000, 12),  # ranked before the pairing to span 4
    ])
    def test_canons_and_keys_equal_the_reference(self, cancels, longest):
        rng = np.random.default_rng(len(cancels) + longest)
        words = self._corpus(rng, cancels, 300, longest)
        lengths = np.array([len(w) for w in words])
        classes = limits._cyclic_classes(limits._spell(words), lengths, np.array(cancels))
        core, key, canon, lead = classes
        want = [_reference_canon(cancels, w) for w in words]
        assert [tuple(c.tolist()) for c in np.split(canon, np.cumsum(core)[:-1])] == want
        # the lead prefix p conjugates the word w to its canon R: w p = p R
        for w, r, t in zip(words, want, lead.tolist()):
            assert 0 <= t < len(w)
            assert _free_reduction(cancels, w + w[:t]) == _free_reduction(cancels, w[:t] + r)
        assert core.tolist() == [len(c) for c in want]
        # equal (core, key) exactly when the least rotations are equal
        classes = {}
        for c, k, w in zip(core.tolist(), key.tolist(), want):
            assert classes.setdefault((c, k), w) == w
        assert len(classes) == len(set(want))

    def test_first_shortest_is_the_list_rule(self):
        cancels = [2, 3, 0, 1]
        rng = np.random.default_rng(5)
        words = self._corpus(rng, cancels, 400, 8)
        lengths = np.array([len(w) for w in words])
        core, key, _, _ = limits._cyclic_classes(limits._spell(words), lengths, np.array(cancels))
        rep = limits._first_shortest(core, key, lengths)
        assert rep.tolist() == _reference_representatives(cancels, words)


class TestGroupCones:
    def test_symmetric_square_pair_is_one_ray(self, sl2_pair):
        gens = [lc.GroupElement.from_matrix(_sym2(g.entries)) for g in sl2_pair]
        est = lc.estimate_cone(_sampler(gens, kind="group", max_length=6))
        # the chamber of SL(3) is 2-D, but sym^2 of SL(2) has a one-ray cone
        assert est.hull_dim == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forged_sl3_groups_recover_their_iota_stable_target(self, forge_cone, seed):
        gens = lc.forge_group(3, forge_cone, 0.05, seed=seed).generators
        est = lc.estimate_cone(_sampler(gens, kind="group", max_length=6))
        hull = np.stack([r.coords for r in est.hull_rays])
        targets = forge_cone.rays_matrix()
        angles = np.degrees(np.arccos(np.clip(hull @ targets.T, -1.0, 1.0)))
        assert angles.min(axis=1).max() <= 2.0 and angles.min(axis=0).max() <= 2.0
        assert lc.cones.cone_distance(-hull[:, ::-1], hull).max() <= 1e-12

    def test_a_list_keeps_every_words_directions(self, forge_cone):
        # reversed, the list puts conjugates before the shortest word of
        # their class, which is their representative
        gens = lc.forge_group(3, forge_cone, 0.05, seed=0).generators
        s = _sampler(gens, kind="group", max_length=4)
        a = s.alphabet
        words = s.words()[::-1]
        products = [_reference_accumulate(a, w) for w in words]
        reps = _reference_representatives(_cancels(a), words)
        assert any(r > i for i, r in enumerate(reps))
        lams = [_reference_projection(products[r], True) for r in reps]
        dirs = [
            l / np.linalg.norm(l)
            for l, w in zip(lams, words)
            if np.linalg.norm(l) > 1e-9 * max(1.0, float(len(w)))
        ]
        est = lc.estimate_cone(s, words=words)
        assert np.array_equal(
            np.stack([d.coords for d in est.directions]), limits._distinct_rows(dirs, 1e-12)
        )


class TestConvexityReadsTheBatch:
    @pytest.mark.parametrize("kind", ["semigroup", "group"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sl2_errors_equal_the_per_word_loop(self, sl2_pair, kind, seed):
        s = _sampler(sl2_pair, kind=kind, max_length=3)
        est = lc.estimate_cone(s)
        report = lc.check_convexity(est, s, trials=10, seed=seed)
        want = _reference_convexity(s, est, 10, seed)
        assert np.array_equal(np.array(report.angular_errors), np.array(want))

    def test_forged_errors_equal_the_per_word_loop(self, forged_sampler, forged_cone_estimate):
        report = lc.check_convexity(forged_cone_estimate, forged_sampler, trials=10, seed=0)
        want = _reference_convexity(forged_sampler, forged_cone_estimate, 10, 0)
        assert np.array_equal(np.array(report.angular_errors), np.array(want))

    def test_no_per_word_lambda(self, sl2_pair, monkeypatch):
        s = _sampler(sl2_pair, kind="group", max_length=3)
        est = lc.estimate_cone(s)
        calls = []
        readout = limits.product_projection

        def counting(product, jordan):
            calls.append(len(product[0][0]))
            return readout(product, jordan)

        monkeypatch.setattr(limits, "product_projection", counting)
        lc.check_convexity(est, s, trials=5, seed=0)
        # lambda is read once, six rows per drawn pair: the two words, then
        # w1^m w2^m for m = 1, 2, 4, 8
        assert calls == [6 * 5]


def _rotated_letters(t):
    """t SL(2) generators: diag(10, 0.1) conjugated by t distinct rotations."""
    return [
        lc.GroupElement.from_matrix(rotation2(0.3 * j) @ np.diag([10.0, 0.1]) @ rotation2(-0.3 * j))
        for j in range(t)
    ]


class TestDrawnWordsAndRaggedBatches:
    """The drawn words keep the per-letter stream, and a ragged batch keeps
    the bits of each word accumulated alone."""

    @pytest.mark.parametrize("high", range(1, 31))
    def test_a_sized_call_gives_the_scalar_calls(self, high):
        # the numpy property the draw rests on; a range of one value
        # consumes nothing, either way
        for seed in range(5):
            for k in (1, 2, 7, 40):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                scalars = [int(a.integers(0, high)) for _ in range(k)]
                assert b.integers(0, high, size=k).tolist() == scalars
                assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("max_length", [1, 2, 24, 40])
    @pytest.mark.parametrize("kind, t", [("semigroup", t) for t in range(2, 7)]
                             + [("group", t) for t in range(1, 4)])
    def test_words_equal_the_per_letter_draw(self, kind, t, max_length):
        gens = _rotated_letters(t)
        for seed in range(21):
            s = _sampler(gens, kind=kind, max_length=max_length, count=25, seed=seed)
            assert s.words() == _reference_draw(s)

    @pytest.fixture(params=["sl2-group", "forged-sl3"])
    def alphabet(self, request, sl2_pair):
        if request.param == "sl2-group":
            return limits.Alphabet.of(sl2_pair, "group")
        return limits.Alphabet.of(request.getfixturevalue("forged_semigroup").generators)

    @staticmethod
    def _assert_rows_alone(alphabet, words):
        product = alphabet.accumulate(words)
        assert all(len(p) == len(ls) == len(words) for p, ls in product)
        for row, word in enumerate(words):
            ref = _reference_accumulate(alphabet, word)
            for (p, ls), (rp, rls) in zip(product, ref):
                assert np.array_equal(p[row], rp) and ls[row] == rls

    def test_ragged_batches_keep_each_words_bits(self, alphabet):
        rng = np.random.default_rng(11)
        size = len(alphabet.elements)

        def word(length):
            return tuple(rng.integers(0, size, size=length).tolist())

        lengths = np.arange(1, 41)
        rng.shuffle(lengths)
        shuffled = [word(l) for l in lengths.tolist()]
        for words in (
            [word(17)],  # one word
            [word(9) for _ in range(12)],  # all of one length
            shuffled,  # lengths 1-40, shuffled
            [shuffled[3], shuffled[0], shuffled[3], shuffled[0], shuffled[3]],  # repeats
        ):
            self._assert_rows_alone(alphabet, words)

    def test_an_empty_list_is_an_empty_batch(self, alphabet):
        product = alphabet.accumulate([])
        want = lc.projections.empty_product(alphabet.n, 0)
        assert len(product) == len(want) == alphabet.n - 1
        for (p, ls), (wp, wls) in zip(product, want):
            assert p.shape == wp.shape and ls.shape == wls.shape == (0,)
            assert p.dtype == wp.dtype and ls.dtype == wls.dtype

    def test_a_negative_letter_is_refused(self, alphabet):
        # the spelled array marks a word's end with -1
        with pytest.raises(InvalidInput, match="indices from 0"):
            alphabet.accumulate([(0, 1), (1, -1)])


ESTIMATORS = [lc.estimate_cone, lc.estimate_limit_set, lc.compare_mu_lambda, lc.estimate_facets]


class TestSuppliedWords:
    @pytest.mark.parametrize(
        "words, error",
        [
            ([()], InvalidInput),  # the empty word
            ([(0,), (0, 1, 0)], InvalidInput),  # longer than max_length
            ([(2,)], InvalidInput),  # outside the alphabet
            ([(-1, 0)], InvalidInput),
            ([(0.0,)], InvalidInput),  # not a letter index
            ([], DegenerateSample),  # no words, as when none passes a filter
            ([(0,)] * (limits.WORD_BUDGET + 1), BudgetExceeded),
        ],
        ids=["empty-word", "too-long", "outside", "negative", "not-an-index", "none", "budget"],
    )
    @pytest.mark.parametrize("estimate", ESTIMATORS, ids=lambda f: f.__name__)
    def test_words_are_checked_before_any_product(self, sl2_pair, estimate, words, error):
        with pytest.raises(error):
            estimate(_sampler(sl2_pair, max_length=2), words=words)

    def test_any_sequence_of_letters_is_a_word(self, sl2_pair):
        s = _sampler(sl2_pair, kind="group", max_length=3)
        est = lc.estimate_cone(s, words=[[0, 1], np.array([3, 3, 0]), (np.int64(2),)])
        assert est.word_lengths == (2, 3, 1)


class TestBudgetGuard:
    @pytest.mark.parametrize(
        "kw",
        [dict(max_length=25), dict(count=limits.WORD_BUDGET + 1)],
        ids=["exhaustive", "random"],
    )
    @pytest.mark.parametrize(
        "estimate",
        ESTIMATORS,
        ids=lambda f: f.__name__,
    )
    def test_word_stages_refuse_past_the_budget(self, sl2_pair, kw, estimate):
        s = _sampler(sl2_pair, **kw)
        assert s.expected_word_count() > limits.WORD_BUDGET
        with pytest.raises(BudgetExceeded):
            estimate(s)
