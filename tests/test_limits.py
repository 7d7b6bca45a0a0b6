"""Sampled limit cones, convexity evidence, limit sets, and facets."""

import numpy as np
import pytest

import limitcone as lc
from limitcone import limits
from limitcone.errors import BudgetExceeded, DegenerateSample, InvalidInput, NotReduced

from .conftest import rotation2


def _sampler(gens, **kw):
    return lc.WordSampler(generators=tuple(gens), **kw)


class TestWordSampler:
    def test_validation(self, sl2_pair):
        with pytest.raises(InvalidInput):
            _sampler(sl2_pair, kind="monoid")
        with pytest.raises(InvalidInput):
            _sampler(sl2_pair, strategy="greedy")
        with pytest.raises(InvalidInput):
            _sampler(sl2_pair, max_length=0)
        with pytest.raises(InvalidInput):
            _sampler([])
        with pytest.raises(InvalidInput):
            _sampler(sl2_pair, strategy="random", count=0)

    def test_expected_counts(self, sl2_pair):
        assert _sampler(sl2_pair, max_length=3).expected_word_count() == 14
        assert _sampler(sl2_pair, kind="group", max_length=2).expected_word_count() == 16
        assert (
            _sampler(sl2_pair, strategy="random", count=37, max_length=5).expected_word_count()
            == 37
        )

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
        for e, c in zip(a.elements, a.compounds):
            assert len(c) == 1 and np.array_equal(c[0], lc.compound_matrix(e.entries, 1))
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
        assert list(limits.reduced_words(a, 6)) == walked
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
        words = [w.word for w in lc.enumerate_words(s)]
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


class TestEnumerateWords:
    def test_exhaustive_order_and_count(self, sl2_pair):
        words = lc.enumerate_words(_sampler(sl2_pair, max_length=3))
        assert len(words) == 14
        assert [w.word for w in words[:6]] == [
            (0,),
            (1,),
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]
        assert all(w.length <= 3 for w in words)

    def test_group_words_are_reduced(self, sl2_pair):
        s = _sampler(sl2_pair, kind="group", max_length=3)
        words = lc.enumerate_words(s)
        assert len(words) == 4 + 12 + 36
        for w in words:
            for a, b in zip(w.word, w.word[1:]):
                assert b != s.alphabet.inverse_index(a)

    def test_random_reproducible(self, sl2_pair):
        kw = dict(strategy="random", count=100, max_length=5, seed=9)
        a = lc.enumerate_words(_sampler(sl2_pair, **kw))
        b = lc.enumerate_words(_sampler(sl2_pair, **kw))
        assert [w.word for w in a] == [w.word for w in b]
        c = lc.enumerate_words(_sampler(sl2_pair, **{**kw, "seed": 10}))
        assert [w.word for w in a] != [w.word for w in c]

    def test_budget_guard(self, sl2_pair):
        with pytest.raises(BudgetExceeded):
            lc.enumerate_words(_sampler(sl2_pair, max_length=25))

    def test_word_product_matches_direct(self, sl2_pair):
        g1, g2 = sl2_pair
        words = lc.enumerate_words(_sampler(sl2_pair, max_length=3))
        lookup = {w.word: w for w in words}
        w = lookup[(0, 1, 1)]
        direct = g1 @ g2 @ g2
        assert np.allclose(w.matrix(), direct.entries, atol=1e-9)
        assert np.allclose(
            w.mu().coords, lc.cartan_projection(direct).coords, atol=1e-9
        )
        assert np.allclose(
            w.lam().coords, lc.jordan_projection(direct).coords, atol=1e-9
        )

    @pytest.mark.parametrize("kind", ["semigroup", "group"])
    def test_word_projections_equal_letter_products(self, sl2_pair, kind):
        # one accumulator: a word's mu/lambda are bit-identical to the
        # product_cartan/product_jordan of its letters
        s = _sampler(sl2_pair, kind=kind, max_length=4)
        mats = [e.entries for e in s.alphabet.elements]
        for w in lc.enumerate_words(s):
            letters = [mats[i] for i in w.word]
            assert np.array_equal(lc.product_jordan(letters, s.n).coords, w.lam().coords)
            assert np.array_equal(lc.product_cartan(letters, s.n).coords, w.mu().coords)

    def test_random_word_projections_equal_letter_products(self, forged_semigroup):
        s = _sampler(
            forged_semigroup.generators, strategy="random", count=20, max_length=8, seed=3
        )
        mats = [e.entries for e in s.alphabet.elements]
        for w in lc.enumerate_words(s):
            letters = [mats[i] for i in w.word]
            assert np.array_equal(lc.product_jordan(letters, s.n).coords, w.lam().coords)
            assert np.array_equal(lc.product_cartan(letters, s.n).coords, w.mu().coords)


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

    def test_degenerate_sample(self):
        g = lc.GroupElement.from_matrix(rotation2(0.4))
        with pytest.raises(DegenerateSample):
            lc.estimate_facets(_sampler([g], max_length=2))


def _reference_distinct_rows(rows, tol):
    # the quadratic greedy loop the vectorised kernel replaced
    out = []
    for r in rows:
        if not any(np.linalg.norm(r - o) <= tol for o in out):
            out.append(r)
    return out


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


def _offset(v, w, distance):
    """v moved by `distance` along the unit part of w orthogonal to v."""
    w = w - (w @ v) * v
    return v + distance * w / np.linalg.norm(w)


class TestDedupKernels:
    DIRECTION_TOL = 1e-12  # the tolerance estimate_cone uses

    @pytest.mark.parametrize("kind", ["semigroup", "group"])
    def test_sl2_clouds_and_directions_match_the_loops(self, sl2_pair, kind):
        s = _sampler(sl2_pair, kind=kind, max_length=5)
        words = lc.enumerate_words(s)
        for side in (False, True):
            vecs = [limits._word_eigdata(w, backward=side)[0][1] for w in words]
            _assert_same_dedup(vecs, limits.MERGE_TOL)
        dirs = [w.lam().direction() for w in words]
        _assert_same_dedup(dirs, self.DIRECTION_TOL)

    def test_forged_directions_match_the_loop(self, forged_sampler):
        dirs = [w.lam().direction() for w in lc.enumerate_words(forged_sampler)]
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
