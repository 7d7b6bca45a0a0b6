"""Convex-cone helpers in the chamber hyperplane."""

import itertools
import warnings

import numpy as np
import pytest
import scipy.optimize

import limitcone as lc
from limitcone import cones
from limitcone.errors import DimensionMismatch, InvalidInput


class TestChamberBasis:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_orthonormal_zero_sum(self, n):
        b = cones.chamber_basis(n)
        assert b.shape == (n, n - 1)
        assert np.allclose(b.T @ b, np.eye(n - 1), atol=1e-12)
        assert np.allclose(b.sum(axis=0), 0.0, atol=1e-12)

    def test_spans_zero_sum_subspace(self):
        b = cones.chamber_basis(4)
        v = np.array([3.0, -1.0, 0.5, -2.5])
        assert np.allclose(b @ (b.T @ v), v, atol=1e-12)


class TestConeDistance:
    def test_zero_inside(self):
        rays = [np.array([1.0, 0.0, -1.0]), np.array([1.0, 1.0, -2.0])]
        v = rays[0] + 0.3 * rays[1]
        assert cones.cone_distance(v, rays) <= 1e-10

    def test_positive_outside(self):
        rays = [np.array([1.0, 0.0, -1.0])]
        v = np.array([0.0, 1.0, -1.0])
        assert cones.cone_distance(v, rays) > 0.1

    def test_exact_value_orthogonal_complement(self):
        rays = [np.array([1.0, 0.0])]
        v = np.array([0.0, 2.0])
        assert cones.cone_distance(v, rays) == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize(
        "v, expected",
        [([1.0, 1.0], 0.0), ([1.0, 0.0], 0.0), ([0.0, 0.0], 0.0), ([-1.0, -1.0], np.sqrt(2.0)), ([-3.0, 4.0], 3.0)],
        ids=["interior", "boundary", "apex", "opposite", "beside-a-face"],
    )
    def test_known_distances_to_the_quadrant(self, v, expected):
        # interior and boundary points read 0; an outside point reads its
        # distance to the nearest face, or to the apex
        assert cones.cone_distance(np.array(v), np.eye(2)) == pytest.approx(expected, abs=1e-12)


def _face_corpus(rng, d, m, kind):
    """m unit rays in R^d (random, nonnegative, or 1e-8 to 1e-3 apart) and a
    stack of points inside their cone, on its faces and outside it."""
    if kind == "random":
        rays = rng.standard_normal((m, d))
    elif kind == "nonnegative":
        rays = np.abs(rng.standard_normal((m, d)))
    else:
        apart = 10.0 ** rng.uniform(-8.0, -3.0, size=(m, 1))
        rays = rng.standard_normal(d) + apart * rng.standard_normal((m, d))
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    inside = rng.random((8, m)) @ rays
    faces = (rng.random((8, m)) * (rng.random((8, m)) < 0.5)) @ rays
    points = [
        inside,
        faces,
        faces + 1e-9 * rng.standard_normal((8, d)),
        inside + 0.1 * rng.standard_normal((8, d)),
        rng.standard_normal((8, d)),
    ]
    return rays, np.vstack(points)


def _nnls_distances(v, rays):
    return np.array([scipy.optimize.nnls(rays.T, x)[1] for x in v])


def _decisions(dist, v):
    # in_cone's rule
    return dist <= cones.SLACK * np.maximum(1.0, np.linalg.norm(v, axis=1))


class TestFaceDistances:
    """At most as many rays as coordinates: the closed form over the faces
    against scipy's NNLS."""

    @pytest.mark.parametrize("kind", ["random", "nonnegative", "near"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_nnls(self, d, kind):
        rng = np.random.default_rng(100 * d + len(kind))
        for m in range(1, d + 1):
            for _ in range(6):
                rays, v = _face_corpus(rng, d, m, kind)
                got, want = cones.cone_distance(v, rays), _nnls_distances(v, rays)
                assert np.abs(got - want).max() <= 1e-11
                assert np.array_equal(_decisions(got, v), _decisions(want, v))

    @pytest.mark.parametrize("kind", ["random", "nonnegative", "near"])
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_a_stack_gives_the_bits_of_its_rows(self, d, kind):
        rng = np.random.default_rng(d + len(kind))
        for m in range(1, d + 1):
            rays, v = _face_corpus(rng, d, m, kind)
            one_by_one = np.array([cones.cone_distance(x, rays) for x in v])
            assert np.array_equal(cones.cone_distance(v, rays), one_by_one)
            assert isinstance(cones.cone_distance(v[0], rays), float)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_dependent_rays(self, d):
        # d zero-sum rays span the d - 1 dimensional hyperplane, as a forge
        # target of n rays does
        rng = np.random.default_rng(d)
        for _ in range(20):
            rays = rng.standard_normal((d, d))
            rays -= rays.mean(axis=1, keepdims=True)
            rays /= np.linalg.norm(rays, axis=1)[:, None]
            _, v = _face_corpus(rng, d, d, "random")
            v -= v.mean(axis=1, keepdims=True)
            got, want = cones.cone_distance(v, rays), _nnls_distances(v, rays)
            assert np.abs(got - want).max() <= 1e-11
            assert np.array_equal(_decisions(got, v), _decisions(want, v))

    def test_known_distances_with_a_dependent_ray(self):
        rays = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        v = np.array([[1.0, 1.0, 1.0], [-1.0, 2.0, 0.0], [2.0, 3.0, 0.0], [-1.0, -1.0, 0.0]])
        assert np.array_equal(cones.cone_distance(v, rays), [1.0, 1.0, 0.0, np.sqrt(2.0)])

    def test_zero_rays_and_no_rows(self):
        assert cones.cone_distance([3.0, 4.0], [[0.0, 0.0]]) == 5.0
        assert cones.cone_distance(np.zeros((0, 3)), np.eye(3)).shape == (0,)

    @pytest.mark.parametrize("rays", [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
    def test_vectors_and_rays_share_one_dimension(self, rays):
        with pytest.raises(DimensionMismatch):
            cones.cone_distance([1.0, 2.0, 3.0], rays)

    def test_more_rays_than_coordinates_take_nnls(self):
        rng = np.random.default_rng(7)
        rays = rng.standard_normal((5, 3))
        v = rng.standard_normal((6, 3))
        assert np.array_equal(cones.cone_distance(v, rays), _nnls_distances(v, rays))


def _subset_distance(v, rays):
    """The distance from v to cone(rays) by Caratheodory: the smallest of |v|
    and the residuals of the least-squares fits with all coefficients >= 0
    over the independent subsets of the rays."""
    best = float(v @ v)
    for k in range(1, min(rays.shape) + 1):
        for subset in itertools.combinations(range(len(rays)), k):
            a = rays[list(subset)].T
            s = np.linalg.svd(a, compute_uv=False)
            if s[-1] <= 1e-10 * s[0]:
                continue
            x = np.linalg.lstsq(a, v, rcond=None)[0]
            if x.min() >= 0.0:
                r = v - a @ x
                best = min(best, float(r @ r))
    return np.sqrt(best)


@pytest.fixture(scope="module")
def zero_sum_corpus():
    """9 random zero-sum unit rays in R^5, and a point whose offset off their
    hyperplane, 0.01 to 0.2, is a lower bound of its distance to their cone."""
    rng = np.random.default_rng(3)
    normal = np.ones(5) / np.sqrt(5.0)
    out = []
    for _ in range(2000):
        rays = rng.normal(size=(9, 5))
        rays -= rays.mean(axis=1, keepdims=True)
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        off = rng.uniform(0.01, 0.2)
        v = rng.normal(size=5)
        out.append((rays, v - v.mean() + off * normal, off))
    return out


class TestRankDeficientNNLS:
    """More rays than coordinates, spanning less than the space: the fit runs
    in a basis of the rays' span."""

    def test_no_point_reads_nearer_than_its_offset(self, zero_sum_corpus):
        fooled = 0
        for rays, v, off in zero_sum_corpus:
            assert cones.cone_distance(v, rays) >= off - 1e-12
            fooled += _nnls_distances(v[None], rays)[0] < off - 1e-9
        # the plain fit reads some of these points nearer than their offset
        assert fooled > 0

    def test_distances_equal_the_subset_oracle(self, zero_sum_corpus):
        fooled = [
            c for c, (rays, v, off) in enumerate(zero_sum_corpus)
            if _nnls_distances(v[None], rays)[0] < off - 1e-9
        ]
        for c in sorted(set(range(100)) | set(fooled)):
            rays, v, _ = zero_sum_corpus[c]
            assert abs(cones.cone_distance(v, rays) - _subset_distance(v, rays)) <= 1e-11

    def test_a_stack_gives_the_bits_of_its_rows(self, zero_sum_corpus):
        rays = zero_sum_corpus[0][0]
        v = np.stack([v for _, v, _ in zero_sum_corpus[:20]])
        one_by_one = np.array([cones.cone_distance(x, rays) for x in v])
        assert np.array_equal(cones.cone_distance(v, rays), one_by_one)

    def test_full_rank_rays_keep_the_plain_fit(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4, 5):
            for m in (d + 1, 2 * d + 3):
                rays, v = rng.standard_normal((m, d)), rng.standard_normal((8, d))
                assert np.array_equal(cones.cone_distance(v, rays), _nnls_distances(v, rays))

    def test_zero_and_collinear_rays(self):
        v = np.array([[3.0, 4.0, 12.0], [-1.0, 0.0, 0.0]])
        assert np.array_equal(cones.cone_distance(v, np.zeros((4, 3))), [13.0, 1.0])
        rays = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.5, 0.0, 0.0], [3.0, 0.0, 0.0]])
        assert np.allclose(cones.cone_distance(v, rays), [np.sqrt(160.0), 1.0], rtol=1e-15)


class TestInCone:
    def test_membership_and_slack(self):
        rays = [np.array([1.0, 0.0, -1.0]), np.array([1.0, 1.0, -2.0])]
        assert cones.in_cone(2.0 * rays[0] + rays[1], rays)
        outside = np.array([-1.0, 0.0, 1.0])
        assert not cones.in_cone(outside, rays)
        assert cones.in_cone(outside, rays, slack=10.0)

    def test_slack_is_relative_to_norm(self):
        rays = [np.array([1.0, 0.0])]
        v = np.array([1.0, 1e-6])
        assert cones.in_cone(v, rays, slack=1e-5)
        assert cones.in_cone(1e8 * v, rays, slack=1e-5)


class TestExtremeRayIndices:
    def test_planar_angular_endpoints(self):
        u = np.array([[1.0, 0.0], [0.8, 0.6], [0.6, 0.8]])
        assert cones.extreme_ray_indices(u) == [0, 2]

    def test_single_ray(self):
        assert cones.extreme_ray_indices([[1.0, -1.0]]) == [0]

    def test_planar_rejects_overwide(self):
        u = np.array([[1.0, 0.0], [-1.0, 0.1], [0.0, -1.0]])
        with pytest.raises(InvalidInput):
            cones.extreme_ray_indices(u)

    def test_interior_ray_dropped_general(self):
        r1 = np.array([1.0, 0.0, -1.0])
        r2 = np.array([0.0, 1.0, -1.0])
        mid = r1 + r2
        assert cones.extreme_ray_indices([r1, mid, r2]) == [0, 2]

    def test_three_dimensional(self):
        rays = [
            np.array([1.0, 0.0, 0.0, -1.0]),
            np.array([0.0, 1.0, 0.0, -1.0]),
            np.array([0.0, 0.0, 1.0, -1.0]),
        ]
        interior = sum(rays)
        assert cones.extreme_ray_indices(rays + [interior]) == [0, 1, 2]

    @staticmethod
    def _units(*rows):
        return [np.asarray(r, dtype=float) / np.linalg.norm(r) for r in rows]

    def test_near_duplicate_keeps_its_ray(self):
        # a and a + 5e-12 w lie within the slack: neither counts as a
        # combination of the other
        a, b, c, w = self._units([1.0, 0.2, 0.1], [0.1, 1.0, 0.2], [0.2, 0.1, 1.0], [3, -5, 8])
        got = cones.extreme_ray_indices([a, b, c, a + 5e-12 * w])
        assert got == [0, 1, 2, 3]

    def test_identical_rows_are_one_extreme_ray(self):
        a, b = self._units([1.0, 0.2, 0.1], [0.1, 1.0, 0.2])
        assert cones.extreme_ray_indices([a, a]) == [0, 1]
        (mid,) = self._units(a + b)
        assert cones.extreme_ray_indices([a, b, mid, a, b]) == [0, 1, 3, 4]

    def test_planar_cone_straddling_pi(self):
        # a 20 degree cone across the negative x-axis: 170, -170 and 180 degrees
        a = np.deg2rad([170.0, -170.0, 180.0])
        u = np.column_stack([np.cos(a), np.sin(a)])
        assert cones.extreme_ray_indices(u) == [0, 1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "rows", [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]
    )
    def test_rejects_non_finite(self, rows, bad):
        u = np.array(rows)
        u[-1, 0] = bad
        with pytest.raises(InvalidInput, match="finite"):
            cones.extreme_ray_indices(u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_row_is_refused_without_a_warning(self, bad):
        # the rows are checked before any norm is taken
        rays = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        rays[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="finite"):
                cones.extreme_ray_indices(rays)

    def test_one_dimensional_chart(self):
        # on a line, opposite rays are both extreme and a rescaled ray is its ray
        assert cones.extreme_ray_indices([[1.0], [-1.0]]) == [0, 1]
        assert cones.extreme_ray_indices([[1.0], [-1.0], [2.0]]) == [0, 1, 2]


class TestUnitRows:
    """The reader of rays takes its rows as unit vectors, and refuses a
    non-finite entry or a zero row."""

    def test_a_rescaled_row_is_its_ray(self):
        rows = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert cones.extreme_ray_indices(rows) == [0, 1, 2, 3]
        assert cones.extreme_ray_indices([[1.0], [2.0]]) == [0, 1]
        assert cones.extreme_ray_indices([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]) == [0, 2]

    @pytest.mark.parametrize("seed", range(10))
    def test_positive_rescaling_keeps_the_index_list(self, seed):
        rng = np.random.default_rng(seed)
        u = _planted_corpus(rng, 3 + seed % 3)
        scaled = u * rng.uniform(0.1, 10.0, size=len(u))[:, None]
        assert cones.extreme_ray_indices(scaled) == cones.extreme_ray_indices(u)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_a_row_whose_norm_overflows_or_underflows_is_its_ray(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cones.extreme_ray_indices([[scale, 0, 0], [0, 1, 0], [0, 0, 1]]) == [0, 1, 2]
            rows = cones._unit_rows([[1e300, -1e300, 0.0], [1e-160, -1e-160, 0.0], [3.0, 4.0, 0.0]])
        assert np.array_equal(rows[:2], np.array([[1.0, -1.0, 0.0]] * 2) / np.sqrt(2.0))
        assert np.array_equal(rows[2], np.array([3.0, 4.0, 0.0]) / 5.0)

    @pytest.mark.parametrize(
        "rows", [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]
    )
    def test_a_zero_row_is_refused(self, rows):
        with pytest.raises(InvalidInput, match="zero ray"):
            cones.extreme_ray_indices(rows)


def _reference_extreme_ray_indices(directions):
    # the loop over every row that the Qhull candidates replaced (3-D and up)
    u = np.atleast_2d(np.asarray(directions, dtype=float))
    out = []
    for i in range(len(u)):
        far = np.linalg.norm(u - u[i], axis=1) > 1e-9
        if not far.any() or cones.cone_distance(u[i], u[far]) > 1e-9:
            out.append(i)
    return out


def _planted_corpus(rng, d):
    """Unit rows: positive generators, rows planted within 1e-9 of a
    generator, rows on edges and faces, interior rows; in a random order."""
    k = int(rng.integers(d, 3 * d + 3))
    gens = np.abs(rng.standard_normal((k, d))) + 0.05
    rows = list(gens)
    for _ in range(int(rng.integers(1, 4))):
        g, w = gens[rng.integers(k)], rng.standard_normal(d)
        offset = rng.choice([5e-12, 1e-10, 5e-10])
        rows.append(g / np.linalg.norm(g) + offset * w / np.linalg.norm(w))
    for _ in range(int(rng.integers(2, 8))):
        idx = rng.choice(k, size=int(rng.integers(2, min(d, k) + 1)), replace=False)
        rows.append(rng.random(len(idx)) @ gens[idx])
    for _ in range(int(rng.integers(2, 10))):
        rows.append(rng.random(k) @ gens)
    u = np.array(rows)
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u[rng.permutation(len(u))]


@pytest.fixture(scope="module", params=[0, 5, 21, 47])
def forged_sl4_hull(request):
    """The chart directions `estimate_cone` hands to `extreme_ray_indices`
    on the benchmark's forged SL(4) system (epsilon 0.03, depth 7) at a seed,
    its index list and the NNLS calls made meanwhile."""
    rays = np.array([(3, 1, -1, -3), (5, 1, -2, -4), (4, 2, -2, -4)], dtype=float)
    cone = lc.TargetCone.from_rays(list(rays / np.linalg.norm(rays, axis=1)[:, None]))
    system = lc.forge_semigroup(4, cone, 0.03, seed=request.param)
    sampler = lc.WordSampler(generators=tuple(system.generators), max_length=7)
    seen, calls = [], []
    hull, distance = cones.extreme_ray_indices, cones.cone_distance

    def capture(u):
        seen.append((u, hull(u)))
        return seen[-1][1]

    def count(v, r):
        calls.append(1)
        return distance(v, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "extreme_ray_indices", capture)
        mp.setattr(cones, "cone_distance", count)
        lc.estimate_cone(sampler)
    ((u, got),) = seen
    return request.param, u, got, len(calls)


class TestHullCandidates:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_corpora_match_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        u = _planted_corpus(rng, 3 + seed % 3)
        assert len(cones._hull_candidates(u)) < len(u)
        assert cones.extreme_ray_indices(u) == _reference_extreme_ray_indices(u)

    def test_forged_sl4_matches_the_loop(self, forged_sl4_hull):
        _, u, got, _ = forged_sl4_hull
        assert u.shape[1] == 3
        assert got == _reference_extreme_ray_indices(u)

    def test_forged_sl4_nnls_calls_are_the_candidates(self, forged_sl4_hull):
        # every row was an NNLS call before the Qhull prefilter: 338 at seed 21
        seed, u, _, calls = forged_sl4_hull
        assert calls == len(cones._hull_candidates(u)) < len(u)
        if seed == 21:
            assert calls <= 40

    def test_rank_deficient_takes_every_row(self):
        # rays of a 2-D cone in a 3-D chart: Qhull refuses the flat slice
        r1, r2 = np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])
        u = np.array([r1, r1 + r2, r2, 2 * r1 + r2]) / np.sqrt([2.0, 6.0, 2.0, 14.0])[:, None]
        assert list(cones._hull_candidates(u)) == [0, 1, 2, 3]
        assert cones.extreme_ray_indices(u) == _reference_extreme_ray_indices(u) == [0, 2]

    def test_one_dimensional_chart_takes_every_row(self):
        u = np.array([[1.0], [1.0], [1.0 + 1e-10]])
        assert list(cones._hull_candidates(u)) == [0, 1, 2]
        assert cones.extreme_ray_indices(u) == _reference_extreme_ray_indices(u) == [0, 1, 2]

    def test_non_positive_height_takes_every_row(self):
        # not a chamber set: the sum of the rows has a negative inner product
        # with the last one
        u = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-0.9, -0.9, 0.1]])
        u /= np.linalg.norm(u, axis=1)[:, None]
        assert np.any(u @ u.sum(axis=0) <= 0.0)
        assert list(cones._hull_candidates(u)) == [0, 1, 2, 3]
        # e3 is 0.9 e1 + 0.9 e2 plus the last row, up to scale
        assert cones.extreme_ray_indices(u) == _reference_extreme_ray_indices(u) == [0, 1, 3]
