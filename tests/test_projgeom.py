"""Linear-algebra substrate: group elements, exterior powers, projective metrics."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limitcone as lc
from limitcone.errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidInput,
    NumericalFailure,
)
from limitcone.projgeom import chordal_distances


class TestGroupElement:
    def test_accepts_unimodular(self):
        g = lc.GroupElement.from_matrix([[2.0, 1.0], [0.0, 0.5]])
        assert g.n == 2
        assert np.allclose(g.entries, [[2.0, 1.0], [0.0, 0.5]])

    @pytest.mark.parametrize("make", ["from_matrix", "from_unimodular"])
    def test_leaves_the_callers_array_writeable(self, make):
        m = np.diag([2.0, 0.5])
        g = getattr(lc.GroupElement, make)(m)
        m[0, 0] = 3.0
        assert g.entries[0, 0] == 2.0 and not g.entries.flags.writeable

    def test_renormalizes_small_determinant_drift(self):
        m = np.diag([2.0, 0.5]) * (1.0 + 1e-7) ** 0.5
        g = lc.GroupElement.from_matrix(m)
        assert abs(np.linalg.det(g.entries) - 1.0) < 1e-12

    def test_rejects_far_from_unimodular(self):
        with pytest.raises(InvalidInput):
            lc.GroupElement.from_matrix(np.diag([2.0, 1.0]))

    def test_rejects_negative_determinant(self):
        with pytest.raises(InvalidInput):
            lc.GroupElement.from_matrix(np.diag([1.0, -1.0]))

    def test_rejects_nonsquare_and_small(self):
        with pytest.raises(InvalidInput):
            lc.GroupElement.from_matrix(np.ones((2, 3)))
        with pytest.raises(InvalidInput):
            lc.GroupElement.from_matrix([[1.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            lc.GroupElement.from_matrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_matmul_dimension_mismatch(self):
        g2 = lc.GroupElement.from_matrix(np.eye(2))
        g3 = lc.GroupElement.from_matrix(np.eye(3))
        with pytest.raises(DimensionMismatch):
            g2 @ g3

    def test_entries_are_immutable(self):
        g = lc.GroupElement.from_matrix(np.eye(2))
        with pytest.raises(ValueError):
            g.entries[0, 0] = 2.0

    def test_from_unimodular_skips_determinant_check(self):
        # at this dynamic range the floating-point determinant is meaningless
        m = np.diag([1e60, 1.0, 1e-60])
        g = lc.GroupElement.from_unimodular(m)
        assert g.entries[0, 0] == 1e60

    def test_singular_inverse_is_a_numerical_failure(self):
        with pytest.raises(NumericalFailure):
            lc.GroupElement.from_unimodular([[1.0, 1.0], [1.0, 1.0]]).inverse()


class TestExteriorPower:
    def test_degree_one_is_identity_map(self):
        g = lc.GroupElement.from_matrix([[2.0, 1.0], [0.0, 0.5]])
        assert np.array_equal(lc.exterior_power(g, 1), g.entries)

    def test_diagonal_second_compound(self):
        g = lc.GroupElement.from_matrix(np.diag([4.0, 2.0, 1.0 / 8.0]))
        assert np.allclose(lc.exterior_power(g, 2), np.diag([8.0, 0.5, 0.25]))

    def test_top_power_is_determinant(self):
        m = np.array([[3.0, 2.0], [4.0, 3.0]])  # det 1
        g = lc.GroupElement.from_matrix(m)
        top = lc.exterior_power(g, 1)  # n-1 = 1 for SL(2); use compound directly
        assert np.array_equal(top, m)
        assert np.allclose(lc.compound_matrix(m, 2), [[1.0]])

    def test_degree_out_of_range(self):
        g = lc.GroupElement.from_matrix(np.eye(3))
        with pytest.raises(DimensionMismatch):
            lc.exterior_power(g, 3)
        with pytest.raises(DimensionMismatch):
            lc.exterior_power(g, 0)

    def test_multiplicativity_random_sl3(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.uniform(-2.0, 2.0, (3, 3))
            b = rng.uniform(-2.0, 2.0, (3, 3))
            left = lc.compound_matrix(a @ b, 2)
            right = lc.compound_matrix(a, 2) @ lc.compound_matrix(b, 2)
            scale = np.linalg.norm(lc.compound_matrix(a, 2)) * np.linalg.norm(
                lc.compound_matrix(b, 2)
            )
            assert np.linalg.norm(left - right) <= 1e-8 * max(scale, 1.0)

    def test_compound_determinant_is_one(self, random_sl_corpus):
        for g in random_sl_corpus[:40]:
            for k in range(1, g.n):
                assert abs(np.linalg.det(lc.exterior_power(g, k)) - 1.0) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_compounds_and_logs_read_one_wedge_basis(self, n):
        # one cached read-only array of lexicographic k-subsets; both readers
        # give the bits of the subsets built afresh
        rng = np.random.default_rng(n)
        m, ray = rng.standard_normal((n, n)), rng.standard_normal(n)
        for k in range(2, n + 1):
            s = lc.projgeom._wedge_subsets(n, k)
            assert s is lc.projgeom._wedge_subsets(n, k) and not s.flags.writeable
            fresh = np.array(list(combinations(range(n), k)))
            assert np.array_equal(s, fresh)
            minors = np.linalg.det(m[fresh[:, None, :, None], fresh[None, :, None, :]])
            assert np.array_equal(lc.compound_matrix(m, k), minors)
            logs = lc.projgeom.exterior_logs(ray, 2.5, k)
            assert np.array_equal(logs, 2.5 * ray[fresh].sum(axis=1))

    def test_representation_dimensions(self):
        rep = lc.Representation(n=4, k=2)
        assert rep.dim == 6
        with pytest.raises(DimensionMismatch):
            lc.Representation(n=3, k=3)


class TestFactoredElement:
    @staticmethod
    def _factored(power=3.0):
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((4, 4)))
        ray = np.array([3.0, 1.0, -1.0, -3.0]) / np.sqrt(20.0)
        return lc.GroupElement.from_factors(q, ray, power), q, ray

    def test_entries_are_the_degree_one_power(self):
        g, q, ray = self._factored()
        assert np.array_equal(g.entries, q @ (np.exp(3.0 * ray)[:, None] * q.T))
        assert np.array_equal(lc.exterior_power(g, 1), g.entries)

    def test_powers_agree_with_the_minors_at_small_range(self):
        g, _, _ = self._factored()
        for k in range(1, 4):
            minors = lc.compound_matrix(g.entries, k)
            assert np.allclose(lc.exterior_power(g, k), minors, rtol=1e-12, atol=1e-12)

    def test_each_power_is_computed_once_and_read_only(self):
        g, _, _ = self._factored()
        first = lc.exterior_power(g, 2)
        assert lc.exterior_power(g, 2) is first
        assert not first.flags.writeable

    def test_rotation_compounds_are_built_once_per_degree(self, monkeypatch):
        # exterior powers and exact certificates of a letter and of its
        # inverse, which has the same rotation, share one compound per degree
        g, q, _ = self._factored(power=30.0)
        built = []
        original = lc.projgeom.compound_matrix
        monkeypatch.setattr(
            lc.projgeom, "compound_matrix", lambda m, k: built.append(k) or original(m, k)
        )
        inv = g.inverse()
        for e in (g, inv):
            lc.certify_theta_proximal(e, range(1, 4), 0.05)
        assert sorted(built) == [1, 2, 3]
        for k in range(1, 4):
            qk = lc.projgeom.rotation_compound(inv, k)
            assert qk is lc.projgeom.rotation_compound(g, k)
            assert np.array_equal(qk, original(q, k)) and not qk.flags.writeable

    def test_inverse_negates_the_power(self):
        g, q, ray = self._factored()
        inv = g.inverse()
        assert inv.factors[2] == -3.0
        assert np.array_equal(inv.factors[0], q) and np.array_equal(inv.factors[1], ray)
        assert np.allclose(inv.entries @ g.entries, np.eye(4), atol=1e-10)
        # exact at a dynamic range (e^536) that inverting the entries cannot resolve
        wide, _, _ = self._factored(power=400.0)
        assert np.array_equal(wide.inverse().inverse().entries, wide.entries)

    def test_rejects_bad_factors(self):
        _, q, ray = self._factored()
        with pytest.raises(InvalidInput, match="orthogonal"):
            lc.GroupElement.from_factors(q * 1.001, ray, 1.0)
        with pytest.raises(InvalidInput, match="finite"):
            lc.GroupElement.from_factors(q, ray * np.nan, 1.0)
        with pytest.raises(InvalidInput):
            lc.GroupElement.from_factors(q, ray[:3], 1.0)
        with pytest.raises(NumericalFailure):
            lc.GroupElement.from_factors(q, ray, 1e4)
        # a ray off the zero-sum plane gives det exp(s * sum(r)) != 1
        with pytest.raises(InvalidInput, match="sum to 0"):
            lc.GroupElement.from_factors(q, ray + 1e-6, 1.0)

    def test_factors_are_set_only_by_from_factors(self):
        g, q, ray = self._factored()
        with pytest.raises(TypeError):
            lc.GroupElement(entries=g.entries, n=4, factors=(q, ray, 3.0))
        assert lc.GroupElement.from_matrix(g.entries).factors is None

    def test_overflowing_power_is_a_numerical_failure(self):
        # the entries fit; the second compound, exp(2000 * 4 / sqrt(20)), does not
        g, _, _ = self._factored(power=1000.0)
        with pytest.raises(NumericalFailure):
            lc.exterior_power(g, 2)


class TestProjDistance:
    def test_orthogonal_lines(self):
        x1 = lc.ProjectivePoint.from_vector([1.0, 0.0])
        x2 = lc.ProjectivePoint.from_vector([0.0, 1.0])
        assert lc.proj_distance(x1, x2) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_identity_case(self):
        x = lc.ProjectivePoint.from_vector([3.0, -1.0, 2.0])
        assert lc.proj_distance(x, x) == 0.0

    def test_diagonal_line_oracle(self):
        # oracle: minimize ||v1 -+ v2|| over signs by hand -> sqrt(2 - sqrt 2)
        x1 = lc.ProjectivePoint.from_vector([1.0, 1.0])
        x2 = lc.ProjectivePoint.from_vector([1.0, 0.0])
        assert lc.proj_distance(x1, x2) == pytest.approx(
            np.sqrt(2.0 - np.sqrt(2.0)), abs=1e-12
        )

    def test_sign_invariance_exact(self):
        x1 = lc.ProjectivePoint.from_vector([0.3, -0.8, 0.1])
        x2 = lc.ProjectivePoint.from_vector([-0.3, 0.8, -0.1])
        y = lc.ProjectivePoint.from_vector([1.0, 2.0, 2.0])
        assert lc.proj_distance(x1, y) == lc.proj_distance(x2, y)

    def test_no_cancellation_floor_for_nearby_points(self):
        # the inner-product form sqrt(2 - 2|c|) floors near 2e-8; the
        # difference form must resolve far smaller separations
        x1 = lc.ProjectivePoint.from_vector([1.0, 0.0])
        x2 = lc.ProjectivePoint.from_vector([1.0, 1e-12])
        assert lc.proj_distance(x1, x2) == pytest.approx(1e-12, rel=1e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lc.proj_distance(
                lc.ProjectivePoint.from_vector([1.0, 0.0]),
                lc.ProjectivePoint.from_vector([1.0, 0.0, 0.0]),
            )

    def test_bits_of_the_two_norm_form(self):
        # the oracle: one np.linalg.norm per sign, bit for bit
        rng = np.random.default_rng(24)
        for d in range(2, 11):
            pairs = []
            for _ in range(40):
                a, b, w = rng.standard_normal((3, d))
                pairs += [(a, b), (a, a + 1e-9 * w), (a, a + 1e-13 * w), (a, -a + 1e-9 * w)]
                # the largest coordinates tie, so the canonical signs differ
                # and the representatives point almost opposite ways
                tie = rng.uniform(-0.5, 0.5, size=d)
                tie[:2] = (1.0, -1.0)
                u, v = tie.copy(), tie.copy()
                u[0] += 1e-10
                v[1] -= 1e-10
                pairs.append((u, v))
            for a, b in pairs:
                x, y = lc.ProjectivePoint.from_vector(a), lc.ProjectivePoint.from_vector(b)
                want = float(min(np.linalg.norm(x.rep - y.rep), np.linalg.norm(x.rep + y.rep)))
                got = lc.proj_distance(x, y)
                assert type(got) is float and got == want
            assert np.linalg.norm(x.rep + y.rep) < 1e-9  # the last pair is a tie
            with pytest.raises(DimensionMismatch):
                lc.proj_distance(x, lc.ProjectivePoint.from_vector(np.append(b, 1.0)))

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, u, v, w):
        pts = []
        for vec in (u, v, w):
            if np.linalg.norm(vec) < 1e-6:
                return
            pts.append(lc.ProjectivePoint.from_vector(vec))
        a, b, c = pts
        assert lc.proj_distance(a, c) <= (
            lc.proj_distance(a, b) + lc.proj_distance(b, c) + 1e-12
        )


class TestGap:
    def test_orthogonal_complement(self):
        x = lc.ProjectivePoint.from_vector([1.0, 0.0, 0.0])
        h = lc.ProjectiveHyperplane.from_covector([1.0, 0.0, 0.0])
        assert lc.gap(x, h) == 1.0

    def test_incidence(self):
        x = lc.ProjectivePoint.from_vector([0.0, 1.0, 0.0])
        h = lc.ProjectiveHyperplane.from_covector([1.0, 0.0, 0.0])
        assert lc.gap(x, h) == 0.0

    def test_diagonal_oracle(self):
        x = lc.ProjectivePoint.from_vector([1.0, 1.0])
        h = lc.ProjectiveHyperplane.from_covector([1.0, 0.0])
        assert lc.gap(x, h) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = lc.ProjectivePoint.from_vector(rng.standard_normal(4))
            h = lc.ProjectiveHyperplane.from_covector(rng.standard_normal(4))
            assert 0.0 <= lc.gap(x, h) <= 1.0


class TestCanonicalRepresentatives:
    def test_unit_norm(self):
        x = lc.ProjectivePoint.from_vector([3.0, 4.0])
        assert np.linalg.norm(x.rep) == pytest.approx(1.0, abs=1e-12)
        h = lc.ProjectiveHyperplane.from_covector([0.0, -2.0, 0.0])
        assert np.linalg.norm(h.covector) == pytest.approx(1.0, abs=1e-12)

    def test_canonical_sign(self):
        a = lc.ProjectivePoint.from_vector([-1.0, 0.5])
        b = lc.ProjectivePoint.from_vector([1.0, -0.5])
        assert np.array_equal(a.rep, b.rep)

    def test_rejects_zero_vector(self):
        with pytest.raises(InvalidInput):
            lc.ProjectivePoint.from_vector([0.0, 0.0])


class TestValueEquality:
    def test_same_seed_certificates_are_equal(self):
        g = lc.GroupElement.from_matrix(np.diag([100.0, 1.0, 0.01]))
        a, b = (lc.certify_eps_proximal(g, 1, 0.1, seed=5) for _ in range(2))
        assert a == b
        assert hash(a) == hash(b)

    def test_a_point_is_its_line(self):
        v = np.array([1.0, -2.0, 0.5])
        a, b = lc.ProjectivePoint.from_vector(v), lc.ProjectivePoint.from_vector(-2.0 * v)
        assert a == b
        assert len({a, b}) == 1
        assert a != lc.ProjectivePoint.from_vector([1.0, 2.0, 0.5])

    def test_signed_zero_hashes_equal(self):
        # the canonical flip leaves -0.0 where a zero coordinate was negated
        a = lc.ProjectiveHyperplane.from_covector([0.0, 1.0])
        b = lc.ProjectiveHyperplane.from_covector([0.0, -1.0])
        assert a == b
        assert hash(a) == hash(b)

    def test_a_point_never_equals_a_hyperplane(self):
        v = [1.0, 0.0, 0.0]
        x, h = lc.ProjectivePoint.from_vector(v), lc.ProjectiveHyperplane.from_covector(v)
        assert x != h
        assert h != x

    def test_group_elements_compare_and_hash_by_their_entries(self):
        # the generated dataclass __eq__ compared the entries arrays and raised
        m = np.diag([4.0, 1.0, 0.25])
        a, b = lc.GroupElement.from_matrix(m), lc.GroupElement.from_unimodular(m)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b, lc.GroupElement.from_matrix(np.diag([0.25, 1.0, 4.0]))}) == 2
        assert a != lc.GroupElement.from_matrix(np.eye(3))
        assert a != lc.GroupElement.from_matrix(np.eye(2))
        # a factored element is the matrix it carries factors for
        f = lc.GroupElement.from_factors(np.eye(2), np.array([1.0, -1.0]), 2.0)
        assert f == lc.GroupElement.from_unimodular(f.entries)


class TestHausdorffDistance:
    def test_identical_clouds(self):
        p = [lc.ProjectivePoint.from_vector(v) for v in ([1.0, 0.0], [1.0, 1.0])]
        assert lc.hausdorff_distance(p, p) == 0.0

    def test_two_singletons(self):
        p = [lc.ProjectivePoint.from_vector([1.0, 0.0])]
        q = [lc.ProjectivePoint.from_vector([0.0, 1.0])]
        assert lc.hausdorff_distance(p, q) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_sup_min_formula(self):
        p = [
            lc.ProjectivePoint.from_vector([1.0, 0.0]),
            lc.ProjectivePoint.from_vector([0.0, 1.0]),
        ]
        q = [lc.ProjectivePoint.from_vector([1.0, 0.0])]
        assert lc.hausdorff_distance(p, q) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        p = [lc.ProjectivePoint.from_vector(rng.standard_normal(3)) for _ in range(5)]
        q = [lc.ProjectivePoint.from_vector(rng.standard_normal(3)) for _ in range(7)]
        assert lc.hausdorff_distance(p, q) == lc.hausdorff_distance(q, p)

    def test_resolves_tiny_separations(self):
        p = [lc.ProjectivePoint.from_vector([1.0, 0.0])]
        q = [lc.ProjectivePoint.from_vector([1.0, 1e-11])]
        assert lc.hausdorff_distance(p, q) == pytest.approx(1e-11, rel=1e-3)

    def test_empty_input(self):
        p = [lc.ProjectivePoint.from_vector([1.0, 0.0])]
        with pytest.raises(EmptyInput):
            lc.hausdorff_distance(p, [])


def _reference_compound(m, k):
    # the double loop of per-minor determinants that the batched det replaced
    subsets = list(combinations(range(m.shape[0]), k))
    out = np.empty((len(subsets), len(subsets)))
    for a, rows in enumerate(subsets):
        for b, cols in enumerate(subsets):
            out[a, b] = np.linalg.det(m[np.ix_(rows, cols)])
    return out


class TestCompoundMatrix:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_the_minor_loop(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 1e3):
            m = scale * rng.standard_normal((n, n))
            assert np.array_equal(lc.compound_matrix(m, 1), m)
            for k in range(2, n + 1):
                assert np.array_equal(lc.compound_matrix(m, k), _reference_compound(m, k))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cauchy_binet(self, n):
        rng = np.random.default_rng(100 + n)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        for k in range(1, n + 1):
            assert np.allclose(
                lc.compound_matrix(a @ b, k),
                lc.compound_matrix(a, k) @ lc.compound_matrix(b, k),
            )


class TestChordalDistances:
    def test_columns_match_proj_distance(self):
        rng = np.random.default_rng(4)
        pts = [lc.ProjectivePoint.from_vector(rng.standard_normal(5)) for _ in range(12)]
        a = np.stack([p.rep for p in pts[:6]], axis=1)
        b = np.stack([p.rep for p in pts[6:]], axis=1)
        got = chordal_distances(a, b)
        assert got.shape == (6,)
        for j in range(6):
            assert got[j] == pytest.approx(lc.proj_distance(pts[j], pts[6 + j]), rel=1e-14)

    def test_broadcasts_to_all_pairs_and_ignores_sign(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 4))
        a /= np.linalg.norm(a, axis=0)
        pairs = chordal_distances(a[:, :, None], a[:, None, :])
        assert pairs.shape == (4, 4)
        assert np.array_equal(pairs, pairs.T)
        assert np.all(np.diag(pairs) == 0.0)
        assert np.array_equal(chordal_distances(-a[:, :, None], a[:, None, :]), pairs)


def _reference_hausdorff(p, q):
    # the per-row loop hausdorff_distance used before the shared kernel
    pm = np.stack([x.rep for x in p])
    qm = np.stack([x.rep for x in q])
    mins_p = np.empty(pm.shape[0])
    mins_q = np.full(qm.shape[0], np.inf)
    for a in range(pm.shape[0]):
        diff = np.minimum(
            np.linalg.norm(qm - pm[a], axis=1),
            np.linalg.norm(qm + pm[a], axis=1),
        )
        mins_p[a] = diff.min()
        np.minimum(mins_q, diff, out=mins_q)
    return float(max(mins_p.max(), mins_q.max()))


class TestHausdorffBlocks:
    @pytest.mark.parametrize(
        "dim,sizes", [(2, (1, 1)), (5, (5, 7)), (2, (100, 1000)), (3, (3000, 40))]
    )
    def test_equals_the_row_loop(self, dim, sizes):
        # (100, 1000) in R^2 runs blocks of 32 rows and a partial last one
        rng = np.random.default_rng(sizes[0])
        p, q = (
            [lc.ProjectivePoint.from_vector(rng.standard_normal(dim)) for _ in range(s)]
            for s in sizes
        )
        assert lc.hausdorff_distance(p, q) == _reference_hausdorff(p, q)
        assert lc.hausdorff_distance(q, p) == _reference_hausdorff(q, p)
