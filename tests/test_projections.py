"""Cartan and Jordan projections, the opposition involution, and their asymptotics."""

import numpy as np
import pytest

import limitcone as lc
from limitcone.errors import InvalidInput

from .conftest import rotation2


def embed_rotation3(theta: float) -> lc.GroupElement:
    m = np.eye(3)
    m[:2, :2] = rotation2(theta)
    return lc.GroupElement.from_matrix(m)


class TestChamberVector:
    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInput):
            lc.ChamberVector.from_coords([0.0, 1.0, -1.0])

    def test_rejects_nonzero_sum(self):
        with pytest.raises(InvalidInput):
            lc.ChamberVector.from_coords([1.0, 0.5])

    @pytest.mark.parametrize(
        "coords",
        [[np.nan, np.nan], [np.inf, -np.inf], [np.nan, 0.0], [1.0, np.nan, -1.0], [np.inf, 0.0, -np.inf]],
    )
    def test_rejects_non_finite(self, coords):
        # nan compares false with everything, so the sum and order checks
        # alone let these through
        with pytest.raises(InvalidInput, match="finite"):
            lc.ChamberVector.from_coords(coords)

    def test_direction_of_zero_vector(self):
        v = lc.ChamberVector.from_coords([0.0, 0.0])
        assert np.array_equal(v.direction(), np.zeros(2))

    def test_compares_and_hashes_by_its_coordinates(self):
        # the generated dataclass __eq__ compared the coords arrays and raised
        a = lc.ChamberVector.from_coords([1.0, 0.0, -1.0])
        b = lc.ChamberVector.from_coords(np.array([1.0, 0.0, -1.0]))
        assert a == b
        assert hash(a) == hash(b)
        assert a != lc.ChamberVector.from_coords([2.0, -1.0, -1.0])
        zero, signed = lc.ChamberVector.from_coords([0.0, 0.0]), lc.ChamberVector.from_coords([-0.0, 0.0])
        assert zero == signed
        assert len({zero, signed}) == 1

    @pytest.mark.parametrize(
        "coords", [[[0.0, 0.0], [0.0, 0.0]], np.zeros((1, 3)), np.zeros((2, 2, 2)), 0.0]
    )
    def test_from_coords_refuses_anything_but_one_vector(self, coords):
        # a stack was flattened: two zero 2-vectors read as the zero 4-vector
        with pytest.raises(InvalidInput, match="from_rows"):
            lc.ChamberVector.from_coords(coords)

    def test_from_coords_leaves_the_callers_array_writeable(self):
        a = np.array([1.0, 0.0, -1.0])
        v = lc.ChamberVector.from_coords(a)
        a[0] = 5.0
        assert v.coords.tolist() == [1.0, 0.0, -1.0] and not v.coords.flags.writeable

    # numpy refuses these with a raw ValueError while building the array
    def test_from_coords_refuses_a_ragged_vector(self):
        with pytest.raises(InvalidInput, match="regular array of numbers"):
            lc.ChamberVector.from_coords([1.0, [0.0, -1.0]])

    def test_from_rows_refuses_ragged_rows(self):
        with pytest.raises(InvalidInput, match="regular array of numbers"):
            lc.ChamberVector.from_rows([[1.0, -1.0], [0.0]])

    def test_from_coords_refuses_non_numbers(self):
        with pytest.raises(InvalidInput, match="regular array of numbers"):
            lc.ChamberVector.from_coords(["a", "b"])


def _chamber_stack(rng, count, n):
    """`count` random chamber rows of dimension n, each sorted and centred."""
    rows = -np.sort(-rng.standard_normal((count, n)), axis=1)
    return rows - rows.mean(axis=1, keepdims=True)


class TestChamberRows:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("count", [1, 2, 37, 2000])
    def test_each_row_is_its_from_coords(self, n, count):
        rng = np.random.default_rng(100 * n + count)
        rows = _chamber_stack(rng, count, n)
        rows[rng.random(count) < 0.1] = 0.0  # zero rows, some spelled -0.0
        rows[rng.random(count) < 0.05] *= -0.0
        for stack in (rows, np.asfortranarray(rows), list(rows)):
            got = lc.ChamberVector.from_rows(stack)
            assert len(got) == count
            for v, row in zip(got, rows):
                want = lc.ChamberVector.from_coords(row)
                assert v.coords.tobytes() == want.coords.tobytes()
                assert not v.coords.flags.writeable and v.coords.flags.c_contiguous
                assert v == want and hash(v) == hash(want)

    def test_rows_do_not_share_the_callers_array(self):
        rows = _chamber_stack(np.random.default_rng(2), 4, 3)
        got = lc.ChamberVector.from_rows(rows)
        rows[0] = 0.0
        assert rows.flags.writeable and got[0].coords.any()

    @pytest.mark.parametrize(
        "rows, match",
        [
            ([[1.0, 0.0, -1.0], [np.nan, 0.0, 0.0]], "finite"),
            ([[1.0, 0.0, -1.0], [np.inf, 0.0, -np.inf]], "finite"),
            ([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]], "sorted"),
            ([[1.0, 0.0, -1.0], [1.0, 0.5, 0.0]], "sum to 0"),
            ([[0.0], [0.0]], "dimension"),
            ([1.0, 0.0, -1.0], "stack"),
            (np.zeros((2, 2, 2)), "stack"),
            ([], "stack"),
            (np.zeros((0, 1)), "dimension"),
        ],
        ids=["nan", "inf", "unsorted", "nonzero-sum", "one-column", "one-vector", "3-d",
             "empty-list", "empty-one-column"],
    )
    def test_refusals(self, rows, match):
        with pytest.raises(InvalidInput, match=match):
            lc.ChamberVector.from_rows(rows)

    @pytest.mark.parametrize("n", [2, 5])
    def test_an_empty_stack_is_no_vectors(self, n):
        assert lc.ChamberVector.from_rows(np.empty((0, n))) == ()


class TestCartanProjection:
    def test_diagonal(self):
        g = lc.GroupElement.from_matrix(np.diag([4.0, 2.0, 1.0 / 8.0]))
        assert np.allclose(
            lc.cartan_projection(g).coords,
            [np.log(4.0), np.log(2.0), -np.log(8.0)],
            atol=1e-12,
        )

    def test_rotation_is_zero(self):
        assert np.allclose(
            lc.cartan_projection(embed_rotation3(0.7)).coords, 0.0, atol=1e-12
        )

    def test_triangular_oracle(self):
        # oracle: eigenvalues of g^T g = [[4,2],[2,1.25]] by the quadratic
        # formula, halved logs
        g = lc.GroupElement.from_matrix([[2.0, 1.0], [0.0, 0.5]])
        tr, det = 4.0 + 1.25, 1.0
        top = (tr + np.sqrt(tr * tr - 4.0 * det)) / 2.0
        mu1 = 0.5 * np.log(top)
        assert np.allclose(
            lc.cartan_projection(g).coords, [mu1, -mu1], atol=1e-10
        )
        assert mu1 == pytest.approx(0.80990, abs=5e-5)

    def test_zero_sum_and_sorted(self, random_sl_corpus):
        for g in random_sl_corpus[:60]:
            mu = lc.cartan_projection(g).coords
            assert abs(mu.sum()) <= 1e-8
            assert np.all(np.diff(mu) <= 0.0)


class TestJordanProjection:
    def test_triangular(self):
        g = lc.GroupElement.from_matrix([[2.0, 1.0], [0.0, 0.5]])
        assert np.allclose(
            lc.jordan_projection(g).coords, [np.log(2.0), -np.log(2.0)], atol=1e-12
        )

    def test_rotation_is_zero(self):
        assert np.allclose(
            lc.jordan_projection(embed_rotation3(1.1)).coords, 0.0, atol=1e-12
        )

    def test_product_oracle(self, sl2_pair):
        # gamma1 gamma2 = [[50.5, 49.5], [0.495, 0.505]]; oracle: quadratic
        # formula on trace 51.005, det 1
        g1, g2 = sl2_pair
        prod = g1 @ g2
        assert np.allclose(
            prod.entries, [[50.5, 49.5], [0.495, 0.505]], atol=1e-12
        )
        tr = 51.005
        top = (tr + np.sqrt(tr * tr - 4.0)) / 2.0
        lam = lc.jordan_projection(prod).coords
        assert np.allclose(lam, [np.log(top), -np.log(top)], atol=1e-10)
        assert lam[0] == pytest.approx(3.931539, abs=5e-6)

    def test_conjugation_invariance(self, random_sl_corpus):
        rng = np.random.default_rng(11)
        for g in random_sl_corpus[:30]:
            while True:
                h = rng.uniform(-1.0, 1.0, (g.n, g.n))
                det = float(np.linalg.det(h))
                if abs(det) > 0.1 and np.linalg.cond(h) < 1e3:
                    break
            if det < 0:
                h[0] = -h[0]
                det = -det
            h = lc.GroupElement.from_matrix(h / det ** (1.0 / g.n))
            conj = h @ g @ h.inverse()
            assert np.allclose(
                lc.jordan_projection(conj).coords,
                lc.jordan_projection(g).coords,
                atol=1e-6,
            )

    def test_homogeneity(self, random_sl_corpus):
        for g in random_sl_corpus[:20]:
            lam = lc.jordan_projection(g).coords
            p = g
            for m in range(2, 9):
                p = p @ g
                assert np.allclose(
                    lc.jordan_projection(p).coords, m * lam, atol=1e-6
                )


class TestOppositionInvolution:
    def test_formula(self):
        v = lc.ChamberVector.from_coords([1.38629, 0.69315, -2.07944])
        out = lc.opposition_involution(v).coords
        assert np.allclose(out, [2.07944, -0.69315, -1.38629], atol=1e-12)

    def test_involution_exact(self, random_sl_corpus):
        for g in random_sl_corpus[:60]:
            v = lc.cartan_projection(g)
            back = lc.opposition_involution(lc.opposition_involution(v))
            assert np.array_equal(back.coords, v.coords)

    def test_identity_on_sl2_chamber(self):
        v = lc.ChamberVector.from_coords([0.75, -0.75])
        assert np.array_equal(lc.opposition_involution(v).coords, v.coords)

    def test_inverse_compatibility(self, random_sl_corpus):
        for g in random_sl_corpus[:60]:
            gi = g.inverse()
            assert np.allclose(
                lc.cartan_projection(gi).coords,
                lc.opposition_involution(lc.cartan_projection(g)).coords,
                atol=1e-8,
            )
            assert np.allclose(
                lc.jordan_projection(gi).coords,
                lc.opposition_involution(lc.jordan_projection(g)).coords,
                atol=1e-8,
            )


class TestRegularityGaps:
    def test_diagonal(self):
        g = lc.GroupElement.from_matrix(np.diag([4.0, 2.0, 1.0 / 8.0]))
        assert np.allclose(
            lc.regularity_gaps(g), [np.log(2.0), np.log(16.0)], atol=1e-12
        )

    def test_rotation(self):
        assert np.allclose(lc.regularity_gaps(embed_rotation3(0.4)), 0.0, atol=1e-12)

    def test_triangular(self):
        g = lc.GroupElement.from_matrix([[2.0, 1.0], [0.0, 0.5]])
        assert np.allclose(lc.regularity_gaps(g), [2.0 * np.log(2.0)], atol=1e-12)


class TestIteratedCartan:
    def test_diagonal_exact_at_every_step(self):
        g = lc.GroupElement.from_matrix(np.diag([4.0, 2.0, 1.0 / 8.0]))
        for steps in (1, 7, 64):
            assert np.allclose(
                lc.iterated_cartan(g, steps).coords,
                lc.cartan_projection(g).coords,
                atol=1e-10,
            )

    def test_rotation_bounded_orbit(self):
        assert np.allclose(
            lc.iterated_cartan(embed_rotation3(0.9), 128).coords, 0.0, atol=1e-10
        )

    def test_converges_to_jordan(self):
        g = lc.GroupElement.from_matrix([[2.0, 1.0], [0.0, 0.5]])
        err = np.max(
            np.abs(lc.iterated_cartan(g, 64).coords - lc.jordan_projection(g).coords)
        )
        assert err <= 0.05

    def test_agrees_with_direct_power_small_steps(self):
        g = lc.GroupElement.from_matrix([[1.5, 0.3], [0.2, 0.7066666666666667]])
        p = g
        for _ in range(15):
            p = p @ g
        direct = lc.cartan_projection(p).coords / 16.0
        assert np.allclose(lc.iterated_cartan(g, 16).coords, direct, atol=1e-6)

    def test_doubling_monotonicity(self, random_sl_corpus):
        checked = 0
        for g in random_sl_corpus:
            if np.min(lc.regularity_gaps(g)) < 0.1:
                continue
            lam = lc.jordan_projection(g).coords
            errs = {
                s: np.max(np.abs(lc.iterated_cartan(g, s).coords - lam))
                for s in (8, 16, 32, 64)
            }
            for s in (8, 16, 32):
                assert errs[2 * s] <= errs[s] + 1e-9
            checked += 1
            if checked >= 25:
                break
        assert checked == 25

    def test_rejects_nonpositive_steps(self):
        g = lc.GroupElement.from_matrix(np.eye(2))
        with pytest.raises(InvalidInput):
            lc.iterated_cartan(g, 0)


class TestCompoundCompatibility:
    def test_cauchy_binet_partial_sums(self, random_sl_corpus):
        for g in random_sl_corpus[:30]:
            mu = lc.cartan_projection(g).coords
            lam = lc.jordan_projection(g).coords
            for k in range(1, g.n):
                ck = lc.exterior_power(g, k)
                s = np.linalg.svd(ck, compute_uv=False)
                assert np.log(s[0]) == pytest.approx(mu[:k].sum(), abs=1e-6)
                w = np.abs(np.linalg.eigvals(ck))
                assert np.log(w.max()) == pytest.approx(lam[:k].sum(), abs=1e-6)


class TestProductAccumulation:
    def test_matches_direct_projection_for_short_products(self, random_sl_corpus):
        rng = np.random.default_rng(17)
        for _ in range(20):
            gs = [random_sl_corpus[int(rng.integers(0, 100))] for _ in range(3)]
            if len({g.n for g in gs}) != 1:
                continue
            prod = gs[0]
            for g in gs[1:]:
                prod = prod @ g
            assert np.allclose(
                lc.product_cartan(gs).coords,
                lc.cartan_projection(prod).coords,
                atol=1e-8,
            )
            assert np.allclose(
                lc.product_jordan(gs).coords,
                lc.jordan_projection(prod).coords,
                atol=1e-8,
            )

    def test_long_product_does_not_overflow(self):
        g = lc.GroupElement.from_matrix(np.diag([1e3, 1e-3]))
        lam = lc.product_jordan([g] * 200)
        assert lam.coords[0] == pytest.approx(200 * np.log(1e3), rel=1e-12)
