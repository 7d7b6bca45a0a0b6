"""Linear-algebra substrate: SL(n,R) elements, exterior powers, projective metrics.

All distances are Euclidean (chordal) on real projective space.  The chordal
distance between lines is d(x1, x2) = min over signs of ||v1 -+ v2|| for unit
representatives (algebraically sqrt(2 - 2|<v1, v2>|), computed in difference
form to avoid cancellation), and the gap between a line and a
hyperplane is |<covector, rep>| for unit representatives.  The gap is within a
factor sqrt(2) of the chordal point-to-hyperplane distance.
"""

from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import combinations
from math import comb, sqrt

import numpy as np

from .errors import DimensionMismatch, EmptyInput, InvalidInput, NumericalFailure

DET_STRICT_TOL = 1e-9
DET_RENORM_TOL = 1e-6
ORTHOGONALITY_TOL = 1e-9
# slack on a zero-sum vector's coordinate sum (a chamber vector, a forge ray)
CHAMBER_SUM_TOL = 1e-8


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous float copy of a; the caller's array stays writeable."""
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


class ArrayValued:
    """Value equality and hashing by the first dataclass field, an array, where the
    generated `__eq__` would compare arrays and raise; subclasses set `eq=False`."""

    _array = property(lambda self: getattr(self, fields(self)[0].name))

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which np.array_equal calls equal
        return hash((type(self), (self._array + 0.0).tobytes()))


@dataclass(frozen=True, eq=False)
class GroupElement(ArrayValued):
    """An n x n real matrix of determinant 1 (n >= 2).

    Inputs with |det - 1| <= 1e-6 are renormalized by det**(1/n); anything
    further from SL(n,R) is rejected.  An element made by `from_factors`
    also carries its factors (rotation q, ray r, signed power s), from which
    its exterior powers are computed exactly.
    """

    entries: np.ndarray
    n: int
    # (q, r, s), set only by the validated `from_factors`
    factors: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # Lambda^k per degree k, each computed once by `exterior_power`
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # compound_matrix(q, k) of a factored element per degree k, each computed
    # once by `rotation_compound`; shared with the inverse, which has the same q
    _compounds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_matrix(cls, matrix) -> "GroupElement":
        """`from_unimodular`'s checks, then the determinant's."""
        g = cls.from_unimodular(matrix)
        m, n = g.entries, g.n
        det = float(np.linalg.det(m))
        # a floating-point determinant only resolves unimodularity down to
        # ~ n * eps * sigma_1^n; past that the check is vacuous by necessity
        with np.errstate(over="ignore"):
            resolution = n * np.finfo(float).eps * float(np.linalg.norm(m, 2)) ** n
        if abs(det - 1.0) > max(DET_STRICT_TOL, resolution):
            if abs(det - 1.0) > max(DET_RENORM_TOL, resolution) or det <= 0.0:
                raise InvalidInput(f"determinant {det} is not 1 within {DET_RENORM_TOL}")
            return cls(entries=_freeze(m / det ** (1.0 / n)), n=n)
        return g

    @classmethod
    def from_unimodular(cls, matrix) -> "GroupElement":
        """Wrap a matrix known to be unimodular by construction.

        Skips the determinant check, which loses all precision for matrices of
        large dynamic range (relative error ~ eps * condition number).
        """
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise InvalidInput(f"expected a square matrix of size >= 2, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidInput("matrix entries must be finite")
        return cls(entries=_freeze(m), n=m.shape[0])

    @classmethod
    def from_factors(cls, rotation, ray, power) -> "GroupElement":
        """q diag(exp(s r)) q^T for an orthogonal q, a zero-sum ray r and a signed power s.

        r must sum to 0 within CHAMBER_SUM_TOL * max(1, |r|), so the element
        is unimodular, as every chamber vector is.  Its exterior powers are
        q_k diag(exp(s Sigma_S r)) q_k^T, the sums running over the k-subsets
        S: no minor of the entries is taken, so none cancels at the dynamic
        range of a large power.  Raises NumericalFailure when the entries
        overflow.
        """
        q = _freeze(rotation)
        r = _freeze(ray)
        s = float(power)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] < 2 or r.shape != q.shape[:1]:
            raise InvalidInput(
                f"expected an n x n rotation and an n-vector ray, got {q.shape} and {r.shape}"
            )
        if not (np.isfinite(q).all() and np.isfinite(r).all() and np.isfinite(s)):
            raise InvalidInput("factors must be finite")
        if np.abs(q.T @ q - np.eye(q.shape[0])).max() > ORTHOGONALITY_TOL:
            raise InvalidInput(f"rotation is not orthogonal within {ORTHOGONALITY_TOL}")
        total = float(r.sum())
        if abs(total) > CHAMBER_SUM_TOL * max(1.0, float(np.linalg.norm(r))):
            raise InvalidInput(f"ray must sum to 0 (det 1), got {total}")
        g = cls(entries=_freeze(_factored(q, s * r)), n=q.shape[0])
        object.__setattr__(g, "factors", (q, r, s))
        return g

    def inverse(self) -> "GroupElement":
        if self.factors is not None:
            q, r, s = self.factors
            inv = GroupElement.from_factors(q, r, -s)
            object.__setattr__(inv, "_compounds", self._compounds)
            return inv
        try:
            inv = np.linalg.inv(self.entries)
        except np.linalg.LinAlgError as e:
            raise NumericalFailure(f"matrix inversion failed: {e}") from e
        return GroupElement(entries=_freeze(inv), n=self.n)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.n != other.n:
            raise DimensionMismatch(f"cannot multiply SL({self.n}) by SL({other.n})")
        return GroupElement(entries=_freeze(self.entries @ other.entries), n=self.n)


def _factored(q: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """q diag(exp(logs)) q^T; raises NumericalFailure unless finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = q @ (np.exp(logs)[:, None] * q.T)
    if not np.isfinite(m).all():
        raise NumericalFailure("factored matrix overflowed")
    return m


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row, equal bit for bit to np.linalg.norm(row)."""
    # a strided row's dot product can differ in the last bit
    rows = np.ascontiguousarray(rows)
    return np.sqrt(rows[:, None, :] @ rows[:, :, None]).reshape(-1)


def canonical_units(v: np.ndarray, what: str) -> np.ndarray:
    """The rows of v scaled to unit length, each with the canonical sign.

    The canonical sign makes the first coordinate of largest magnitude
    positive, so the rows are representatives of projective points.
    """
    v = np.asarray(v, dtype=float)
    norms = row_norms(v)
    if not (np.isfinite(v).all() and (norms != 0.0).all()):
        raise InvalidInput(f"{what} must be a nonzero finite vector")
    v = v / norms[:, None]
    flip = v[np.arange(v.shape[0]), np.abs(v).argmax(axis=1)] < 0
    v[flip] = -v[flip]
    return v


def _canonical_unit(v: np.ndarray, what: str) -> np.ndarray:
    return _freeze(canonical_units(np.asarray(v, dtype=float).reshape(1, -1), what)[0])


@dataclass(frozen=True, eq=False)
class ProjectivePoint(ArrayValued):
    """A point of P(R^m), stored as a unit representative with canonical sign."""

    rep: np.ndarray

    @classmethod
    def from_vector(cls, v) -> "ProjectivePoint":
        return cls(rep=_canonical_unit(v, "projective point representative"))

    @property
    def dim(self) -> int:
        return self.rep.shape[0]


@dataclass(frozen=True, eq=False)
class ProjectiveHyperplane(ArrayValued):
    """A hyperplane of P(R^m), stored as a unit covector with canonical sign."""

    covector: np.ndarray

    @classmethod
    def from_covector(cls, phi) -> "ProjectiveHyperplane":
        return cls(covector=_canonical_unit(phi, "hyperplane covector"))

    @property
    def dim(self) -> int:
        return self.covector.shape[0]


@dataclass(frozen=True)
class Representation:
    """The k-th exterior power of the standard representation of SL(n,R)."""

    n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n - 1:
            raise DimensionMismatch(
                f"exterior degree {self.k} out of range for SL({self.n})"
            )

    @property
    def dim(self) -> int:
        return comb(self.n, self.k)


@lru_cache
def _wedge_subsets(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) in lexicographic order, one per row, read-only:
    the wedge basis of Lambda^k R^n."""
    s = np.array(list(combinations(range(n), k)))
    s.flags.writeable = False
    return s


def compound_matrix(m: np.ndarray, k: int) -> np.ndarray:
    """k-th compound of a square matrix: minors over lexicographic k-subsets."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if not 1 <= k <= n:
        raise DimensionMismatch(f"compound degree {k} out of range for size {n}")
    if k == 1:
        return m.copy()
    s = _wedge_subsets(n, k)
    # all d x d minors gathered into one (d, d, k, k) stack, one batched det
    return np.linalg.det(m[s[:, None, :, None], s[None, :, None, :]])


def exterior_power(g: GroupElement, k: int) -> np.ndarray:
    """Matrix of Lambda^k g on Lambda^k R^n in the lexicographic wedge basis.

    Every letter's exterior powers come from here: from the factors of a
    factored element, else from the minors of the entries.  Each element
    computes each degree once; the result is read-only.
    """
    if not 1 <= k <= g.n - 1:
        raise DimensionMismatch(f"exterior degree {k} out of range for SL({g.n})")
    power = g._powers.get(k)
    if power is None:
        if g.factors is None:
            power = compound_matrix(g.entries, k)
            if not np.isfinite(power).all():
                raise NumericalFailure(f"Lambda^{k} overflowed")
        else:
            _, r, s = g.factors
            power = _factored(rotation_compound(g, k), exterior_logs(r, s, k))
        power = g._powers[k] = _freeze(power)
    return power


def rotation_compound(g: GroupElement, k: int) -> np.ndarray:
    """compound_matrix(q, k) of a factored element's rotation q, read-only.

    Its columns are the eigenvectors of Lambda^k g, in the order of
    `exterior_logs`.  Each element computes each degree once.
    """
    qk = g._compounds.get(k)
    if qk is None:
        qk = g._compounds[k] = compound_matrix(g.factors[0], k)
        qk.flags.writeable = False
    return qk


def exterior_logs(ray: np.ndarray, power: float, k: int) -> np.ndarray:
    """The log eigenvalues power * Sigma_S ray of Lambda^k of q diag(exp(power * ray)) q^T.

    One per k-subset S, in the lexicographic wedge basis: the eigenvector of
    subset S is column S of `compound_matrix(q, k)`, whatever the rotation q:
    both read `_wedge_subsets`.
    """
    return float(power) * ray[_wedge_subsets(len(ray), k)].sum(axis=1)


def chordal_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chordal distances between the unit columns of a and b (broadcast).

    For unit vectors sqrt(2 - 2|<u, v>|) = min(||u - v||, ||u + v||); the
    difference form avoids the catastrophic cancellation of the inner-product
    form near 0.  The reductions run over axis 0, so callers keep their
    points as columns.
    """
    # the bits of np.linalg.norm(axis=0), with one sqrt: it is monotone and
    # correctly rounded, so it commutes with the minimum
    diff, total = a - b, a + b
    diff *= diff
    total *= total
    return np.sqrt(np.minimum(np.add.reduce(diff, axis=0), np.add.reduce(total, axis=0)))


def proj_distance(x1: ProjectivePoint, x2: ProjectivePoint) -> float:
    """Chordal distance sqrt(2 - 2|<v1, v2>|) between projective points."""
    if x1.dim != x2.dim:
        raise DimensionMismatch(f"ambient dimensions differ: {x1.dim} vs {x2.dim}")
    # min over signs of ||v1 -+ v2||: algebraically sqrt(2 - 2|<v1,v2>|), but
    # the difference form keeps full relative accuracy for nearby points.  The
    # bits of min(np.linalg.norm(diff), np.linalg.norm(total)), which is
    # sqrt(x.dot(x)) for a vector: one sqrt, since it is monotone and correctly
    # rounded and so commutes with the minimum
    diff, total = x1.rep - x2.rep, x1.rep + x2.rep
    return sqrt(min(diff.dot(diff), total.dot(total)))


def gap(x: ProjectivePoint, h: ProjectiveHyperplane) -> float:
    """|<covector, rep>| for unit representatives; in [0, 1], zero iff incident."""
    if x.dim != h.dim:
        raise DimensionMismatch(f"ambient dimensions differ: {x.dim} vs {h.dim}")
    return min(1.0, abs(float(h.covector @ x.rep)))


def hausdorff_distance(p, q) -> float:
    """Hausdorff distance between two finite sets of projective points."""
    p, q = list(p), list(q)
    if not p or not q:
        raise EmptyInput("hausdorff_distance needs two nonempty point sets")
    pm = np.stack([x.rep for x in p], axis=1)
    qm = np.stack([x.rep for x in q], axis=1)
    if pm.shape[0] != qm.shape[0]:
        raise DimensionMismatch("point clouds live in different ambient dimensions")
    # all pairs, in blocks of p's points that cap each temporary at 2**16 floats
    step = max(1, 2**16 // (pm.shape[0] * qm.shape[1]))
    mins_p = np.empty(pm.shape[1])
    mins_q = np.full(qm.shape[1], np.inf)
    for a in range(0, pm.shape[1], step):
        dist = chordal_distances(pm[:, a : a + step, None], qm[:, None, :])
        mins_p[a : a + step] = dist.min(axis=1)
        np.minimum(mins_q, dist.min(axis=0), out=mins_q)
    return float(max(mins_p.max(), mins_q.max()))
