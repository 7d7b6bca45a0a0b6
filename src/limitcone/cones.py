"""Convex-cone geometry in the zero-sum chamber coordinates.

The Weyl chamber of SL(n,R) lives in the (n-1)-dimensional zero-sum hyperplane
of R^n; we fix the Helmert basis as a deterministic orthonormal chart.  Cones
are given by finitely many spanning rays; the distance to a cone is the
residual of the nonnegative least-squares (NNLS) fit of v on its rays, and
membership is that distance within a slack.

With at most as many rays as coordinates the distance has a finite form: it is
the smallest of |v| and, over the subsets of the rays, the residual of the
least-squares fit of v on the subset whose coefficients are all >= 0 (at most
2^n - 1 fits).  It is exact, with dependent rays too.  Let p be the point of
the cone nearest v.  By Caratheodory, p = sum of x_i a_i over an independent
subset S with every x_i > 0 (S is empty when p = 0).  Moving p along +-a_i,
i in S, stays in the cone, so v - p is orthogonal to each a_i and p is the
least-squares fit on S, with coefficients x >= 0 (Lawson & Hanson, Solving
Least Squares Problems, ch. 23).  Every other nonnegative fit is a point of
the cone, no nearer to v.  A subset whose smallest singular value is at most
FACE_RANK_TOL times its largest is skipped as dependent: moving its
coefficients along the near-null vector until one vanishes shows that each
point of its cone lies within sqrt(k) * FACE_RANK_TOL * |x| * |A| of the cone
of a proper subset, and a dependent subset (n zero-sum rays in R^n) that
rounding left barely independent would otherwise fit v with a direction the
rays do not span.  More rays than coordinates take one NNLS fit (scipy) per
vector, in a basis of the rays' span when they span less than the space
(`_span_coordinates`).

The extreme rays of a cone of 3-D or larger chamber directions are decided by
that fit, run only on the rows Qhull proposes.  Slice the cone by c.x = 1,
with c the sum of the rows: two chamber vectors have a nonnegative inner
product (the fundamental weights span the closed chamber and pairwise have
inner product min(i, j) - ij/n > 0, and the Helmert chart is an isometry), so
each unit row has height u.c >= u.u = 1.  A row that is not a vertex of the
slice hull, nor within SLACK of one, is a convex combination of vertex slice
points, so a nonnegative combination of vertex rows, all of them farther than
SLACK from it: the fit would find it inside the cone of its far rows up to
Qhull's roundoff, far below the fit's SLACK, and drop it.

Every decision here is made at one resolution, `SLACK`; membership is one
test, `in_cone`; rays are read by one rule, `_unit_rows`.

numpy is the only dependency `import limitcone` loads.  scipy is imported by
the function that calls it, on first use: NNLS (`cone_distance` against more
rays than coordinates: `in_cone` in the hulls of 3-D or larger chambers) and
`ConvexHull` (the candidate rays of those hulls) here, `null_space` in
analytic certification (`proximality.analytic_contraction_bounds`).
"""

import itertools

import numpy as np

from .errors import DimensionMismatch, InvalidInput

# the cone layer's one resolution: of near rows, membership residuals and ranks
SLACK = 1e-9
# a subset of rays whose smallest singular value is at most this share of its
# largest is dependent: the face rule skips it, and the NNLS fit counts the
# rank of its rays by it (module docstring)
FACE_RANK_TOL = 1e-13


def chamber_basis(n: int) -> np.ndarray:
    """n x (n-1) orthonormal basis of the zero-sum hyperplane (Helmert)."""
    b = np.zeros((n, n - 1))
    for j in range(1, n):
        b[:j, j - 1] = 1.0
        b[j, j - 1] = -j
        b[:, j - 1] /= np.sqrt(j * (j + 1.0))
    return b


def cone_distance(v: np.ndarray, rays: np.ndarray):
    """Euclidean distance from v to the cone spanned by the rows of `rays`.

    `v` is one vector (a float is returned) or a stack of row vectors (one
    distance per row).  With at most as many rays as coordinates the distance
    is read over the cone's faces (`_face_distances`, the module docstring
    has the rule); with more, each vector is one NNLS fit.
    """
    v = np.asarray(v, dtype=float)
    r = np.atleast_2d(np.asarray(rays, dtype=float))
    rows = np.atleast_2d(v)
    if rows.shape[1] != r.shape[1]:
        raise DimensionMismatch(f"vectors of dimension {rows.shape[1]}, rays of {r.shape[1]}")
    if len(r) <= r.shape[1]:
        dist = _face_distances(rows, r)
    else:
        import scipy.optimize

        a, coords, off = _span_coordinates(rows, r)
        dist = np.hypot(off, [scipy.optimize.nnls(a, x)[1] for x in coords])
    return float(dist[0]) if v.ndim == 1 else dist


def _span_coordinates(v: np.ndarray, rays: np.ndarray) -> tuple:
    """(a, x, off): the rays as the columns of a and the rows of v as the rows
    of x, in an orthonormal basis of the rays' span, and each row's distance
    off the span.

    The span's dimension counts the rays' singular values above FACE_RANK_TOL
    times the largest.  Rays of full rank keep their coordinates, and off is
    0.  Otherwise the part of a row off the span is orthogonal to the whole
    cone, so its distance to the cone is the hypotenuse of off and the fit's
    residual in the span: NNLS on the rays as given can read a residual of 0
    for a point off their span.  Each row is mapped alone, so its bits do not
    depend on the rows stacked with it.  Zero rays span nothing; any one unit
    vector serves as their basis, fitted by their zero columns.
    """
    _, s, vt = np.linalg.svd(rays, full_matrices=False)
    rank = int(np.count_nonzero(s > FACE_RANK_TOL * s[0]))
    if rank == rays.shape[1]:
        return rays.T, v, np.zeros(len(v))
    basis = vt[: max(rank, 1)]
    x = np.array([basis @ row for row in v]).reshape(len(v), len(basis))
    off = np.array([np.linalg.norm(row - c @ basis) for row, c in zip(v, x)])
    return basis @ rays.T, x, off


def _face_distances(v: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """Distances from the rows of v to cone(rays), for len(rays) <= v.shape[1].

    The smallest of |v| and, over the independent subsets of the rays
    (smallest singular value above FACE_RANK_TOL times the largest), the
    least-squares residual of the fits whose coefficients are all >= 0 (the
    module docstring has the argument).  One `svd` per subset, of the rays
    alone, gives its least-squares map and an orthonormal basis of its span's
    complement; they are applied to the rows by elementwise arithmetic in a
    fixed order, so a row's bits do not depend on the rows stacked with it.
    """
    m, d = rays.shape
    best = _sum_of_squares(v)  # the empty subset: the apex
    for k in range(1, m + 1):
        maps = []  # per independent k-subset: k rows of its fit, d - k of its complement
        for subset in itertools.combinations(range(m), k):
            u, s, vt = np.linalg.svd(rays[list(subset)].T)
            if s[-1] > FACE_RANK_TOL * s[0]:
                maps.append(np.vstack([vt.T @ (u[:, :k].T / s[:, None]), u[:, k:].T]))
        if not maps:
            continue
        t = np.ascontiguousarray(np.transpose(maps, (2, 0, 1)))  # (column, subset, row)
        x = v[:, 0, None, None] * t[0]
        for j in range(1, d):
            x += v[:, j, None, None] * t[j]
        feasible = x[:, :, :k].min(axis=2) >= 0.0
        fits = np.where(feasible, _sum_of_squares(x[:, :, k:]), np.inf)
        best = np.minimum(best, fits.min(axis=1))
    return np.sqrt(best)


def _sum_of_squares(x: np.ndarray) -> np.ndarray:
    """Sum of squares along the last axis, added in index order (0 if empty)."""
    out = np.zeros(x.shape[:-1])
    for j in range(x.shape[-1]):
        out += x[..., j] * x[..., j]
    return out


def in_cone(v: np.ndarray, rays: np.ndarray, slack: float = SLACK) -> bool:
    """Membership of v in cone(rays): its distance (`cone_distance`) is at
    most slack * max(1, |v|).  The only comparison of a residual with a slack."""
    scale = max(1.0, float(np.linalg.norm(v)))
    return cone_distance(v, rays) <= slack * scale


def _unit_rows(rows) -> np.ndarray:
    """The rows as unit vectors; a non-finite entry or a zero row is refused.
    A nonzero row whose plain norm overflows, or is so small that its squares
    lose bits below the normal range, is first divided by its largest entry;
    the other rows keep their bits."""
    r = np.atleast_2d(np.asarray(rows, dtype=float))
    if not np.all(np.isfinite(r)):
        raise InvalidInput("rays must be finite")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(r, axis=1)
    odd = (np.isinf(norms) | (norms < np.sqrt(np.finfo(float).tiny))) & r.any(axis=1)
    if odd.any():
        r = r.copy()
        r[odd] /= np.abs(r[odd]).max(axis=1)[:, None]
        norms[odd] = np.linalg.norm(r[odd], axis=1)
    if np.any(norms == 0.0):
        raise InvalidInput("zero ray")
    return r / norms[:, None]


def _hull_candidates(u: np.ndarray) -> np.ndarray:
    """Indices of the rows that may be extreme rays of cone(u).

    Qhull's vertices of the rows' slice by c.x = 1, c the sum of the rows, and
    every row within SLACK of a vertex (see the module docstring).  All rows
    in a 1-D chart, when some height u.c is not positive (not a set of chamber
    directions) or when Qhull refuses the slice (rank below d, or too few
    rows).
    """
    from scipy.spatial import ConvexHull, QhullError

    c = u.sum(axis=0)
    heights = u @ c
    if u.shape[1] == 1 or np.any(heights <= 0.0):
        return np.arange(len(u))
    perp = np.linalg.svd(c[None, :])[2][1:]  # orthonormal rows spanning c-perp
    try:
        vertices = ConvexHull((u / heights[:, None]) @ perp.T).vertices
    except QhullError:
        return np.arange(len(u))
    near = np.zeros(len(u), dtype=bool)
    for v in vertices:
        near |= np.linalg.norm(u - u[v], axis=1) <= SLACK
    return np.flatnonzero(near)


def extreme_ray_indices(directions: np.ndarray) -> list[int]:
    """Indices of directions that are extreme rays of the spanned cone.

    `directions` has one direction per row, at any positive scale: the rows
    are read by `_unit_rows`.  A direction is extreme iff it is not a
    nonnegative combination of the others.  Unit rows within SLACK of each
    other are one ray: each row is tested (`in_cone`) against the rows
    farther than that only, and is extreme when there are none, so every
    near-duplicate of an extreme ray is reported.  In 3-D or larger charts
    only `_hull_candidates` are tested: a non-candidate is a nonnegative
    combination of its far rows, which the test would find too (the module
    docstring has the argument).  Planar angles are measured from row 0, so a
    cone straddling angle pi is read as one arc.
    """
    u = _unit_rows(directions)
    m = u.shape[0]
    if m == 1:
        return [0]
    if u.shape[1] == 2:
        # planar cone: extreme rays are the angular endpoints.  Any arc holding
        # every row holds row 0, so the spread from it is the narrowest arc's.
        ang = np.arctan2(u[0, 0] * u[:, 1] - u[0, 1] * u[:, 0], u @ u[0])
        spread = ang.max() - ang.min()
        if spread > np.pi:
            raise InvalidInput("planar direction set spans more than a half-plane")
        lo, hi = int(np.argmin(ang)), int(np.argmax(ang))
        return [lo] if lo == hi else sorted({lo, hi})
    out = []
    for i in _hull_candidates(u):
        far = np.linalg.norm(u - u[i], axis=1) > SLACK
        if not far.any() or not in_cone(u[i], u[far]):
            out.append(int(i))
    return out
