"""Convex-cone geometry in the zero-sum chamber coordinates.

The Weyl chamber of SL(n,R) lives in the (n-1)-dimensional zero-sum hyperplane
of R^n; we fix the Helmert basis as a deterministic orthonormal chart.  Cones
are given by finitely many spanning rays; membership is a nonnegative
least-squares fit and the distance to a cone is the corresponding residual.

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
the function that calls it, on first use: NNLS (`cone_distance`: the forge
report, `in_cone`, hulls of 3-D or larger chambers) and `ConvexHull`
(`facet_normals`, and the candidate rays of those hulls) here, `null_space`
in analytic certification (`proximality.analytic_contraction_bounds`).
"""

import numpy as np

from .errors import InvalidInput

# the cone layer's one resolution: of near rows, membership residuals, ranks
# and facet offsets
SLACK = 1e-9


def chamber_basis(n: int) -> np.ndarray:
    """n x (n-1) orthonormal basis of the zero-sum hyperplane (Helmert)."""
    b = np.zeros((n, n - 1))
    for j in range(1, n):
        b[:j, j - 1] = 1.0
        b[j, j - 1] = -j
        b[:, j - 1] /= np.sqrt(j * (j + 1.0))
    return b


def cone_distance(v: np.ndarray, rays: np.ndarray) -> float:
    """Euclidean distance from v to the cone spanned by the rows of `rays`."""
    import scipy.optimize

    v = np.asarray(v, dtype=float)
    r = np.atleast_2d(np.asarray(rays, dtype=float))
    _, residual = scipy.optimize.nnls(r.T, v)
    return float(residual)


def in_cone(v: np.ndarray, rays: np.ndarray, slack: float = SLACK) -> bool:
    """Membership of v in cone(rays): the NNLS residual is at most
    slack * max(1, |v|).  The only comparison of a residual with a slack."""
    scale = max(1.0, float(np.linalg.norm(v)))
    return cone_distance(v, rays) <= slack * scale


def _unit_rows(rows) -> np.ndarray:
    """The rows as unit vectors; a non-finite entry or a zero row is refused."""
    r = np.atleast_2d(np.asarray(rows, dtype=float))
    norms = np.linalg.norm(r, axis=1)
    if not np.all(np.isfinite(norms)):
        raise InvalidInput("rays must be finite, with a finite norm")
    if np.any(norms == 0.0):
        raise InvalidInput("zero ray")
    return r / norms[:, None]


def facet_normals(rays: np.ndarray) -> np.ndarray:
    """Inward unit normals of the facets of a full-dimensional cone.

    `rays` has one ray per row, in d-dimensional coordinates, read by
    `_unit_rows`.  For d = 1 the single normal is the ray direction.
    Degenerate (lower-dimensional) cones are rejected.
    """
    u = _unit_rows(rays)
    d = u.shape[1]
    if d == 1:
        if np.any(u[:, 0] * u[0, 0] < 0):
            raise InvalidInput("rays of a 1-d cone must share a direction")
        return u[:1]
    if np.linalg.matrix_rank(u, tol=SLACK) < d:
        raise InvalidInput("cone is not full-dimensional in its ambient space")
    from scipy.spatial import ConvexHull

    pts = np.vstack([np.zeros((1, d)), u])
    hull = ConvexHull(pts)
    normals = []
    for eq in hull.equations:
        a, b = eq[:-1], eq[-1]
        if abs(b) <= SLACK:  # facet hyperplane through the origin
            normals.append(-a / np.linalg.norm(a))
    if not normals:
        raise InvalidInput("cone has no facet through the origin (not salient?)")
    return np.unique(np.round(np.array(normals), 12), axis=0)


def margin_distance(v: np.ndarray, rays: np.ndarray) -> float:
    """Distance from v to the cone boundary, relative to ||v||; negative outside."""
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return 0.0
    normals = facet_normals(rays)
    return float(np.min(normals @ v) / nv)


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
