"""Convex-cone geometry in the zero-sum chamber coordinates.

The Weyl chamber of SL(n,R) lives in the (n-1)-dimensional zero-sum hyperplane
of R^n; we fix the Helmert basis as a deterministic orthonormal chart.  Cones
are given by finitely many spanning rays; membership is a nonnegative
least-squares fit and the distance to a cone is the corresponding residual.

numpy is the only dependency `import limitcone` loads.  scipy is imported by
the function that calls it, on first use: NNLS (`cone_distance`: the forge
report, `in_cone`, hulls of 3-D or larger chambers) and `ConvexHull`
(`facet_normals`) here, `null_space` in analytic certification
(`proximality.analytic_contraction_bounds`).
"""

import numpy as np

from .errors import InvalidInput


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


def in_cone(v: np.ndarray, rays: np.ndarray, slack: float = 1e-9) -> bool:
    """Membership of v in cone(rays) up to an absolute residual `slack`."""
    scale = max(1.0, float(np.linalg.norm(v)))
    return cone_distance(v, rays) <= slack * scale


def facet_normals(rays: np.ndarray) -> np.ndarray:
    """Inward unit normals of the facets of a full-dimensional cone.

    `rays` has one ray per row, in d-dimensional coordinates.  For d = 1 the
    single normal is the ray direction.  Degenerate (lower-dimensional) cones
    are rejected.
    """
    r = np.atleast_2d(np.asarray(rays, dtype=float))
    d = r.shape[1]
    norms = np.linalg.norm(r, axis=1)
    if np.any(norms == 0.0):
        raise InvalidInput("zero ray")
    u = r / norms[:, None]
    if d == 1:
        if np.any(u[:, 0] * u[0, 0] < 0):
            raise InvalidInput("rays of a 1-d cone must share a direction")
        return u[:1]
    if np.linalg.matrix_rank(u, tol=1e-9) < d:
        raise InvalidInput("cone is not full-dimensional in its ambient space")
    from scipy.spatial import ConvexHull

    pts = np.vstack([np.zeros((1, d)), u])
    hull = ConvexHull(pts)
    normals = []
    for eq in hull.equations:
        a, b = eq[:-1], eq[-1]
        if abs(b) <= 1e-9:  # facet hyperplane through the origin
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


def extreme_ray_indices(directions: np.ndarray) -> list[int]:
    """Indices of directions that are extreme rays of the spanned cone.

    `directions` has one unit vector per row.  A direction is extreme iff it is
    not a nonnegative combination of the others.  Rows within 1e-9 of each
    other are one ray: each row is tested against the rows farther than that
    only, and is extreme when there are none, so every near-duplicate of an
    extreme ray is reported.
    """
    u = np.atleast_2d(np.asarray(directions, dtype=float))
    m = u.shape[0]
    if m == 1:
        return [0]
    if u.shape[1] == 2:
        # planar cone: extreme rays are the angular endpoints
        ang = np.arctan2(u[:, 1], u[:, 0])
        spread = ang.max() - ang.min()
        if spread > np.pi:
            raise InvalidInput("planar direction set spans more than a half-plane")
        lo, hi = int(np.argmin(ang)), int(np.argmax(ang))
        return [lo] if lo == hi else sorted({lo, hi})
    out = []
    for i in range(m):
        far = np.linalg.norm(u - u[i], axis=1) > 1e-9
        if not far.any() or cone_distance(u[i], u[far]) > 1e-9:
            out.append(i)
    return out
