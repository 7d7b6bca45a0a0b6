"""Proximality detection and epsilon-proximality certification on P(Lambda^k R^n).

A proximal matrix has a unique simple eigenvalue of maximal modulus; it acts on
projective space with an attracting line x+ and a repelling invariant
hyperplane X<.  Certification checks the quantified conditions: separation
gap(x+, X<) >= 2*eps, the image of B^eps = {x : gap(x, X<) >= eps} lies in the
eps-ball around x+, and the restricted projective action is eps-Lipschitz.

`contraction_check` decides the contraction conditions against a (point,
hyperplane) pair: certification passes the element's own, open-semigroup
membership (`schottky.in_open_semigroup`) a frame's.

Two certification modes:

* ``analytic``: conservative closed-form bounds in the splitting R*v+ (+) ker(phi).
  Writing alpha for the top eigenvalue and A for the restriction of the matrix
  to ker(phi) (an invariant subspace), every unit x in B^eps decomposes as
  t*v+ + w with |t| >= eps/gamma and ||w|| <= 1 + 1/gamma, gamma the separation
  gap.  This yields a lower bound m_low on ||Mx||, an image-radius bound
  sqrt(2)*||A||*(1 + 1/gamma)/m_low via the sine metric, and a Lipschitz bound
  sqrt(2)*sigma1(M)*sigma2(M)/m_low**2 (the two top singular values control the
  sine-metric distortion through the second compound).  Against another pair
  the slab shrinks by the hyperplanes' distance and the radius grows by the
  points'.  A pass is a proof up to floating point; a failure is inconclusive
  unless the attracting point lies in B^eps outside the target ball.
* ``sampled``: seeded Monte Carlo over B^eps point pairs; a violation refutes,
  a clean run records the observed maxima as evidence.
"""

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    CertificationFailure,
    ContractionUnverified,
    InvalidInput,
    NotProximal,
    NumericalFailure,
    SeparationViolated,
)
from .projgeom import (
    GroupElement,
    ProjectiveHyperplane,
    ProjectivePoint,
    Representation,
    chordal_distances,
    exterior_power,
    gap,
    proj_distance,
)

EIGEN_GAP_TOL = 1e-10
DEFAULT_SAMPLE_COUNT = 10_000
# the ascending-modulus ranks of the dominant eigenvalue, forward then
# backward, and of the runner-up, forward then backward
_SIDE_COLUMNS = np.array([-1, 0, -2, 1])

# Empirical per-letter slack for composed-product eigenvalue intervals; the
# sharp constants are existential, this one is validated corpus-wide by the
# test suite.
def _letter_constant(epsilon: float) -> float:
    return 8.0 / epsilon**2


@dataclass(frozen=True)
class ProximalityCertificate:
    rep: Representation
    epsilon: float
    attracting: ProjectivePoint
    repelling: ProjectiveHyperplane
    top_modulus: float
    gap_value: float
    lipschitz_bound: float
    norm_ratio: float  # lambda_1 / ||M||, the Lemma-2.2.1 monitor
    mode: str  # "analytic" | "sampled"
    sample_count: int


@dataclass(frozen=True)
class ComposedProximality:
    """Outcome of composing certificates along a cyclically separated word."""

    epsilon: float
    log_center: float
    log_lower: float
    log_upper: float


class Splitting(NamedTuple):
    """One dominant eigenvalue per matrix of an (N, d, d) stack, with its splitting."""

    eigenvalue: np.ndarray  # (N,) the dominant eigenvalue
    top: np.ndarray  # (N,) its modulus
    second: np.ndarray  # (N,) the runner-up modulus
    vectors: np.ndarray  # (N, d) the real part of its eigenvector
    proximal: np.ndarray  # (N,) bool: whether the eigenvalue is real and simply dominant


def _eig(stack: np.ndarray):
    try:
        return np.linalg.eig(stack)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"eigenvalue computation failed: {e}") from e


def eigen_splittings(stack: np.ndarray) -> tuple:
    """(forward, backward) Splittings of an (N, d, d) stack, from one batched `eig`.

    Backward, the dominant eigenvalue is the inverse's: `top` and `second` are
    the bottom two moduli.  A row is proximal when its dominant modulus is
    nonzero, its relative gap to the runner-up at least EIGEN_GAP_TOL and the
    eigenvalue real; its vector then spans the attracting line.
    """
    vals, vecs = _eig(stack)
    mod = np.abs(vals)
    rows = np.arange(stack.shape[0])
    # (2, N) column indices, row 0 for the forward side and row 1 backward
    i, j = np.argsort(mod, axis=1)[:, _SIDE_COLUMNS].T.reshape(2, 2, -1)
    alpha, top, second = vals[rows, i], mod[rows, i], mod[rows, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        simple = np.abs(top - second) / np.maximum(top, second) >= EIGEN_GAP_TOL
    proximal = (top > 0.0) & simple & (np.abs(alpha.imag) <= EIGEN_GAP_TOL * top)
    return tuple(map(Splitting, alpha, top, second, np.real(vecs[rows, :, i]), proximal))


def repelling_covectors(stack: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Per matrix of an (N, d, d) stack, the real left eigenvector of the
    eigenvalue nearest `eigenvalues[row]`: of a forward Splitting's, the
    repelling hyperplane.  One batched `eig` of the transposed stack."""
    vals, vecs = _eig(stack.transpose(0, 2, 1))
    nearest = np.argmin(np.abs(vals - eigenvalues[:, None]), axis=1)
    return np.real(vecs[np.arange(vals.shape[0]), :, nearest])


def top_eigendata(m: np.ndarray):
    """(top modulus, attracting point, repelling hyperplane) of an invertible matrix.

    Raises NotProximal unless the dominant eigenvalue modulus is simple and
    strictly dominant (relative gap >= 1e-10) and real: `eigen_splittings`
    of a stack of one.
    """
    stack = np.asarray(m, dtype=float)[None]
    forward, _ = eigen_splittings(stack)
    top, second = forward.top[0], forward.second[0]
    if top <= 0.0:
        raise NumericalFailure("vanishing top eigenvalue modulus")
    if not forward.proximal[0]:
        if (top - second) / top < EIGEN_GAP_TOL:
            raise NotProximal(
                f"dominant modulus {top} is not simple (runner-up {second})"
            )
        raise NotProximal("dominant eigenvalue is not real")
    phi = repelling_covectors(stack, forward.eigenvalue)[0]
    return (
        float(top),
        ProjectivePoint.from_vector(forward.vectors[0]),
        ProjectiveHyperplane.from_covector(phi),
    )


def _instance_rng(seed: int, m: np.ndarray) -> np.random.Generator:
    digest = hashlib.blake2b(
        np.ascontiguousarray(m, dtype=float).tobytes(), digest_size=8
    ).digest()
    return np.random.default_rng((int(seed), int.from_bytes(digest, "little")))


def _sample_bset(rng, phi: np.ndarray, epsilon: float, count: int) -> np.ndarray:
    """Unit vectors x with |<phi, x>| >= epsilon, as columns; phi is unit."""
    d = phi.shape[0]
    t = rng.uniform(epsilon, 1.0, size=count) * rng.choice([-1.0, 1.0], size=count)
    w = rng.standard_normal((d, count))
    w -= np.outer(phi, phi @ w)
    wn = np.linalg.norm(w, axis=0)
    wn[wn == 0.0] = 1.0
    w /= wn
    return phi[:, None] * t + w * np.sqrt(np.maximum(0.0, 1.0 - t**2))


def _normalize_cols(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=0)
    if np.any(n == 0.0):
        raise NumericalFailure("image of a unit vector vanished")
    return m / n


def sampled_contraction_check(
    m: np.ndarray,
    target: ProjectivePoint,
    repelling: ProjectiveHyperplane,
    epsilon: float,
    sample_count: int,
    seed: int,
):
    """Monte Carlo falsifier for image containment, plus observed expansion.

    Returns (max_image_distance, max_expansion_ratio) over sample_count points
    and sample_count independent point pairs of B^eps.  Deterministic given
    (seed, matrix contents).
    """
    if sample_count < 1:
        raise InvalidInput(f"sample_count must be >= 1, got {sample_count}")
    rng = _instance_rng(seed, m)
    phi = repelling.covector
    p = target.rep

    x = _sample_bset(rng, phi, epsilon, sample_count)
    y = _normalize_cols(m @ x)
    max_image = float(chordal_distances(y, p[:, None]).max())

    a = _sample_bset(rng, phi, epsilon, sample_count)
    b = _sample_bset(rng, phi, epsilon, sample_count)
    d_in = chordal_distances(a, b)
    ok = d_in > 1e-12
    d_out = chordal_distances(_normalize_cols(m @ a[:, ok]), _normalize_cols(m @ b[:, ok]))
    max_ratio = float((d_out / d_in[ok]).max()) if ok.any() else 0.0
    return max_image, max_ratio


def analytic_contraction_bounds(m: np.ndarray, eigendata, epsilon: float):
    """Conservative (image_radius, lipschitz) bounds for the eigen-adapted B^eps.

    `eigendata` is `top_eigendata(m)`.  Returns (image_radius, lipschitz, gap).
    Either bound may be inf when the splitting estimate degenerates.
    """
    alpha, attracting, repelling = eigendata
    v = attracting.rep
    phi = repelling.covector
    gamma = abs(float(phi @ v))
    if gamma <= 0.0:
        raise NumericalFailure("degenerate eigen-splitting")
    kernel = scipy.linalg.null_space(phi[None, :])
    a_mat = kernel.T @ m @ kernel
    norm_a = float(np.linalg.norm(a_mat, 2))
    s = np.linalg.svd(m, compute_uv=False)
    m_low = alpha * (epsilon / gamma) - norm_a * (1.0 + 1.0 / gamma)
    if m_low <= 0.0:
        return np.inf, np.inf, gamma
    radius_sin = norm_a * (1.0 + 1.0 / gamma) / m_low
    image_radius = np.sqrt(2.0) * radius_sin if radius_sin <= 2 ** -0.5 else np.inf
    lipschitz = np.sqrt(2.0) * s[0] * s[1] / m_low**2
    return float(image_radius), float(lipschitz), gamma


def contraction_check(m, eigendata, target, repelling, epsilon, mode, sample_count, seed):
    """Decide that m maps B^eps = {x : gap(x, repelling) >= eps} into the
    eps-ball around `target`, eps-Lipschitz; `eigendata` is `top_eigendata(m)`.

    Returns (image distance, Lipschitz): observed maxima when sampled, bounds
    when analytic.  Raises ContractionUnverified, refuted with its witness or
    inconclusive.
    """
    if mode == "sampled":
        image, expansion = sampled_contraction_check(
            m, target, repelling, epsilon, sample_count, seed
        )
        if image > epsilon:
            raise ContractionUnverified(
                f"sampled image point at distance {image} > epsilon {epsilon}",
                refuted=True, image_distance=image, expansion=expansion,
            )
        return image, expansion
    if mode != "analytic":
        raise InvalidInput(f"unknown mode {mode!r}")
    # offset the element's own splitting to the given pair (by exactly 0.0 for its own)
    _, attracting, own_repelling = eigendata
    e_point = proj_distance(attracting, target)
    if gap(attracting, repelling) >= epsilon and e_point > epsilon:
        # the attracting point lies in B^eps outside the target ball: a witness
        raise ContractionUnverified(
            f"attracting point at distance {e_point} > epsilon {epsilon}",
            refuted=True, image_distance=e_point,
        )
    e_hyp = float(chordal_distances(own_repelling.covector, repelling.covector))
    eps_inner = epsilon - e_hyp
    if eps_inner <= 0.0:
        raise ContractionUnverified(
            f"analytic slab comparison degenerate (hyperplane offset {e_hyp} >= epsilon)"
        )
    image_radius, lipschitz, _ = analytic_contraction_bounds(m, eigendata, eps_inner)
    image = image_radius + e_point
    if image > epsilon or lipschitz > epsilon:
        raise ContractionUnverified(
            f"analytic bounds inconclusive: image radius {image}, "
            f"Lipschitz {lipschitz} vs epsilon {epsilon}"
        )
    return image, lipschitz


def certify_eps_proximal(
    g: GroupElement,
    k: int,
    epsilon: float,
    mode: str = "sampled",
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> ProximalityCertificate:
    """Certify that Lambda^k g is epsilon-proximal on P(Lambda^k R^n)."""
    m = exterior_power(g, k)
    return certify_matrix_eps_proximal(
        m, Representation(n=g.n, k=k), epsilon, mode, sample_count, seed
    )


def certify_matrix_eps_proximal(
    m: np.ndarray,
    rep: Representation,
    epsilon: float,
    mode: str = "sampled",
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> ProximalityCertificate:
    """Certify that m, a Lambda^k g in `rep`, is epsilon-proximal on P(Lambda^k R^n).

    Every epsilon-proximality decision of the library is made here, its
    contraction conditions by `contraction_check` against the element's own
    pair.  Raises a CertificationFailure naming the first condition that failed.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidInput(f"epsilon must be in (0, 1), got {epsilon}")
    if mode not in ("analytic", "sampled"):
        raise InvalidInput(f"unknown mode {mode!r}")
    top, attracting, repelling = eigendata = top_eigendata(m)
    gap_value = gap(attracting, repelling)
    if gap_value < 2.0 * epsilon:
        raise SeparationViolated(
            f"gap {gap_value} < 2*epsilon = {2.0 * epsilon}"
        )
    # sampled, the observed pairwise expansion is recorded as evidence; it is
    # not a certification gate (the analytic mode bounds the Lipschitz constant)
    _, lipschitz = contraction_check(
        m, eigendata, attracting, repelling, epsilon, mode, sample_count, seed
    )
    return ProximalityCertificate(
        rep=rep,
        epsilon=epsilon,
        attracting=attracting,
        repelling=repelling,
        top_modulus=top,
        gap_value=gap_value,
        lipschitz_bound=lipschitz,
        norm_ratio=top / float(np.linalg.norm(m, 2)),
        mode=mode,
        sample_count=0 if mode == "analytic" else sample_count,
    )


def certify_degrees(
    matrices,
    n: int,
    epsilon: float,
    mode: str = "sampled",
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> list[ProximalityCertificate]:
    """One certificate per (k, Lambda^k matrix) pair of an element of SL(n).

    The pairs are consumed lazily, so a failing degree stops before the next
    matrix is built.  A failure's message gains the prefix "degree k: ".
    """
    certs = []
    for k, m in matrices:
        rep = Representation(n=n, k=k)
        try:
            certs.append(certify_matrix_eps_proximal(m, rep, epsilon, mode, sample_count, seed))
        except CertificationFailure as e:
            e.args = (f"degree {k}: {e.args[0]}",) + e.args[1:]
            raise
    return certs


def certify_theta_proximal(
    g: GroupElement,
    degrees,
    epsilon: float,
    mode: str = "sampled",
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> list[ProximalityCertificate]:
    """One certificate per exterior degree; fails on the first failing degree."""
    matrices = ((k, exterior_power(g, k)) for k in sorted(degrees))
    return certify_degrees(matrices, g.n, epsilon, mode, sample_count, seed)


def compose_certificates(certs, powers) -> ComposedProximality:
    """Proximality of g_l^{n_l} ... g_1^{n_1} from per-letter certificates.

    Requires cyclic separation gap(x+_{j-1}, X<_j) >= 6*max(eps_{j-1}, eps_j)
    with index 0 identified with l.  The predicted top-eigenvalue interval is
    centered at the product of the per-letter top moduli (in log scale) with an
    empirical per-letter slack; a single letter is exact by homogeneity.
    """
    certs = list(certs)
    powers = list(powers)
    if not certs or len(certs) != len(powers):
        raise InvalidInput("need one positive power per certificate")
    if any(p < 1 for p in powers):
        raise InvalidInput("powers must be >= 1")
    l = len(certs)
    for j in range(l):
        prev, cur = certs[j - 1], certs[j]
        need = 6.0 * max(prev.epsilon, cur.epsilon)
        got = gap(prev.attracting, cur.repelling)
        if got < need:
            raise SeparationViolated(
                f"gap(x+_{(j - 1) % l}, X<_{j}) = {got} < {need}",
                pair=((j - 1) % l, j),
            )
    eps_out = 2.0 * max(certs[0].epsilon, certs[-1].epsilon)
    log_center = float(
        sum(n * np.log(c.top_modulus) for n, c in zip(powers, certs))
    )
    log_slack = 0.0 if l == 1 else float(
        sum(np.log(_letter_constant(c.epsilon)) for c in certs)
    )
    return ComposedProximality(
        epsilon=eps_out,
        log_center=log_center,
        log_lower=log_center - log_slack,
        log_upper=log_center + log_slack,
    )
