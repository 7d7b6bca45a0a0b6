"""Proximality detection and epsilon-proximality certification on P(Lambda^k R^n).

A proximal matrix has a unique simple eigenvalue of maximal modulus; it acts on
projective space with an attracting line x+ and a repelling invariant
hyperplane X<.  Certification checks the quantified conditions: separation
gap(x+, X<) >= 2*eps, the image of B^eps = {x : gap(x, X<) >= eps} lies in the
eps-ball around x+, and the restricted projective action is eps-Lipschitz.

`contraction_check` decides the contraction conditions against a (point,
hyperplane) pair: certification passes the element's own, open-semigroup
membership (`schottky.in_open_semigroup`) a frame's.

A factored element q diag(exp(s r)) q^T (`GroupElement.from_factors`, every
forged letter) asked for in ``sampled`` mode, the default, is certified in
``exact`` mode instead: its Lambda^k is symmetric with a known spectrum, so
x+ is a column of compound_matrix(q, k), X< is its orthogonal complement
(gap 1), and the image supremum over B^eps has a closed form
(`exact_image_distance`) in the ratio b/a of the two top eigenvalues.  An
exact pass proves the separation and image conditions up to floating point;
an exact failure is a refutation whose witness is the worst point of B^eps.
Like sampled mode, exact mode does not prove the Lipschitz condition; unlike
it, the certificate records a value: the projective stretch in the plane of
the two top eigenvectors at the slab's edge, a lower bound on the Lipschitz
constant, not gated on.  In ``analytic`` mode, which gates on a Lipschitz
bound, a factored element is certified like any other matrix.

Two certification modes for any matrix (`certify_matrix_eps_proximal`):

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
* ``sampled``: seeded Monte Carlo over one sample of B^eps.  It falsifies
  the image condition only: a sampled image point beyond eps refutes, a
  clean run records the observed image maximum as evidence.  The Lipschitz
  condition is left unchecked, and the certificate records no Lipschitz
  value (`lipschitz_bound` None).

Every public certification entry, here and in `schottky`, first refuses a bad
request (epsilon, mode, sample count, seed) by one rule, `check_request`.
"""

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import (
    CertificationFailure,
    ContractionUnverified,
    InvalidInput,
    NotProximal,
    NumericalFailure,
    SeparationViolated,
    as_index,
    check_seed,
)
from .projgeom import (
    GroupElement,
    ProjectiveHyperplane,
    ProjectivePoint,
    Representation,
    chordal_distances,
    exterior_logs,
    exterior_power,
    gap,
    rotation_compound,
)

EIGEN_GAP_TOL = 1e-10
# the Schottky condition separates certified letters by this multiple of epsilon
SEPARATION_FACTOR = 6.0
# the modes a caller may request; exact mode is the certifier's own choice
MODES = ("analytic", "sampled")
DEFAULT_SAMPLE_COUNT = 10_000

# Empirical per-letter slack for composed-product eigenvalue intervals; the
# sharp constants are existential, this one is validated corpus-wide by the
# test suite.
def _letter_constant(epsilon: float) -> float:
    return 8.0 / epsilon**2


def check_request(epsilon: float, mode: str, sample_count: int, seed: int) -> None:
    """Refuse with InvalidInput, before any work, unless epsilon is in (0, 1), mode
    in MODES, sample_count an integer >= 1 when sampling (analytic takes none) and
    seed an integer >= 0."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidInput(f"epsilon must be in (0, 1), got {epsilon}")
    if mode not in MODES:
        raise InvalidInput(f"unknown mode {mode!r}")
    if mode == "sampled" and as_index(sample_count, "sample_count") < 1:
        raise InvalidInput(f"sample_count must be >= 1, got {sample_count}")
    check_seed(seed)


@dataclass(frozen=True)
class ProximalityCertificate:
    rep: Representation
    epsilon: float
    attracting: ProjectivePoint
    repelling: ProjectiveHyperplane
    top_modulus: float
    gap_value: float
    lipschitz_bound: float | None  # None when sampled: that mode leaves it unchecked
    norm_ratio: float  # lambda_1 / ||M||, the Lemma-2.2.1 monitor
    mode: str  # "exact" | "analytic" | "sampled"
    sample_count: int


@dataclass(frozen=True)
class ComposedProximality:
    """Outcome of composing certificates along a cyclically separated word."""

    epsilon: float
    log_center: float
    log_lower: float
    log_upper: float


class Splitting(NamedTuple):
    """The dominant eigenvalue's splitting, per matrix of an (N, d, d) stack."""

    top: np.ndarray  # (N,) its modulus
    second: np.ndarray  # (N,) the runner-up modulus
    vectors: np.ndarray  # (N, d) the real part of its eigenvector
    proximal: np.ndarray  # (N,) bool: whether the eigenvalue is nonzero and simply dominant


def eigen_splittings(stack: np.ndarray) -> Splitting:
    """The dominant Splitting of an (N, d, d) stack, from one batched `eig`.

    A row is proximal when its dominant modulus is nonzero and its relative
    gap to the runner-up at least EIGEN_GAP_TOL, and its vector then spans
    the attracting line.  Of a real matrix, that eigenvalue is real: `eig`
    gives a complex one with its conjugate, of bit-equal modulus.  Of the
    transposed stack, the vector is the left eigenvector, the covector of the
    repelling hyperplane, and the moduli are the stack's own.
    """
    try:
        vals, vecs = np.linalg.eig(stack)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"eigenvalue computation failed: {e}") from e
    mod = np.abs(vals)
    rows = np.arange(stack.shape[0])
    i, j = np.argsort(mod, axis=1)[:, [-1, -2]].T
    top, second = mod[rows, i], mod[rows, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        simple = (top - second) / top >= EIGEN_GAP_TOL
    proximal = (top > 0.0) & simple
    return Splitting(top, second, np.real(vecs[rows, :, i]), proximal)


def top_eigendata(m: np.ndarray):
    """(top modulus, attracting point, repelling hyperplane) of an invertible matrix.

    Raises NotProximal unless the dominant eigenvalue modulus is simple and
    strictly dominant (relative gap >= 1e-10), and so real: the proximal mask
    of `eigen_splittings` of a stack of one.
    """
    stack = np.asarray(m, dtype=float)[None]
    forward = eigen_splittings(stack)
    top, second = forward.top[0], forward.second[0]
    if top <= 0.0:
        raise NumericalFailure("vanishing top eigenvalue modulus")
    if not forward.proximal[0]:
        raise NotProximal(f"dominant modulus {top} is not simple (runner-up {second})")
    # the transpose's dominant vector: its modulus is simple, as the stack's is
    phi = eigen_splittings(stack.transpose(0, 2, 1)).vectors[0]
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


def _column_norms(m: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each column, the bits of np.linalg.norm(m, axis=0)."""
    return np.sqrt(np.add.reduce(m * m, axis=0))


def _sample_bset(rng, phi: np.ndarray, epsilon: float, count: int) -> np.ndarray:
    """Unit vectors x with |<phi, x>| >= epsilon, as columns; phi is unit."""
    d = phi.shape[0]
    t = rng.uniform(epsilon, 1.0, size=count)
    # the draws of rng.choice([-1.0, 1.0], size=count), without its copies; t > 0
    np.copysign(t, rng.integers(0, 2, size=count) - 0.5, out=t)
    w = rng.standard_normal((d, count))
    p = phi @ w
    for row, c in zip(w, phi):
        row -= c * p
    del p
    wn = _column_norms(w)
    wn[wn == 0.0] = 1.0
    w /= wn
    # w * sqrt(max(0, 1 - t^2)) + phi t, in place: wn becomes the scale
    np.multiply(t, t, out=wn)
    np.subtract(1.0, wn, out=wn)
    np.maximum(wn, 0.0, out=wn)
    w *= np.sqrt(wn, out=wn)
    for row, c in zip(w, phi):
        row += c * t
    return w


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """The sum of the rows of a (d, k) array, row after row: the order in
    which numpy reduces a wide array over axis 0, at every k.  numpy sums a
    gathered column or two in another order, which moves last bits from d = 8 on."""
    total = a[0].copy()
    for row in a[1:]:
        total += row
    return total


def _image_distances(cols: np.ndarray, point: np.ndarray, sum_rows) -> np.ndarray:
    """The chordal distance from the unit column `point` of the normalised
    columns of `cols`: the formula of `projgeom.chordal_distances`, its row
    sums taken by `sum_rows`.  Raises NumericalFailure on a vanishing column."""
    norms = np.sqrt(sum_rows(cols * cols))
    if np.any(norms == 0.0):
        raise NumericalFailure("image of a unit vector vanished")
    units = cols / norms
    diff, total = units - point, units + point
    diff *= diff
    total *= total
    return np.sqrt(np.minimum(sum_rows(diff), sum_rows(total)))


# a column whose squared norm lies outside this range may overflow, underflow
# or vanish in some summation order: it is always recomputed exactly
_TAME_SQUARES = (2.0**-900, 2.0**900)


def _sine_squares(y: np.ndarray, point: np.ndarray) -> tuple:
    """(s2, tame): per column of y, |H'y|^2 / |y|^2, the sine squared of its
    angle to the line of the unit vector `point`, and whether its squared
    norm is in _TAME_SQUARES; s2 is 0 where it is not.  H' is the rows but
    the first of the Householder reflection that sends `point` to -+e1, an
    orthonormal basis of point-perp."""
    d = point.shape[0]
    v = point.copy()
    v[0] += np.copysign(np.linalg.norm(point), point[0])
    basis = (-2.0 / (v @ v)) * np.outer(v[1:], v)
    basis[:, 1:] += np.eye(d - 1)
    z = basis @ y
    s2 = np.einsum("ij,ij->j", z, z)
    del z
    yy = np.einsum("ij,ij->j", y, y)
    tame = (yy >= _TAME_SQUARES[0]) & (yy <= _TAME_SQUARES[1])
    with np.errstate(all="ignore"):
        s2 /= yy
    s2[~tame] = 0.0
    return s2, tame


def _image_candidates(y: np.ndarray, point: np.ndarray) -> np.ndarray:
    """The indices of the columns of y that `sampled_contraction_check`
    recomputes exactly: those outside _TAME_SQUARES and those whose sine
    (`_sine_squares`) is within the margin of the largest.  The proof that
    they hold the exact maximum is in `sampled_contraction_check`."""
    s2, tame = _sine_squares(y, point)
    d = point.shape[0]
    unit = np.finfo(float).eps / 2.0
    # 4(A + B) of the proof, rounded up
    margin = 4.0 * ((d**1.5 + 8.0 * d + 27.0) * unit + abs(np.linalg.norm(point) - 1.0))
    floor = max(float(np.sqrt(s2.max())) - margin, 0.0)
    return np.flatnonzero((s2 >= floor * floor) | ~tame)


def sampled_contraction_check(
    m: np.ndarray,
    target: ProjectivePoint,
    repelling: ProjectiveHyperplane,
    epsilon: float,
    sample_count: int,
    seed: int,
) -> float:
    """Monte Carlo falsifier for image containment, and nothing else.

    Returns the largest chordal distance from `target` of the normalised
    image of one sample of sample_count points of B^eps.  It does not test
    the Lipschitz condition.  Deterministic given (seed, matrix contents).

    The maximum is that of `_image_distances` (the column's norm, then the
    sign-minimised chordal distance) over every column y of the image, bit
    for bit, but that formula runs only on the few columns that
    `_image_candidates` selects by one cheaper pass: s2 = |z|^2 / |y|^2 with
    z = H'y, H' an orthonormal basis of target-perp, the sine squared of the
    angle between y and the target's line, free of cancellation however
    small the angle.  A cosine proxy is not: when the image lies within
    about 1e-7 of the target, every column ties at cos^2 = 1 to rounding.

    Why the exact maximum is among the candidates.  Let u be the unit
    roundoff, d the dimension, p = target.rep, and for a column y (of the
    computed image: both passes read the same y) let theta be the angle
    between the lines of y and p, c = 2 sin(theta/2) its true chordal
    distance and t = sin(theta).  Let e be the formula's value and
    sigma = sqrt(s2).  In a column whose squared norm is in _TAME_SQUARES
    no square overflows, and an underflowing one moves e or sigma by less
    than sqrt(d) 2^-87, far below u.  Standard error bounds then give
      |e - c| <= A = (1.5d + 6)u + |(|p| - 1)|: the norm's sum, its square
        root and the division put y/|y| within (d/2 + 2)u of the unit
        vector, the differences with p add 2u in norm, the two sums and the
        square root (d + 2)u, and |p| may differ from 1;
      |sigma - t| <= B = (d^1.5 + 6d + 19)u: the computed H' lies within
        (5d + 18)u of an exactly orthonormal basis of p-perp (the Householder
        vector and its scale carry relative errors of (d/2 + 2)u and
        (d + 3)u), the product z is within sqrt(d - 1) gamma_d |y| of H'y,
        and the two sums and the quotient add du after the square root.
    Let j maximise e and k maximise sigma.  Then c_j >= e_j - A >= e_k - A
    >= c_k - 2A, and t = c sqrt(1 - c^2/4) is increasing and 1-Lipschitz in
    c on [0, sqrt 2], so t_j >= t_k - 2A and sigma_j >= sigma_k - 2(A + B).
    The margin below the largest sigma is twice that, 4(A + B), which covers
    the rounding of the threshold (sigma_k - margin)^2 itself.  A column
    outside _TAME_SQUARES (non-finite, vanishing, overflowing or
    underflowing in some summation order) is always a candidate, so the
    vanishing image's NumericalFailure and a non-finite maximum are those of
    the formula.  Ties in e between candidates do not matter: the maximum
    is a value, not a column.

    The formula sums rows in the order numpy reduces a wide array
    (`_sum_rows`), as a pass over the whole sample of two columns or more
    does; a one-point sample keeps numpy's order for a lone column.  Besides
    the image y, which replaces the sample, the check holds at most z, one
    row shorter than y, and two sample-sized vectors.
    """
    check_request(epsilon, "sampled", sample_count, seed)
    x = _sample_bset(_instance_rng(seed, m), repelling.covector, epsilon, sample_count)
    y = m @ x
    del x
    point = target.rep
    cols = y[:, _image_candidates(y, point)]
    sum_rows = _sum_rows if sample_count > 1 else partial(np.add.reduce, axis=0)
    return float(_image_distances(cols, point[:, None], sum_rows).max())


def analytic_contraction_bounds(m: np.ndarray, eigendata, epsilon: float):
    """Conservative (image_radius, lipschitz) bounds for the eigen-adapted B^eps.

    `eigendata` is `top_eigendata(m)`.  Returns (image_radius, lipschitz, gap).
    Either bound may be inf when the splitting estimate degenerates.
    """
    import scipy.linalg

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

    Returns (image distance, Lipschitz).  Analytic, both are bounds and both
    are gated.  Sampled, the image distance is the observed maximum, and the
    Lipschitz value is None: sampling falsifies the image condition only and
    leaves the Lipschitz condition unchecked.  Raises ContractionUnverified,
    refuted with its witness or inconclusive.
    """
    if mode == "sampled":
        image = sampled_contraction_check(m, target, repelling, epsilon, sample_count, seed)
        if image > epsilon:
            raise ContractionUnverified(
                f"sampled image point at distance {image} > epsilon {epsilon}",
                refuted=True, image_distance=image,
            )
        return image, None
    if mode != "analytic":
        raise InvalidInput(f"unknown mode {mode!r}")
    # offset the element's own splitting to the given pair (by exactly 0.0 for its own)
    _, attracting, own_repelling = eigendata
    e_point = float(chordal_distances(attracting.rep, target.rep))
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


class ExactSpectrum(NamedTuple):
    """The top of Lambda^k of a factored element q diag(exp(s r)) q^T."""

    top: int  # the k-subset of the dominant eigenvalue a, lexicographic rank
    second: int  # the k-subset of the runner-up b
    log_top: float  # log a
    log_ratio: float  # log(b/a), <= 0


def exact_spectrum(ray: np.ndarray, power: float, k: int) -> ExactSpectrum:
    """The two top eigenvalues of Lambda^k of q diag(exp(power * ray)) q^T, any q."""
    logs = exterior_logs(ray, power, k)
    second, top = np.argsort(logs, kind="stable")[-2:]
    return ExactSpectrum(int(top), int(second), float(logs[top]), float(logs[second] - logs[top]))


def exact_image_passes(ray: np.ndarray, power: float, k: int, epsilon: float):
    """The exact image clause for Lambda^k of q diag(exp(power * ray)) q^T, any q.

    Returns (`exact_spectrum`, image distance, whether it is <= epsilon):
    the one rule by which both the certificate and the forge's power decide.
    """
    spectrum = exact_spectrum(ray, power, k)
    image = exact_image_distance(spectrum.log_ratio, epsilon)
    return spectrum, image, image <= epsilon


def exact_image_distance(log_ratio: float, epsilon: float) -> float:
    """sup over B^eps of the chordal distance from x+ of the image, for a
    symmetric matrix whose two top eigenvalues a > b > 0 have log(b/a) = log_ratio.

    With v1, v2 their unit eigenvectors, x+ = v1 and X< = v1-perp; the supremum
    is attained at x = eps*v1 + sqrt(1 - eps^2)*v2, whose image makes the angle
    theta with tan(theta) = (b/a) * sqrt(1 - eps^2) / eps.  Its chordal distance
    2 sin(theta/2) is evaluated as sin(theta) * sqrt(2 / (1 + cos(theta))),
    free of cancellation.
    """
    rho_u = np.exp(log_ratio) * np.sqrt(1.0 - epsilon * epsilon)
    hyp = np.hypot(epsilon, rho_u)
    return float(rho_u / hyp * np.sqrt(2.0 / (1.0 + epsilon / hyp)))


def exact_ratio_bound(epsilon: float) -> float:
    """The ratio b/a at which `exact_image_distance` equals epsilon: its inverse.

    cos(theta) = 1 - eps^2/2 at chordal distance eps, so
    b/a = eps * sqrt(1 - cos^2) / (cos * sqrt(1 - eps^2)).
    """
    cos = 1.0 - 0.5 * epsilon * epsilon
    return float(epsilon * np.sqrt(1.0 - cos * cos) / (cos * np.sqrt(1.0 - epsilon * epsilon)))


def check_separation(got: float, pair: tuple, epsilons: tuple, separation=None) -> None:
    """The Schottky pair rule: SeparationViolated, carrying `separation`, unless
    got = gap(x+_i, X<_j) of pair (i, j) is >= SEPARATION_FACTOR * max(eps_i, eps_j)."""
    need = SEPARATION_FACTOR * max(epsilons)
    if got < need:
        raise SeparationViolated(
            f"gap(x+_{pair[0]}, X<_{pair[1]}) = {got} < {need}", pair=pair, separation=separation
        )


def _separation_gap(attracting, repelling, epsilon: float) -> float:
    """gap(x+, X<), refused with SeparationViolated below 2*epsilon."""
    gap_value = gap(attracting, repelling)
    if gap_value < 2.0 * epsilon:
        raise SeparationViolated(f"gap {gap_value} < 2*epsilon = {2.0 * epsilon}")
    return gap_value


def _certify_factored(g: GroupElement, k: int, epsilon: float) -> ProximalityCertificate:
    """The exact certificate of Lambda^k g for a factored g: no eigensolver, no sampling.

    Lambda^k g = q_k diag(exp(s Sigma_S r)) q_k^T is symmetric, so x+ is the
    dominant column of q_k = compound_matrix(q, k), X< is its orthogonal
    complement (the gap is 1), and `exact_image_distance` decides the image
    clause.  The recorded Lipschitz value ab/(a^2 eps^2 + b^2 (1 - eps^2)) is
    the projective stretch in the (v1, v2) plane at the slab's edge: a lower
    bound on the Lipschitz constant, reported and not gated.
    """
    _, r, s = g.factors
    # built here so that an overflowing Lambda^k raises rather than certifies
    exterior_power(g, k)
    (top, second, log_top, log_ratio), image, passes = exact_image_passes(r, s, k, epsilon)
    if -np.expm1(log_ratio) < EIGEN_GAP_TOL:
        raise NotProximal(f"dominant log modulus {log_top} is not simple (log ratio {log_ratio})")
    qk = rotation_compound(g, k)
    attracting = ProjectivePoint.from_vector(qk[:, top])
    repelling = ProjectiveHyperplane(covector=attracting.rep)
    gap_value = _separation_gap(attracting, repelling, epsilon)
    if not passes:
        u = np.sqrt(1.0 - epsilon * epsilon)
        raise ContractionUnverified(
            f"exact image point at distance {image} > epsilon {epsilon}",
            refuted=True, image_distance=image,
            witness=epsilon * qk[:, top] + u * qk[:, second],
        )
    rho = np.exp(log_ratio)
    return ProximalityCertificate(
        rep=Representation(n=g.n, k=k),
        epsilon=epsilon,
        attracting=attracting,
        repelling=repelling,
        top_modulus=float(np.exp(log_top)),
        gap_value=gap_value,
        lipschitz_bound=float(rho / (epsilon**2 + rho**2 * (1.0 - epsilon**2))),
        norm_ratio=1.0,  # a symmetric positive definite matrix's norm is its top eigenvalue
        mode="exact",
        sample_count=0,
    )


def certify_eps_proximal(
    g: GroupElement,
    k: int,
    epsilon: float,
    mode: str = "sampled",
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> ProximalityCertificate:
    """Certify that Lambda^k g is epsilon-proximal on P(Lambda^k R^n).

    In sampled mode a factored element (`GroupElement.from_factors`) is
    certified exactly, `mode="exact"`, without sampling; any other case goes
    through `certify_matrix_eps_proximal` in `mode`.
    """
    check_request(epsilon, mode, sample_count, seed)
    if g.factors is not None and mode == "sampled":
        return _certify_factored(g, k, epsilon)
    return certify_matrix_eps_proximal(
        exterior_power(g, k), Representation(n=g.n, k=k), epsilon, mode, sample_count, seed
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

    Every epsilon-proximality decision but the exact one (a factored element
    in sampled mode, `certify_eps_proximal`) is made here, its contraction
    conditions by `contraction_check` against the element's own pair.  Raises
    a CertificationFailure naming the first condition that failed.
    """
    check_request(epsilon, mode, sample_count, seed)
    top, attracting, repelling = eigendata = top_eigendata(m)
    gap_value = _separation_gap(attracting, repelling, epsilon)
    # analytic mode bounds and gates the Lipschitz constant; sampled mode
    # leaves that condition unchecked and records None
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


def certify_theta_proximal(
    g: GroupElement,
    degrees,
    epsilon: float,
    mode: str = "sampled",
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> list[ProximalityCertificate]:
    """One `certify_eps_proximal` certificate per exterior degree, in increasing order.

    A failing degree stops before the next Lambda^k is built; its message
    gains the prefix "degree k: ".
    """
    check_request(epsilon, mode, sample_count, seed)
    certs = []
    for k in sorted(degrees):
        try:
            certs.append(certify_eps_proximal(g, k, epsilon, mode, sample_count, seed))
        except CertificationFailure as e:
            e.prefix_message(f"degree {k}: ")
            raise
    return certs


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
    if any(as_index(p, "power") < 1 for p in powers):
        raise InvalidInput("powers must be >= 1")
    l = len(certs)
    for j in range(l):
        prev, cur = certs[j - 1], certs[j]
        check_separation(
            gap(prev.attracting, cur.repelling), ((j - 1) % l, j), (prev.epsilon, cur.epsilon)
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
