"""Schottky systems: verification, word estimates, open semigroups, and forging.

A system of generators is Schottky when every element of the generating set
(generators, plus inverses for groups) is eps-proximal on every exterior-power
projective space and every required attracting-point / repelling-hyperplane
pair is separated by at least SEPARATION_FACTOR (6) * max of the two epsilons.
Words of such a system inherit proximality letter-by-letter and their Lyapunov
projections are additive up to a uniformly bounded defect.

Forging builds a certified system whose per-generator Lyapunov directions are
prescribed rays: generators are rotation conjugates q diag(exp(p r)) q^T of
exponentials of the rays.  Their certification is exact (see `proximality`),
and depends on the ray, the power and epsilon only, so each power p is
computed, not searched: the smallest p >= 1 at which every degree of the
letter (and, for a group, of its inverse) passes the exact image clause.
The forge keeps the first rotation draw that `verify_schottky`, where the
separation rule lives, certifies with 5% slack over 6*epsilon (`FORGE_SEPARATION_SLACK`).
Zariski density is not machine checked; the checkable proxies are
regularity, non-commutation, and distinct attracting flags.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import cones
from .errors import (
    CertificationFailure,
    ConeNotInvolutionStable,
    ContractionUnverified,
    InvalidInput,
    MaxPowerExceeded,
    NotProximal,
    NumericalFailure,
    NotReduced,
    EpsilonTooLarge,
    RayNotInChamber,
    SeparationUnachievable,
    SeparationViolated,
    TooFewGenerators,
    check_seed,
)
from .limits import Alphabet
from .projgeom import (
    GroupElement,
    ProjectiveHyperplane,
    ProjectivePoint,
    compound_matrix,
    exterior_power,
    gap,
)
from .projections import (
    ChamberVector,
    lyapunov_directions,
    opposition_involution,
    product_jordan,
    product_projection,
)
from .proximality import (
    DEFAULT_SAMPLE_COUNT,
    SEPARATION_FACTOR,
    ProximalityCertificate,
    certify_theta_proximal,
    check_request,
    check_separation,
    contraction_check,
    exact_image_passes,
    exact_ratio_bound,
    top_eigendata,
)

FRAME_CONDITION_CAP = 1e6
FORGE_RETRY_CAP = 100
# the forge keeps a rotation draw only if it clears the Schottky condition's
# 6*epsilon by this factor, so that no rounding error separates it from refusal
FORGE_SEPARATION_SLACK = 1.05
DEFAULT_MAX_POWER = 2**20
# the forge report reads the very reduced words of up to this many letters
FORGE_REPORT_DEPTH = 6


class FacetFrame:
    """A full flag presented by an invertible matrix h.

    Per exterior degree k, the flag determines the attracting point (image of
    the lexicographically first wedge basis line under Lambda^k h) and the
    dual repelling hyperplane.
    """

    def __init__(self, frame):
        f = np.asarray(frame, dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] < 2:
            raise InvalidInput("frame must be a square matrix of size >= 2")
        if not np.all(np.isfinite(f)):
            raise InvalidInput("frame entries must be finite")
        if np.linalg.cond(f) > FRAME_CONDITION_CAP:
            raise InvalidInput(f"frame condition number exceeds {FRAME_CONDITION_CAP}")
        self.frame = f
        self.n = f.shape[0]
        self._flag = {}  # per degree k: (point, hyperplane, their gap)
        for k in range(1, self.n):
            ck = compound_matrix(f, k)
            x = ProjectivePoint.from_vector(ck[:, 0])
            h = ProjectiveHyperplane.from_covector(np.linalg.solve(ck.T, np.eye(len(ck))[0]))
            if gap(x, h) <= 0.0:
                raise InvalidInput(f"degenerate frame flag at degree {k}")
            self._flag[k] = (x, h, gap(x, h))

    @classmethod
    def identity(cls, n: int) -> "FacetFrame":
        return cls(np.eye(n))

    def point(self, k: int) -> ProjectivePoint:
        return self._flag[k][0]

    def hyperplane(self, k: int) -> ProjectiveHyperplane:
        return self._flag[k][1]

    def epsilon_bound(self) -> float:
        """epsilon_f = (1/10) * min over degrees of the frame's own gap."""
        return 0.1 * min(g for _, _, g in self._flag.values())


@dataclass(frozen=True)
class TargetCone:
    """A convex cone in the chamber, spanned by unit rays.

    `margin` is validated and kept (the rays file's "margin" key), but no
    library code reads it yet."""

    rays: tuple
    margin: float

    @classmethod
    def from_rays(cls, rays, margin: float = 0.05) -> "TargetCone":
        """The cone of `rays`, normalised: each is a chamber vector, its
        coordinates nonincreasing (ties allowed), or RayNotInChamber names it."""
        if not (np.isfinite(margin) and margin > 0.0):
            raise InvalidInput(f"margin must be positive and finite, got {margin}")
        coords = [r.coords if isinstance(r, ChamberVector) else np.asarray(r, float) for r in rays]
        if not coords:
            raise InvalidInput("a cone needs at least one ray")
        if any(c.shape != coords[0].shape or c.ndim != 1 for c in coords):
            raise InvalidInput("cone rays must be vectors of one dimension")
        normed = []
        for c in coords:
            if not np.isfinite(c).all():
                # before the norm and the division, which would warn on an infinite coordinate
                raise InvalidInput("coordinates must be finite")
            norm = float(np.linalg.norm(c))
            if norm == 0.0:
                raise RayNotInChamber("zero ray")
            if np.any(np.diff(c) > 0.0):
                raise RayNotInChamber(f"ray {c} is not in the chamber: its coordinates increase")
            normed.append(ChamberVector.from_coords(c / norm))
        for i in range(len(normed)):
            for j in range(i + 1, len(normed)):
                if np.linalg.norm(normed[i].coords - normed[j].coords) <= cones.SLACK:
                    raise InvalidInput("cone rays must be pairwise distinct directions")
        return cls(rays=tuple(normed), margin=float(margin))

    @property
    def n(self) -> int:
        return self.rays[0].n

    def rays_matrix(self) -> np.ndarray:
        return np.stack([r.coords for r in self.rays])

    def involution_stable(self) -> bool:
        rm = self.rays_matrix()
        return all(cones.in_cone(opposition_involution(r).coords, rm) for r in self.rays)


@dataclass(frozen=True)
class SchottkySystem:
    """A certified Schottky family with its eigendata and separation matrix."""

    generators: tuple
    kind: str  # "semigroup" | "group"
    epsilons: tuple
    eigendata: dict = field(compare=False)  # (element index, degree) -> certificate
    separation: np.ndarray = field(compare=False)  # |E| x |E| x (n-1) gap values
    alphabet: Alphabet = field(compare=False)  # E_Gamma of the generators
    forge_report: dict | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.generators[0].n

    @property
    def t(self) -> int:
        return len(self.generators)

    def certificate(self, i: int, k: int) -> ProximalityCertificate:
        return self.eigendata[(i, k)]

    @property
    def min_separation(self) -> float:
        """The smallest gap the Schottky condition requires: the (g, g^-1) pairs are exempt."""
        return float(min(self.separation[i, j].min() for i, j in _separated_pairs(self.alphabet)))


def verify_schottky(
    generators,
    kind: str = "semigroup",
    epsilons=None,
    mode: str = "sampled",
    samples: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> SchottkySystem:
    """Certify the full Schottky condition, or raise with diagnostics.

    Each letter is certified by `certify_theta_proximal` at every degree: a
    factored letter exactly in sampled mode, the default.  On a separation failure
    the exception carries the separation matrix computed so far.
    """
    generators = list(generators)
    if len(generators) < 2:
        raise TooFewGenerators("a Schottky family needs at least 2 generators")
    if epsilons is None:
        epsilons = [0.1] * len(generators)
    epsilons = [float(e) for e in epsilons]
    if len(epsilons) != len(generators):
        raise InvalidInput("need one epsilon per generator")
    for e in epsilons:
        check_request(e, mode, samples, seed)
    alphabet = Alphabet.of(generators, kind)

    eigendata = {}
    for i, (e, (j, _, _)) in enumerate(zip(alphabet.elements, alphabet.letters)):
        try:
            certs = certify_theta_proximal(e, range(1, alphabet.n), epsilons[j], mode, samples, seed)
        except CertificationFailure as e:
            e.prefix_message(f"element {i}, ")
            raise
        eigendata.update(((i, k), c) for k, c in enumerate(certs, start=1))
    return SchottkySystem(
        generators=tuple(generators),
        kind=kind,
        epsilons=tuple(epsilons),
        eigendata=eigendata,
        separation=_separation(alphabet, epsilons, eigendata),
        alphabet=alphabet,
    )


def _separated_pairs(alphabet):
    """The letter pairs (i, j) whose gap(x+_i, X<_j) the Schottky condition bounds."""
    m = len(alphabet.letters)
    return [(i, j) for i in range(m) for j in range(m) if j != alphabet.inverse_index(i)]


def _separation(alphabet, epsilons, eigendata):
    """The |E| x |E| x (n-1) gaps gap(x+_i, X<_j) between certified letters.

    `epsilons` has one entry per generator.  Raises on the first pair that
    fails `check_separation`, with the matrix attached.
    """
    n = alphabet.n
    elem_eps = [epsilons[j] for j, _, _ in alphabet.letters]
    m = len(elem_eps)
    separation = np.full((m, m, n - 1), np.nan)
    for i in range(m):
        for j in range(m):
            for k in range(1, n):
                separation[i, j, k - 1] = gap(
                    eigendata[(i, k)].attracting, eigendata[(j, k)].repelling
                )
    for i, j in _separated_pairs(alphabet):  # the (g, g^-1) pairs are exempt
        check_separation(
            float(separation[i, j].min()), (i, j), (elem_eps[i], elem_eps[j]), separation
        )
    return separation


def word_lyapunov_estimate(system: SchottkySystem, word):
    """lambda of a very reduced word and its defect against the letterwise sum.

    `word` is a sequence of (element index, exponent) over E_Gamma.  Returns
    (lambda_word, discrepancy) with discrepancy = lambda(w) - sum n_j lambda(g_j).
    Products are accumulated from the letters' exterior powers, which are
    exact for a forged system.
    """
    word = [(int(i), int(p)) for i, p in word]
    if any(p < 1 for _, p in word):
        raise InvalidInput("word exponents must be >= 1")
    alphabet = system.alphabet
    size = len(alphabet.elements)
    if not all(0 <= i < size for i, _ in word):
        raise InvalidInput(f"word {word} spells a letter outside the {size}-letter alphabet")
    if not alphabet.very_reduced([i for i, _ in word]):
        raise NotReduced(f"word {word} is empty or not very reduced")
    # the letters, then the spelled word, as one batch
    spelled = [(i,) for i, _ in word] + [[i for i, p in word for _ in range(p)]]
    rows = product_projection(alphabet.accumulate(spelled), jordan=True)
    lam = ChamberVector.from_coords(rows[-1])
    return lam, lam.coords - sum(p * row for (_, p), row in zip(word, rows))


@dataclass(frozen=True)
class MembershipEvidence:
    """Outcome of an open-semigroup membership test."""

    accepted: bool
    mode: str
    reason: str
    max_image_distance: float | None = None

    def __bool__(self) -> bool:
        return self.accepted


def in_open_semigroup(
    g: GroupElement,
    f: FacetFrame,
    epsilon: float,
    mode: str = "sampled",
    samples: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> MembershipEvidence:
    """Test membership of g in the open contraction semigroup of the frame f.

    Membership means: on every exterior-power projective space, Lambda^k g maps
    the complement of the epsilon-slab around the frame's repelling hyperplane
    into the epsilon-ball around the frame's attracting point, with an
    epsilon-Lipschitz restriction; epsilon lies in (0, epsilon_f).  Analytic
    mode proves both conditions.  Sampled mode falsifies the image condition
    only and leaves the Lipschitz restriction unchecked.
    """
    check_request(epsilon, mode, samples, seed)
    if g.n != f.n:
        raise InvalidInput("group element and frame dimensions differ")
    eps_f = f.epsilon_bound()
    if epsilon >= eps_f:
        raise EpsilonTooLarge(f"epsilon {epsilon} >= epsilon_f {eps_f}")
    worst_image = 0.0
    for k in range(1, g.n):
        m = exterior_power(g, k)
        try:
            image, _ = contraction_check(
                m, top_eigendata(m), f.point(k), f.hyperplane(k), epsilon, mode, samples, seed
            )
        except NotProximal:
            return MembershipEvidence(
                accepted=False, mode=mode, reason=f"degree {k}: not proximal"
            )
        except ContractionUnverified as e:
            e.prefix_message(f"degree {k}: ")
            if not e.refuted:
                raise
            return MembershipEvidence(
                accepted=False, mode=mode, reason=e.args[0],
                max_image_distance=e.image_distance,
            )
        worst_image = max(worst_image, image)
    return MembershipEvidence(
        accepted=True,
        mode=mode,
        reason="all degrees contract into the frame ball",
        max_image_distance=worst_image,
    )


def _haar_rotation(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def _validate_forge_rays(cone: TargetCone) -> list[np.ndarray]:
    rays = [r.coords for r in cone.rays]
    for c in rays:
        # a zero ray is not strictly sorted either
        if np.any(np.diff(c) >= 0.0):
            raise RayNotInChamber(f"ray {c} is not strictly sorted (not a regular direction)")
    return rays


def _forge(
    n: int,
    cone: TargetCone,
    epsilon: float,
    seed: int,
    max_power: int,
    kind: str,
) -> SchottkySystem:
    check_seed(seed)
    # the Schottky separation 6*epsilon cannot exceed the largest gap, 1
    if not 0.0 < epsilon <= 1.0 / SEPARATION_FACTOR:
        raise InvalidInput(f"epsilon must be in (0, 1/{SEPARATION_FACTOR:g}], got {epsilon}")
    if n < 2 or n != cone.n:
        raise InvalidInput(f"n = {n} must be >= 2 and equal the rays' dimension {cone.n}")
    rays = _validate_forge_rays(cone)
    if len(rays) == 1:
        # duplicate with a deterministic in-chamber perturbation: each
        # consecutive gap grows by 0.02, so the tweak stays strictly sorted
        r = rays[0]
        tweak = np.sort(r + 0.02 * np.arange(n, 0, -1.0))[::-1]
        tweak -= tweak.mean()
        tweak /= np.linalg.norm(tweak)
        rays = [r, tweak]
    rng = np.random.default_rng(int(seed))

    signs = (1.0, -1.0) if kind == "group" else (1.0,)
    powers = [_certifying_power(j, r, signs, epsilon, max_power) for j, r in enumerate(rays)]
    need = SEPARATION_FACTOR * epsilon * FORGE_SEPARATION_SLACK
    try:
        for _ in range(FORGE_RETRY_CAP):
            gens = [
                GroupElement.from_factors(_haar_rotation(rng, n), r, p)
                for r, p in zip(rays, powers)
            ]
            try:
                system = verify_schottky(gens, kind, [epsilon] * len(gens))
            except SeparationViolated:
                continue
            if system.min_separation >= need:
                break
        else:
            raise SeparationUnachievable(
                f"no rotation draw reached separation {SEPARATION_FACTOR:g}*epsilon*"
                f"{FORGE_SEPARATION_SLACK} = {need:.6g} in {FORGE_RETRY_CAP} tries"
            )
    except NumericalFailure as err:
        # a factored letter's certificate builds its exterior powers: float64 overflows there
        raise MaxPowerExceeded(f"a letter overflowed at powers {powers}") from err
    alphabet = system.alphabet

    # sampled word directions: how far inside the cone they stay
    rays_mat = cone.rays_matrix()
    words = _sample_forge_words(alphabet, rng_seed=seed)
    lam = np.stack([product_jordan([alphabet.elements[i] for i in w]).coords for w in words])
    _, units = lyapunov_directions(lam, [len(w) for w in words])
    dists = cones.cone_distance(units, rays_mat)
    report = {
        "powers": powers,
        "word_depth": FORGE_REPORT_DEPTH,
        "word_count": len(units),
        # a unit direction's residue inside the cone, as in cones.in_cone
        "max_direction_distance": float(dists[dists > cones.SLACK].max(initial=0.0)),
    }
    return replace(system, forge_report=report)


def _certifying_power(j: int, ray: np.ndarray, signs, epsilon: float, max_power: int) -> int:
    """The smallest power p >= 1 at which every degree of q diag(exp(s p ray)) q^T,
    s in `signs`, passes the exact image clause; any q, so no rotation is needed.

    The closed form's inverse at the smallest eigenvalue gap gives p; the
    certifier's own kernel then settles the neighbouring powers, so the
    forge's decision and the certificate's agree bit for bit.
    """

    def passes(p: int) -> bool:
        return all(
            exact_image_passes(ray, sign * p, k, epsilon)[2]
            for sign in signs
            for k in range(1, len(ray))
        )

    # log(b/a) = -p * (r_k - r_{k+1}) per degree k, for the letter and its inverse
    p = max(1, math.ceil(-math.log(exact_ratio_bound(epsilon)) / -float(np.diff(ray).max())))
    while p <= max_power and not passes(p):
        p += 1
    if p > max_power:
        raise MaxPowerExceeded(f"generator {j} needs a power above {max_power}")
    while p > 1 and passes(p - 1):
        p -= 1
    return p


def _sample_forge_words(alphabet: Alphabet, rng_seed: int):
    """The very reduced words of up to FORGE_REPORT_DEPTH letters, 1000 at most (seeded)."""
    levels = alphabet.levels(FORGE_REPORT_DEPTH)
    words = (tuple(w) for spelled, _ in levels for w in spelled.tolist())
    # sorted as tuples, each word precedes its extensions (preorder)
    words = sorted(w for w in words if alphabet.very_reduced(w))
    if len(words) > 1000:
        rng = np.random.default_rng(int(rng_seed))
        keep = rng.choice(len(words), size=1000, replace=False)
        words = [words[i] for i in sorted(keep)]
    return words


def forge_semigroup(
    n: int,
    cone: TargetCone,
    epsilon: float,
    seed: int = 0,
    max_power: int = DEFAULT_MAX_POWER,
) -> SchottkySystem:
    """Build a certified Schottky semigroup whose Lyapunov directions are the rays."""
    return _forge(n, cone, epsilon, seed, max_power, "semigroup")


def forge_group(
    n: int,
    cone: TargetCone,
    epsilon: float,
    seed: int = 0,
    max_power: int = DEFAULT_MAX_POWER,
) -> SchottkySystem:
    """As forge_semigroup, for a group; the cone must be involution-stable."""
    if not cone.involution_stable():
        raise ConeNotInvolutionStable(
            "the target cone is not stable under the opposition involution"
        )
    return _forge(n, cone, epsilon, seed, max_power, "group")
