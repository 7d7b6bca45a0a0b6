"""Schottky systems: verification, word estimates, open semigroups, and forging.

A system of generators is Schottky when every element of the generating set
(generators, plus inverses for groups) is eps-proximal on every exterior-power
projective space and every required attracting-point / repelling-hyperplane
pair is separated by at least 6*max of the two epsilons.  Words of such a
system inherit proximality letter-by-letter and their Lyapunov projections are
additive up to a uniformly bounded defect.

Forging builds a certified system whose per-generator Lyapunov directions are
prescribed rays: generators are rotation conjugates of exponentials of the
rays, powered up until certification passes.  Zariski density is not machine
checked; the checkable proxies are regularity, non-commutation, and distinct
attracting flags.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import cones
from .errors import (
    ConeNotInvolutionStable,
    ContractionUnverified,
    InvalidInput,
    MaxPowerExceeded,
    NotProximal,
    NotReduced,
    EpsilonTooLarge,
    RayNotInChamber,
    SeparationUnachievable,
    SeparationViolated,
    TooFewGenerators,
)
from .limits import Alphabet, reduced_words
from .projgeom import (
    GroupElement,
    ProjectiveHyperplane,
    ProjectivePoint,
    Representation,
    compound_matrix,
    exterior_power,
    gap,
    proj_distance,
)
from .projections import (
    ChamberVector,
    jordan_projection,
    opposition_involution,
    product_jordan,
)
from .proximality import (
    DEFAULT_SAMPLE_COUNT,
    ProximalityCertificate,
    analytic_contraction_bounds,
    certify_matrix_eps_proximal,
    sampled_contraction_check,
    top_eigendata,
)

FRAME_CONDITION_CAP = 1e6
FORGE_RETRY_CAP = 100
DEFAULT_MAX_POWER = 2**20


class FacetFrame:
    """A full flag presented by an invertible matrix h.

    Per exterior degree k, the flag determines the attracting point (image of
    the lexicographically first wedge basis line under Lambda^k h) and the
    dual repelling hyperplane.
    """

    def __init__(self, frame):
        f = np.asarray(frame, dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise InvalidInput("frame must be a square matrix")
        if np.linalg.cond(f) > FRAME_CONDITION_CAP:
            raise InvalidInput(f"frame condition number exceeds {FRAME_CONDITION_CAP}")
        self.frame = f
        self.n = f.shape[0]
        self._cache = {}
        for k in range(1, self.n):
            if gap(self.point(k), self.hyperplane(k)) <= 0.0:
                raise InvalidInput(f"degenerate frame flag at degree {k}")

    @classmethod
    def identity(cls, n: int) -> "FacetFrame":
        return cls(np.eye(n))

    def _compound(self, k: int) -> np.ndarray:
        if k not in self._cache:
            self._cache[k] = compound_matrix(self.frame, k)
        return self._cache[k]

    def point(self, k: int) -> ProjectivePoint:
        return ProjectivePoint.from_vector(self._compound(k)[:, 0])

    def hyperplane(self, k: int) -> ProjectiveHyperplane:
        ck = self._compound(k)
        e0 = np.zeros(ck.shape[0])
        e0[0] = 1.0
        return ProjectiveHyperplane.from_covector(np.linalg.solve(ck.T, e0))

    def epsilon_bound(self) -> float:
        """epsilon_f = (1/10) * min over degrees of the frame's own gap."""
        return 0.1 * min(
            gap(self.point(k), self.hyperplane(k)) for k in range(1, self.n)
        )


@dataclass(frozen=True)
class TargetCone:
    """A convex cone in the chamber, spanned by unit rays, with a margin."""

    rays: tuple
    margin: float

    @classmethod
    def from_rays(cls, rays, margin: float = 0.05) -> "TargetCone":
        if margin <= 0.0:
            raise InvalidInput("margin must be positive")
        normed = []
        for r in rays:
            c = r.coords if isinstance(r, ChamberVector) else np.asarray(r, float)
            norm = float(np.linalg.norm(c))
            if norm == 0.0:
                raise RayNotInChamber("zero ray")
            normed.append(ChamberVector.from_coords(np.sort(c / norm)[::-1]))
        for i in range(len(normed)):
            for j in range(i + 1, len(normed)):
                if np.linalg.norm(normed[i].coords - normed[j].coords) <= 1e-9:
                    raise InvalidInput("cone rays must be pairwise distinct directions")
        return cls(rays=tuple(normed), margin=float(margin))

    @property
    def n(self) -> int:
        return self.rays[0].n

    def rays_matrix(self) -> np.ndarray:
        return np.stack([r.coords for r in self.rays])

    def contains(self, v: np.ndarray, slack: float = 1e-9) -> bool:
        return cones.in_cone(np.asarray(v, float), self.rays_matrix(), slack)

    def contains_with_margin(self, v: np.ndarray) -> bool:
        """Membership in the margin-shrunk cone {v : v + B(0, margin*||v||) in cone}."""
        basis = cones.chamber_basis(self.n)
        return (
            cones.margin_distance(basis.T @ np.asarray(v, float), self.rays_matrix() @ basis)
            >= self.margin
        )

    def involution_stable(self, tol: float = 1e-9) -> bool:
        rm = self.rays_matrix()
        return all(
            cones.cone_distance(opposition_involution(r).coords, rm) <= tol
            for r in self.rays
        )


@dataclass(frozen=True)
class SchottkySystem:
    """A certified Schottky family with its eigendata and separation matrix."""

    generators: tuple
    kind: str  # "semigroup" | "group"
    epsilons: tuple
    eigendata: dict = field(compare=False)  # (element index, degree) -> certificate
    separation: np.ndarray = field(compare=False)  # |E| x |E| x (n-1) gap values
    # E_Gamma; exact inverses and compounds when known by construction (numerical
    # inversion loses the small spectral data at forge-scale condition numbers)
    alphabet: Alphabet = field(compare=False)
    forge_report: dict | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.generators[0].n

    @property
    def t(self) -> int:
        return len(self.generators)

    def certificate(self, i: int, k: int) -> ProximalityCertificate:
        return self.eigendata[(i, k)]


def verify_schottky(
    generators,
    kind: str = "semigroup",
    epsilons=None,
    mode: str = "sampled",
    samples: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> SchottkySystem:
    """Certify the full Schottky condition, or raise with diagnostics.

    On a separation failure the exception carries the separation matrix
    computed so far.
    """
    generators = list(generators)
    if len(generators) < 2:
        raise TooFewGenerators("a Schottky family needs at least 2 generators")
    alphabet = Alphabet.of(generators, kind)
    if epsilons is None:
        epsilons = [0.1] * len(generators)
    epsilons = [float(e) for e in epsilons]
    if len(epsilons) != len(generators) or any(not 0.0 < e < 1.0 for e in epsilons):
        raise InvalidInput("need one epsilon in (0,1) per generator")

    eigendata, separation = _certify_elements(alphabet, epsilons, mode, samples, seed)
    return SchottkySystem(
        generators=tuple(generators),
        kind=kind,
        epsilons=tuple(epsilons),
        eigendata=eigendata,
        separation=separation,
        alphabet=alphabet,
    )


def _certify_elements(alphabet, epsilons, mode, samples, seed):
    """Certificates per (element, degree) of E_Gamma and its separation matrix.

    `epsilons` has one entry per generator.  Raises on the first uncertified
    (element, degree), or on a separation failure with the separation matrix
    attached.
    """
    n = alphabet.n
    elem_eps = [epsilons[j] for j, _, _ in alphabet.letters]
    eigendata = {}
    for i, eps in enumerate(elem_eps):
        for k in range(1, n):
            try:
                eigendata[(i, k)] = certify_matrix_eps_proximal(
                    alphabet.compounds[i][k - 1],
                    rep=Representation(n=n, k=k),
                    epsilon=eps,
                    mode=mode,
                    sample_count=samples,
                    seed=seed,
                )
            except (NotProximal, SeparationViolated, ContractionUnverified) as e:
                e.args = (f"element {i}, degree {k}: {e.args[0]}",) + e.args[1:]
                raise

    m = len(elem_eps)
    separation = np.full((m, m, n - 1), np.nan)
    violation = None
    for i in range(m):
        for j in range(m):
            for k in range(1, n):
                separation[i, j, k - 1] = gap(
                    eigendata[(i, k)].attracting, eigendata[(j, k)].repelling
                )
    for i in range(m):
        for j in range(m):
            if j == alphabet.inverse_index(i):
                continue  # the (g, g^-1) pair is exempt
            need = 6.0 * max(elem_eps[i], elem_eps[j])
            worst = float(separation[i, j].min())
            if worst < need and violation is None:
                violation = (i, j, worst, need)
    if violation is not None:
        i, j, worst, need = violation
        raise SeparationViolated(
            f"gap(x+_{i}, X<_{j}) = {worst} < {need}",
            pair=(i, j),
            separation=separation,
        )
    return eigendata, separation


def word_lyapunov_estimate(system: SchottkySystem, word):
    """lambda of a very reduced word and its defect against the letterwise sum.

    `word` is a sequence of (element index, exponent) over E_Gamma.  Returns
    (lambda_word, discrepancy) with discrepancy = lambda(w) - sum n_j lambda(g_j).
    Products are accumulated from the letters' compounds in `system.alphabet`,
    which are exact for a forged system.
    """
    word = [(int(i), int(p)) for i, p in word]
    if any(p < 1 for _, p in word):
        raise InvalidInput("word exponents must be >= 1")
    alphabet = system.alphabet
    if not alphabet.very_reduced([i for i, _ in word]):
        raise NotReduced(f"word {word} is empty or not very reduced")
    expected = np.zeros(system.n)
    for i, p in word:
        expected += p * alphabet.product([i]).lam().coords
    lam = alphabet.product([i for i, p in word for _ in range(p)]).lam()
    return lam, lam.coords - expected


@dataclass(frozen=True)
class MembershipEvidence:
    """Outcome of an open-semigroup membership test."""

    accepted: bool
    mode: str
    reason: str
    max_image_distance: float | None = None
    max_expansion: float | None = None

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
    epsilon-Lipschitz restriction.
    """
    if g.n != f.n:
        raise InvalidInput("group element and frame dimensions differ")
    eps_f = f.epsilon_bound()
    if epsilon >= eps_f:
        raise EpsilonTooLarge(f"epsilon {epsilon} >= epsilon_f {eps_f}")
    if mode not in ("analytic", "sampled"):
        raise InvalidInput(f"unknown mode {mode!r}")
    worst_image, worst_ratio = 0.0, 0.0
    for k in range(1, g.n):
        m = exterior_power(g, k)
        target, repelling = f.point(k), f.hyperplane(k)
        if mode == "sampled":
            max_image, max_ratio = sampled_contraction_check(
                m, target, repelling, epsilon, samples, seed
            )
            worst_image = max(worst_image, max_image)
            worst_ratio = max(worst_ratio, max_ratio)
            if max_image > epsilon:
                return MembershipEvidence(
                    accepted=False,
                    mode=mode,
                    reason=f"degree {k}: sampled image point at distance "
                    f"{max_image} > epsilon",
                    max_image_distance=max_image,
                    max_expansion=max_ratio,
                )
            continue
        # analytic: relate the frame slab to the element's own eigen-splitting
        try:
            _, attracting, elem_repelling = top_eigendata(m)
        except NotProximal:
            return MembershipEvidence(
                accepted=False, mode=mode, reason=f"degree {k}: not proximal"
            )
        e_point = proj_distance(attracting, target)
        e_hyp = float(
            np.sqrt(
                max(
                    0.0,
                    2.0
                    - 2.0
                    * abs(float(elem_repelling.covector @ repelling.covector)),
                )
            )
        )
        if (
            gap(attracting, repelling) >= epsilon
            and e_point > epsilon
        ):
            # the attracting fixed point lies in the slab complement but
            # outside the target ball: a genuine witness of non-membership
            return MembershipEvidence(
                accepted=False,
                mode=mode,
                reason=f"degree {k}: attracting point at distance {e_point} > epsilon",
                max_image_distance=e_point,
            )
        eps_inner = epsilon - e_hyp
        if eps_inner <= 0.0:
            raise ContractionUnverified(
                f"degree {k}: analytic slab comparison degenerate "
                f"(hyperplane offset {e_hyp} >= epsilon)",
                refuted=False,
            )
        image_radius, lipschitz, _ = analytic_contraction_bounds(m, eps_inner)
        if image_radius + e_point > epsilon or lipschitz > epsilon:
            raise ContractionUnverified(
                f"degree {k}: analytic bounds inconclusive "
                f"(radius {image_radius} + offset {e_point}, Lipschitz {lipschitz})",
                refuted=False,
            )
        worst_image = max(worst_image, image_radius + e_point)
        worst_ratio = max(worst_ratio, lipschitz)
    return MembershipEvidence(
        accepted=True,
        mode=mode,
        reason="all degrees contract into the frame ball",
        max_image_distance=worst_image,
        max_expansion=worst_ratio,
    )


def in_cone_semigroup(
    g: GroupElement,
    f: FacetFrame,
    epsilon: float,
    cone: TargetCone,
    mode: str = "sampled",
    samples: int = DEFAULT_SAMPLE_COUNT,
    seed: int = 0,
) -> MembershipEvidence:
    """in_open_semigroup, plus lambda(g) in the margin-shrunk target cone."""
    ev = in_open_semigroup(g, f, epsilon, mode, samples, seed)
    if not ev.accepted:
        return ev
    lam = jordan_projection(g)
    if not cone.contains_with_margin(lam.coords):
        return MembershipEvidence(
            accepted=False,
            mode=ev.mode,
            reason="lambda(g) outside the margin-shrunk cone",
            max_image_distance=ev.max_image_distance,
            max_expansion=ev.max_expansion,
        )
    return ev


def _haar_rotation(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q


def _validate_forge_rays(cone: TargetCone) -> list[np.ndarray]:
    rays = []
    for r in cone.rays:
        c = r.coords
        if float(np.linalg.norm(c)) == 0.0:
            raise RayNotInChamber("zero ray")
        if np.any(np.diff(c) >= 0.0):
            raise RayNotInChamber(
                f"ray {c} is not strictly sorted (not a regular direction)"
            )
        rays.append(c)
    return rays


def _forge(
    n: int,
    cone: TargetCone,
    epsilon: float,
    seed: int,
    max_power: int,
    kind: str,
    mode: str,
    samples: int,
) -> SchottkySystem:
    rays = _validate_forge_rays(cone)
    if len(rays) == 1:
        # duplicate with a deterministic in-chamber perturbation
        r = rays[0]
        tweak = np.sort(r + 0.02 * np.arange(n, 0, -1.0))[::-1]
        tweak -= tweak.mean()
        tweak /= np.linalg.norm(tweak)
        if np.any(np.diff(tweak) >= 0.0):
            raise RayNotInChamber("could not perturb the single ray inside the chamber")
        rays = [r, tweak]
    t = len(rays)
    rng = np.random.default_rng(int(seed))

    letters = Alphabet.spell(t, kind)
    for _ in range(FORGE_RETRY_CAP):
        rotations = [_haar_rotation(rng, n) for _ in range(t)]
        comps = [
            {k: compound_matrix(q, k) for k in range(1, n)} for q in rotations
        ]
        # per letter and degree: the attracting vector of every power of the letter
        flags = [
            [comps[j][k][:, -1 if inv else 0] for k in range(1, n)]
            for j, inv, _ in letters
        ]
        if not any(
            abs(float(va @ vb)) / (np.linalg.norm(va) * np.linalg.norm(vb))
            < 6.0 * epsilon * 1.05  # 5% safety over the contract
            for a, (_, _, inverse) in enumerate(letters)
            for b in range(len(letters))
            if b != inverse  # the (g, g^-1) pair is exempt
            for va, vb in zip(flags[a], flags[b])
        ):
            break
    else:
        raise SeparationUnachievable(
            f"no rotation draw reached 6*epsilon separation in {FORGE_RETRY_CAP} tries"
        )

    ksum_logs = [
        [
            np.array([r[list(s)].sum() for s in combinations(range(n), k)])
            for k in range(1, n)
        ]
        for r in rays
    ]

    def elem_compound(j: int, power: int, k: int, inverse: bool) -> np.ndarray:
        # Lambda^k of q exp(+-power*ray) q^T in exact factored form; a minor
        # expansion of the assembled matrix would cancel catastrophically at
        # the dynamic range certification requires
        qk = comps[j][k]
        sgn = -1.0 if inverse else 1.0
        d = np.exp(sgn * power * ksum_logs[j][k - 1])
        c = qk @ (d[:, None] * qk.T)
        if not np.all(np.isfinite(c)):
            raise MaxPowerExceeded(f"generator {j} compound overflowed at power {power}")
        return c

    def certifies(j: int, power: int) -> bool:
        try:
            # generator j, then, for a group, its inverse
            for inverse in (inv for i, inv, _ in letters if i == j):
                for k in range(1, n):
                    certify_matrix_eps_proximal(
                        elem_compound(j, power, k, inverse),
                        rep=Representation(n=n, k=k),
                        epsilon=epsilon,
                        mode=mode,
                        sample_count=samples,
                        seed=seed,
                    )
            return True
        except (NotProximal, SeparationViolated, ContractionUnverified):
            return False

    powers = []
    for j in range(t):
        m = 1
        while not certifies(j, m):
            m *= 2
            if m > max_power:
                raise MaxPowerExceeded(
                    f"generator {j} failed to certify at power {max_power}"
                )
        # take the smallest certifying power: excess power inflates the
        # generator's dynamic range without improving the certificate
        lo, hi = m // 2, m
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if certifies(j, mid):
                hi = mid
            else:
                lo = mid
        powers.append(hi)

    def generator(j: int, sign: float = 1.0) -> GroupElement:
        q = rotations[j]
        d = np.exp(sign * powers[j] * rays[j])
        return GroupElement.from_unimodular(q @ (d[:, None] * q.T))

    gens = tuple(generator(j) for j in range(t))
    alphabet = Alphabet.of(
        gens,
        kind,
        inverses=[generator(j, -1.0) for j, inv, _ in letters if inv],
        # the exact factored compounds, not minors of the rounded entries
        compound=lambda j, k, inv: elem_compound(j, powers[j], k, inv),
    )
    epsilons = [float(epsilon)] * t
    eigendata, separation = _certify_elements(alphabet, epsilons, mode, samples, seed)

    # sampled word directions up to length 6: how far inside the cone they stay
    rays_mat = cone.rays_matrix()
    max_dist = 0.0
    count = 0
    for word in _sample_forge_words(alphabet, rng_seed=seed):
        lam = product_jordan([alphabet.elements[i].entries for i in word], n)
        d = lam.direction()
        if np.linalg.norm(d) == 0.0:
            continue
        dist = cones.cone_distance(d, rays_mat)
        # NNLS residue of a unit direction inside the cone, as in cones.in_cone
        max_dist = max(max_dist, dist if dist > 1e-9 else 0.0)
        count += 1
    report = {
        "powers": powers,
        "word_depth": 6,
        "word_count": count,
        "max_direction_distance": max_dist,
    }
    return SchottkySystem(
        generators=gens,
        kind=kind,
        epsilons=tuple(epsilons),
        eigendata=eigendata,
        separation=separation,
        alphabet=alphabet,
        forge_report=report,
    )


def _sample_forge_words(alphabet: Alphabet, rng_seed: int, depth: int = 6):
    """All very reduced words up to `depth` letters, capped at 1000 via seeded sampling."""
    words = [w for w in reduced_words(alphabet, depth) if alphabet.very_reduced(w)]
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
    mode: str = "sampled",
    samples: int = DEFAULT_SAMPLE_COUNT,
) -> SchottkySystem:
    """Build a certified Schottky semigroup whose Lyapunov directions are the rays."""
    return _forge(n, cone, epsilon, seed, max_power, "semigroup", mode, samples)


def forge_group(
    n: int,
    cone: TargetCone,
    epsilon: float,
    seed: int = 0,
    max_power: int = DEFAULT_MAX_POWER,
    mode: str = "sampled",
    samples: int = DEFAULT_SAMPLE_COUNT,
) -> SchottkySystem:
    """As forge_semigroup, for a group; the cone must be involution-stable."""
    if not cone.involution_stable():
        raise ConeNotInvolutionStable(
            "the target cone is not stable under the opposition involution"
        )
    return _forge(n, cone, epsilon, seed, max_power, "group", mode, samples)
