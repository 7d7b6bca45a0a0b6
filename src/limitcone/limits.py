"""Sampled estimates of the limit cone, the limit set, and quasiperiodic facets.

Words of a finitely generated (semi)group are enumerated or sampled, their
products accumulated in log-scaled exterior-power form, and their Cartan and
Jordan projections, attracting flags, and convex-cone hull are read off.
"""

from dataclasses import dataclass, field

import numpy as np

from . import cones
from .errors import BudgetExceeded, DegenerateSample, InvalidInput, NotProximal
from .projgeom import ProjectivePoint, chordal_distances, compound_matrix, proj_distance
from .projections import (
    ChamberVector,
    empty_product,
    extend_product,
    product_projection,
)
from .proximality import top_eigendata

WORD_BUDGET = 10**6
MERGE_TOL = 1e-9
DEFAULT_PROXIMALITY_FILTER = 1e-6


@dataclass(frozen=True)
class Alphabet:
    """E_Gamma: the letters words are spelled in, each with its exterior powers.

    The letters are the generators, then, for a group, their inverses in the
    same order.  Build one with `Alphabet.of`; a word is a sequence of letter
    indices.
    """

    elements: tuple  # GroupElement per letter
    letters: tuple  # per letter, as in `spell`
    compounds: tuple = field(repr=False, compare=False)  # per letter: Lambda^k, k = 1..n-1

    @staticmethod
    def spell(t: int, kind: str) -> tuple:
        """E_Gamma over t generators: per letter (generator, inverted, inverse letter).

        The inverse letter is the one that cancels it, None in a semigroup.
        """
        if kind != "group":
            return tuple((j, False, None) for j in range(t))
        return tuple((j, False, t + j) for j in range(t)) + tuple(
            (j, True, j) for j in range(t)
        )

    @classmethod
    def of(cls, generators, kind="semigroup", inverses=None, compound=None) -> "Alphabet":
        """E_Gamma of the generators.

        `inverses` are the generators' inverses when known exactly, else they
        are inverted numerically.  `compound(j, k, inverted)`, when given, is
        the exact Lambda^k of generator j (or of its inverse); else each
        letter's compounds are the minors of its entries.
        """
        generators = tuple(generators)
        if kind not in ("semigroup", "group"):
            raise InvalidInput(f"unknown kind {kind!r}")
        if not generators:
            raise InvalidInput("need at least one generator")
        n = generators[0].n
        if any(g.n != n for g in generators):
            raise InvalidInput("generators must share one dimension")
        if kind == "group" and inverses is None:
            inverses = [g.inverse() for g in generators]
        letters = cls.spell(len(generators), kind)
        elements = tuple(inverses[j] if inv else generators[j] for j, inv, _ in letters)
        compounds = tuple(
            tuple(
                compound_matrix(e.entries, k) if compound is None else compound(j, k, inv)
                for k in range(1, n)
            )
            for e, (j, inv, _) in zip(elements, letters)
        )
        return cls(elements=elements, letters=letters, compounds=compounds)

    @property
    def n(self) -> int:
        return self.elements[0].n

    def inverse_index(self, i: int):
        """The letter that cancels letter i, or None in a semigroup."""
        return self.letters[i][2]

    def labels(self) -> list:
        return [f"g{j + 1}^-1" if inv else f"g{j + 1}" for j, inv, _ in self.letters]

    def very_reduced(self, word) -> bool:
        """Whether the word is nonempty and no letter meets its inverse, cyclically."""
        return bool(word) and all(
            b != self.inverse_index(a) for a, b in zip(word, word[1:] + word[:1])
        )

    def product(self, word) -> "WordProduct":
        """The word's product, accumulated letter by letter from the identity."""
        product = empty_product(self.n)
        for i in word:
            product = extend_product(product, self.compounds[i])
        return WordProduct(word=tuple(word), n=self.n, compounds=product)


def reduced_words(alphabet: Alphabet, max_length: int):
    """Reduced words over the alphabet, lengths 1..max_length, in preorder.

    Depth first: each word is followed by all of its extensions before its
    next sibling.  The walk keeps an explicit stack, so long words do not
    recurse.
    """
    size = len(alphabet.elements)
    stack = [(i,) for i in reversed(range(size))]
    while stack:
        word = stack.pop()
        yield word
        if len(word) < max_length:
            cancel = alphabet.inverse_index(word[-1])
            stack.extend(word + (i,) for i in reversed(range(size)) if i != cancel)


@dataclass(frozen=True)
class WordSampler:
    """Deterministic word source over a generating family.

    `exhaustive` enumerates all (very) reduced words of length <= max_length in
    length-then-lex order; `random` draws `count` reduced words reproducibly.
    The words are spelled in `alphabet`, built once on construction.
    """

    generators: tuple
    kind: str = "semigroup"
    max_length: int = 4
    strategy: str = "exhaustive"
    seed: int = 0
    count: int = 0
    alphabet: Alphabet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.strategy not in ("exhaustive", "random"):
            raise InvalidInput(f"unknown strategy {self.strategy!r}")
        if self.max_length < 1:
            raise InvalidInput("max_length must be >= 1")
        if self.strategy == "random" and self.count < 1:
            raise InvalidInput("random strategy needs count >= 1")
        object.__setattr__(self, "alphabet", Alphabet.of(self.generators, self.kind))

    @property
    def n(self) -> int:
        return self.generators[0].n

    def expected_word_count(self) -> int:
        if self.strategy == "random":
            return self.count
        t = len(self.generators)
        if self.kind == "semigroup":
            return sum(t**l for l in range(1, self.max_length + 1))
        a = 2 * t
        total = a
        run = a
        for _ in range(2, self.max_length + 1):
            run *= a - 1
            total += run
        return total


@dataclass(frozen=True)
class WordProduct:
    """A word together with its log-scaled per-degree compound products."""

    word: tuple  # letter indices into the sampler's alphabet
    n: int
    compounds: tuple  # per degree (P_k, logscale_k), as in projections.empty_product

    @property
    def length(self) -> int:
        return len(self.word)

    def matrix(self) -> np.ndarray:
        p, ls = self.compounds[0]
        return np.exp(ls) * p

    def mu(self) -> ChamberVector:
        return product_projection(self.compounds, jordan=False)

    def lam(self) -> ChamberVector:
        return product_projection(self.compounds, jordan=True)


def enumerate_words(sampler: WordSampler) -> list[WordProduct]:
    """All sampled words with overflow-free products, in deterministic order."""
    if sampler.expected_word_count() > WORD_BUDGET:
        raise BudgetExceeded(
            f"{sampler.expected_word_count()} words exceed the {WORD_BUDGET} budget"
        )
    alphabet = sampler.alphabet
    results: list[WordProduct] = []

    if sampler.strategy == "random":
        rng = np.random.default_rng(int(sampler.seed))
        for _ in range(sampler.count):
            length = int(rng.integers(1, sampler.max_length + 1))
            word = []
            for _ in range(length):
                while True:
                    i = int(rng.integers(0, len(alphabet.elements)))
                    if not word or i != alphabet.inverse_index(word[-1]):
                        break
                word.append(i)
            results.append(alphabet.product(word))
        return results

    # stack[j] is the product of the current word's first j letters
    stack = [empty_product(sampler.n)]
    for word in reduced_words(alphabet, sampler.max_length):
        del stack[len(word):]
        stack.append(extend_product(stack[-1], alphabet.compounds[word[-1]]))
        results.append(WordProduct(word=word, n=sampler.n, compounds=stack[-1]))
    results.sort(key=lambda w: (w.length, w.word))
    return results


@dataclass(frozen=True)
class ConeEstimate:
    """Sampled Lyapunov directions with their convex-cone hull."""

    directions: tuple  # unit ChamberVector per distinct sampled direction
    hull_rays: tuple  # extreme directions, as ChamberVector
    hull_dim: int
    per_word_mu_lambda_gap: tuple  # sup-norm mu/lambda gap per sampled word
    word_lengths: tuple


def _greedy_distinct(candidates, count, tol, distances, same) -> list:
    """The items that a greedy in-order pass over `candidates` keeps.

    `candidates` yields `count` pairs (rep, item), rep a 1-D array.  An item
    is dropped when `same(item, k)` holds for an item k kept before it, so the
    first representative of a cluster wins.  `distances(kept, rep)` measures
    rep against the reps of all kept items in one vectorised call; it is the
    metric that `same` thresholds at `tol`, up to rounding.  Only kept items
    within 4 * tol are handed to `same`, which stays the decider, nearest
    first so that a duplicate is usually settled by one call.
    """
    kept_reps = None
    kept: list = []
    for r, item in candidates:
        if kept_reps is None:
            kept_reps = np.empty((count, r.shape[0]))
        dist = distances(kept_reps[: len(kept)], r)
        near = np.flatnonzero(dist <= 4.0 * tol)
        if not any(same(item, kept[j]) for j in near[np.argsort(dist[near])]):
            kept_reps[len(kept)] = r
            kept.append(item)
    return kept


def _distinct_rows(rows, tol):
    return _greedy_distinct(
        ((r, r) for r in rows),
        len(rows),
        tol,
        lambda kept, r: np.linalg.norm(kept - r, axis=1),
        lambda r, o: np.linalg.norm(r - o) <= tol,
    )


def estimate_cone(sampler: WordSampler, words=None) -> ConeEstimate:
    """Convex-cone hull of the normalized Jordan projections of sampled words."""
    if words is None:
        words = enumerate_words(sampler)
    n = sampler.n
    dirs = []
    gaps = []
    lengths = []
    for w in words:
        lam = w.lam()
        mu = w.mu()
        gaps.append(float(np.max(np.abs(mu.coords - lam.coords))))
        lengths.append(w.length)
        nl = float(np.linalg.norm(lam.coords))
        # a per-letter noise floor: log-scaled accumulation leaves O(eps)
        # residue per factor even when lambda vanishes exactly
        if nl > 1e-9 * max(1.0, float(w.length)):
            dirs.append(lam.coords / nl)
    if not dirs:
        raise DegenerateSample("no sampled word has a nonzero Jordan projection")
    distinct = _distinct_rows(dirs, 1e-12)
    mat = np.stack(distinct)
    hull_dim = int(np.linalg.matrix_rank(mat, tol=1e-9))
    basis = cones.chamber_basis(n)
    idx = cones.extreme_ray_indices(mat @ basis)
    return ConeEstimate(
        directions=tuple(ChamberVector.from_coords(d) for d in distinct),
        hull_rays=tuple(ChamberVector.from_coords(mat[i]) for i in idx),
        hull_dim=hull_dim,
        per_word_mu_lambda_gap=tuple(gaps),
        word_lengths=tuple(lengths),
    )


@dataclass(frozen=True)
class ConvexityReport:
    """Midpoint-convergence evidence for the convexity of the limit cone."""

    trials: int
    angular_errors: tuple  # per trial: errors at m = 1, 2, 4, 8 (radians)
    final_errors: tuple  # per trial: error at the largest m
    max_final_error: float
    all_in_hull: bool


def _angle(u, v) -> float:
    c = float(np.clip(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)), -1.0, 1.0))
    return float(np.arccos(c))


def check_convexity(
    estimate: ConeEstimate,
    sampler: WordSampler,
    trials: int = 20,
    seed: int = 0,
) -> ConvexityReport:
    """For random word pairs (w1, w2), lambda(w1^m w2^m)/(2m) must drift to the midpoint."""
    words = enumerate_words(sampler)
    rng = np.random.default_rng(int(seed))
    alphabet = sampler.alphabet
    hull = np.stack([r.coords for r in estimate.hull_rays])
    slack = np.sin(np.deg2rad(1.0))
    errors = []
    finals = []
    in_hull = True
    done = 0
    attempts = 0
    while done < trials and attempts < 50 * trials:
        attempts += 1
        w1 = words[int(rng.integers(0, len(words)))]
        w2 = words[int(rng.integers(0, len(words)))]
        # w1^m w2^m must stay reduced at every seam, for every m
        if not alphabet.very_reduced(w1.word * 2 + w2.word * 2):
            continue
        mid = 0.5 * (w1.lam().coords + w2.lam().coords)
        norm = float(np.linalg.norm(mid))
        if norm == 0.0:
            continue
        mid = mid / norm
        errs = []
        for m_rep in (1, 2, 4, 8):
            d = alphabet.product(w1.word * m_rep + w2.word * m_rep).lam().direction()
            if float(np.linalg.norm(d)) == 0.0:
                errs.append(np.pi)
                continue
            errs.append(_angle(d, mid))
            if cones.cone_distance(d, hull) > slack:
                in_hull = False
        errors.append(tuple(errs))
        finals.append(errs[-1])
        done += 1
    if done == 0:
        raise DegenerateSample("no admissible word pair found for convexity trials")
    return ConvexityReport(
        trials=done,
        angular_errors=tuple(errors),
        final_errors=tuple(finals),
        max_final_error=float(max(finals)),
        all_in_hull=in_hull,
    )


def compare_mu_lambda(sampler: WordSampler, words=None) -> list[float]:
    """Per word length l = 1..max_length, the max sup-norm gap ||mu(w) - lambda(w)||."""
    if words is None:
        words = enumerate_words(sampler)
    out = [0.0] * sampler.max_length
    for w in words:
        g = float(np.max(np.abs(w.mu().coords - w.lam().coords)))
        out[w.length - 1] = max(out[w.length - 1], g)
    return out


@dataclass(frozen=True)
class LimitSetSample:
    """Attracting points of proximal sampled words, one cloud per degree."""

    points: tuple  # per degree k=1..n-1: tuple of ProjectivePoint
    side: str  # "forward" | "backward"
    depth: int

    def cloud(self, k: int):
        return self.points[k - 1]


def _word_eigdata(w: WordProduct, backward: bool):
    """Per degree: (log eigen gap, attracting unit vector) of the word product."""
    out = []
    for p, _ in w.compounds:
        vals, vecs = np.linalg.eig(p)
        mod = np.abs(vals)
        order = np.argsort(mod)[::-1]
        if backward:
            # attracting line of the inverse: eigenvector of smallest modulus
            top_i, second_i = order[-1], order[-2]
        else:
            top_i, second_i = order[0], order[1]
        a, b = mod[top_i], mod[second_i]
        if min(a, b) <= 0.0:
            raise NotProximal("vanishing eigenvalue modulus")
        log_gap = abs(float(np.log(a) - np.log(b)))
        vec = np.real(vecs[:, top_i])
        if float(np.linalg.norm(vec)) == 0.0:
            raise NotProximal("no real attracting line")
        out.append((log_gap, vec))
    return out


def _merge_points(vectors) -> tuple:
    # candidates are made one at a time: only the kept points stay alive
    pts = (ProjectivePoint.from_vector(v) for v in vectors)
    return tuple(
        _greedy_distinct(
            ((p.rep, p) for p in pts),
            len(vectors),
            MERGE_TOL,
            lambda kept, r: chordal_distances(kept.T, r[:, None]),
            lambda cand, q: proj_distance(cand, q) <= MERGE_TOL,
        )
    )


def estimate_limit_set(
    sampler: WordSampler,
    side: str = "forward",
    epsilon_filter: float = DEFAULT_PROXIMALITY_FILTER,
    words=None,
) -> LimitSetSample:
    """Attracting points (per degree) of the sampled words that pass the log-gap filter."""
    if side not in ("forward", "backward"):
        raise InvalidInput(f"unknown side {side!r}")
    if words is None:
        words = enumerate_words(sampler)
    n = sampler.n
    clouds = [[] for _ in range(n - 1)]
    hits = 0
    for w in words:
        try:
            data = _word_eigdata(w, backward=(side == "backward"))
        except NotProximal:
            continue
        if any(log_gap <= epsilon_filter for log_gap, _ in data):
            continue
        hits += 1
        for k, (_, vec) in enumerate(data):
            clouds[k].append(vec)
    if hits == 0:
        raise DegenerateSample("no sampled word passed the proximality filter")
    return LimitSetSample(
        points=tuple(_merge_points(c) for c in clouds),
        side=side,
        depth=sampler.max_length,
    )


@dataclass(frozen=True)
class FacetSample:
    """A sampled quasiperiodic facet: forward and backward flags of one word."""

    word: tuple
    forward: tuple  # per degree: ProjectivePoint
    backward: tuple  # per degree: ProjectivePoint
    general_position: bool


def estimate_facets(
    sampler: WordSampler,
    epsilon_filter: float = DEFAULT_PROXIMALITY_FILTER,
    words=None,
) -> list[FacetSample]:
    """Per proximal sampled word, its attracting flag pair and a transversality flag."""
    if words is None:
        words = enumerate_words(sampler)
    out = []
    for w in words:
        fwd, bwd, gaps = [], [], []
        try:
            for p, _ in w.compounds:
                _, attracting, repelling = top_eigendata(p)
                fwd.append(attracting)
                gaps.append(
                    abs(float(repelling.covector @ attracting.rep))
                )
            for log_gap, vec in _word_eigdata(w, backward=True):
                bwd.append(ProjectivePoint.from_vector(vec))
        except NotProximal:
            continue
        out.append(
            FacetSample(
                word=w.word,
                forward=tuple(fwd),
                backward=tuple(bwd),
                general_position=bool(min(gaps) > epsilon_filter),
            )
        )
    if not out:
        raise DegenerateSample("no sampled word is proximal at every degree")
    return out
