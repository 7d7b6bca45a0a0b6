"""Sampled estimates of the limit cone, the limit set, and quasiperiodic facets.

Words of a finitely generated (semi)group are enumerated or drawn, their
products accumulated in log-scaled exterior-power form, and their Cartan and
Jordan projections, attracting flags, and convex-cone hull are read off.
A word is a tuple of letter indices into an `Alphabet`; `WordSampler.words`
lists the sampled ones: all reduced words up to its `max_length` when its
`count` is 0, else `count` drawn ones.  Enumerated words are made one length
at a time: each level is one batch, extended from the previous level by one
batched matmul per exterior degree and read off by one batched decomposition
per degree.  Any other word list, drawn or supplied through `words=`, is one
ragged batch (`Alphabet.accumulate`).
"""

from dataclasses import dataclass, field

import numpy as np

from . import cones
from .errors import BudgetExceeded, DegenerateSample, InvalidInput, check_seed
from .projgeom import (
    ProjectivePoint,
    canonical_units,
    chordal_distances,
    exterior_power,
    proj_distance,
    row_norms,
)
from .projections import (
    ChamberVector,
    empty_product,
    extend_product,
    lyapunov_directions,
    product_projection,
    take_words,
)
from .proximality import eigen_splittings, repelling_covectors

WORD_BUDGET = 10**6
MERGE_TOL = 1e-9
DEFAULT_PROXIMALITY_FILTER = 1e-6


@dataclass(frozen=True)
class Alphabet:
    """E_Gamma: the letters words are spelled in.

    The letters are the generators, then, for a group, their inverses in the
    same order; each letter's exterior powers are its `exterior_power`s.
    Build one with `Alphabet.of`, the only place the letters are laid out; a
    word is a sequence of letter indices.  `inverse_index` gives the (g, g^-1)
    pairs that the Schottky condition, and so the forge, exempts from separation.
    """

    elements: tuple  # GroupElement per letter
    letters: tuple  # per letter: (generator, inverted, the letter that cancels it or None)

    @classmethod
    def of(cls, generators, kind="semigroup") -> "Alphabet":
        """E_Gamma of the generators; a group's letters include their inverses."""
        generators = tuple(generators)
        if kind not in ("semigroup", "group"):
            raise InvalidInput(f"unknown kind {kind!r}")
        if not generators:
            raise InvalidInput("need at least one generator")
        n = generators[0].n
        if any(g.n != n for g in generators):
            raise InvalidInput("generators must share one dimension")
        t = len(generators)
        letters = tuple((j, False, t + j if kind == "group" else None) for j in range(t))
        if kind == "group":
            letters += tuple((j, True, j) for j in range(t))
        elements = tuple(
            generators[j].inverse() if inv else generators[j] for j, inv, _ in letters
        )
        return cls(elements=elements, letters=letters)

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

    def accumulate(self, words) -> tuple:
        """The words' products as one batch (see `projections.empty_product`).

        Every word is accumulated letter by letter from the identity; at each
        position the words that are still being spelled take one batched step.
        """
        lengths = np.array([len(w) for w in words], dtype=int)
        spelled = np.zeros((len(words), int(lengths.max(initial=0))), dtype=int)
        for row, word in enumerate(words):
            spelled[row, : len(word)] = word
        product = empty_product(self.n, len(words))
        for pos in range(spelled.shape[1]):
            rows = np.flatnonzero(lengths > pos)
            step = extend_product(take_words(product, rows), self._stacked(spelled[rows, pos]))
            for (p, ls), (q, qs) in zip(product, step):
                p[rows], ls[rows] = q, qs
        return product

    def _stacked(self, letters) -> list:
        """Per degree, the exterior powers of the given letters as one (N, d, d) stack."""
        return [
            np.stack([exterior_power(e, k) for e in self.elements])[letters]
            for k in range(1, self.n)
        ]

    def levels(self, max_length: int):
        """The reduced words of lengths 1..max_length, one level per length.

        Per level, (words, parent, letter): the words in lex order, and per
        word the row of its prefix in the previous level and its last letter.
        """
        size = len(self.elements)
        # the letter that may not follow each letter; the empty word's last
        # letter is the sentinel -1, which blocks nothing
        blocked = np.array([-1 if c is None else c for _, _, c in self.letters] + [-1])
        level, last = [()], np.array([-1])
        for _ in range(max_length):
            parent = np.repeat(np.arange(len(level)), size)
            letter = np.tile(np.arange(size), len(level))
            keep = letter != blocked[last[parent]]
            parent, letter = parent[keep], letter[keep]
            level = [level[j] + (i,) for j, i in zip(parent.tolist(), letter.tolist())]
            last = letter
            yield level, parent, letter


@dataclass(frozen=True)
class WordSampler:
    """Deterministic word source over a generating family.

    `count` 0, the default, enumerates all reduced words of length <=
    max_length in length-then-lex order; `count` >= 1 draws that many reduced
    words of length <= max_length reproducibly from `seed`.  The words are
    spelled in `alphabet`, built once on construction.
    """

    generators: tuple
    kind: str = "semigroup"
    max_length: int = 4
    seed: int = 0
    count: int = 0
    alphabet: Alphabet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.max_length < 1:
            raise InvalidInput("max_length must be >= 1")
        if self.count < 0:
            raise InvalidInput(f"count must be >= 0, got {self.count}")
        check_seed(self.seed)
        object.__setattr__(self, "alphabet", Alphabet.of(self.generators, self.kind))

    @property
    def n(self) -> int:
        return self.generators[0].n

    @property
    def strategy(self) -> str:
        """How the words are made, read off `count`: "exhaustive" or "random"."""
        return "random" if self.count else "exhaustive"

    def expected_word_count(self) -> int:
        if self.count:
            return self.count
        # a reduced word's later letters may not cancel the one before them
        a = len(self.alphabet.elements)
        step = a if self.kind == "semigroup" else a - 1
        return sum(a * step ** (l - 1) for l in range(1, self.max_length + 1))

    def words(self) -> list:
        """The sampled words as letter tuples, in the order the estimators read them.

        `count` 0: the reduced words of `Alphabet.levels`, length then lex.
        Otherwise `count` reduced words drawn letter by letter from the seed.
        """
        _check_budget(self.expected_word_count())
        if not self.count:
            return [w for level, _, _ in self.alphabet.levels(self.max_length) for w in level]
        alphabet = self.alphabet
        rng = np.random.default_rng(int(self.seed))
        words = []
        for _ in range(self.count):
            word = []
            for _ in range(int(rng.integers(1, self.max_length + 1))):
                while True:
                    i = int(rng.integers(0, len(alphabet.elements)))
                    if not word or i != alphabet.inverse_index(word[-1]):
                        break
                word.append(i)
            words.append(tuple(word))
        return words


def _check_budget(count: int):
    if count > WORD_BUDGET:
        raise BudgetExceeded(f"{count} words exceed the {WORD_BUDGET} budget")


def _supplied(sampler: WordSampler, words) -> list:
    """A caller's words as letter tuples, each checked against the sampler."""
    words = [tuple(w) for w in words]
    _check_budget(len(words))
    if not words:
        raise DegenerateSample("no words were supplied")
    size = len(sampler.alphabet.elements)
    for w in words:
        if not 1 <= len(w) <= sampler.max_length:
            raise InvalidInput(f"word {w} must have 1 to {sampler.max_length} letters")
        if not all(isinstance(i, (int, np.integer)) and 0 <= i < size for i in w):
            raise InvalidInput(f"word {w} spells a letter outside the {size}-letter alphabet")
    return words


def _batches(sampler: WordSampler, words=None):
    """The words as batches (words, accumulated product), in order.

    Enumerated words come as one batch per length, each in lex order, so the
    batches run in length-then-lex order; each level extends the previous
    level's product by one letter, and only that product is kept.  Any word
    list, drawn (`count` >= 1) or a caller's `words` (letter sequences over
    `sampler.alphabet`, checked here), is one batch accumulated by
    `Alphabet.accumulate`.
    """
    alphabet = sampler.alphabet
    if words is None and not sampler.count:
        _check_budget(sampler.expected_word_count())
        product = empty_product(sampler.n)
        for level, parent, letter in alphabet.levels(sampler.max_length):
            product = extend_product(take_words(product, parent), alphabet._stacked(letter))
            yield level, product
        return
    words = sampler.words() if words is None else _supplied(sampler, words)
    yield words, alphabet.accumulate(words)


@dataclass(frozen=True)
class ConeEstimate:
    """Sampled Lyapunov directions with their convex-cone hull."""

    directions: tuple  # unit ChamberVector per distinct sampled direction
    hull_rays: tuple  # extreme directions, as ChamberVector
    hull_dim: int
    per_word_mu_lambda_gap: tuple  # sup-norm mu/lambda gap per sampled word
    word_lengths: tuple


def _dedup_keys(reps) -> np.ndarray:
    """|reps @ u| for a fixed generic unit vector u.

    For rows a, b, ||a @ u| - |b @ u|| <= min(||a - b||, ||a + b||), so rows
    within a distance, or a chordal distance, t have keys within t, up to
    rounding.
    """
    u = np.sqrt(np.arange(1.0, reps.shape[1] + 1))
    return np.abs(reps @ (u / np.linalg.norm(u)))


def _greedy_distinct(reps, tol, merges) -> list:
    """The indices of the rows of `reps` that a greedy in-order pass keeps.

    Row j is dropped when row i, kept before it, merges it, so the first
    representative of a cluster wins.  Each kept row drops its later
    duplicates at once: `merges(later, i)` is called once per kept row i
    whose key window holds alive later rows, with their index array `later`
    (the rows whose keys lie within 4 * tol of its own, see `_dedup_keys`; a
    row beyond that is farther than tol), and returns one bool per row, True
    for the rows that merge into row i.
    """
    keys = _dedup_keys(reps)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    lo = np.searchsorted(sorted_keys, keys - 4.0 * tol, side="left").tolist()
    hi = np.searchsorted(sorted_keys, keys + 4.0 * tol, side="right").tolist()
    alive = np.ones(len(reps), dtype=bool)
    kept = []
    for i in range(len(reps)):
        if not alive[i]:
            continue
        kept.append(i)
        window = order[lo[i] : hi[i]]
        later = window[(window > i) & alive[window]]
        if later.size:
            alive[later[merges(later, i)]] = False
    return kept


def _distinct_rows(rows, tol) -> np.ndarray:
    """The rows the greedy pass keeps at Euclidean distance `tol`, as one array."""
    rows = np.asarray(rows, dtype=float)
    # the bits of np.linalg.norm(rows[j] - rows[i]) per later row j
    kept = _greedy_distinct(rows, tol, lambda later, i: row_norms(rows[later] - rows[i]) <= tol)
    return rows[kept]


def estimate_cone(sampler: WordSampler, words=None) -> ConeEstimate:
    """Convex-cone hull of the normalized Jordan projections of sampled words."""
    n = sampler.n
    dirs = []
    gaps = []
    lengths = []
    for batch, product in _batches(sampler, words):
        lam = product_projection(product, jordan=True)
        mu = product_projection(product, jordan=False)
        length = np.array([len(w) for w in batch])
        gaps.append(np.max(np.abs(mu - lam), axis=1))
        lengths.append(length)
        dirs.append(lyapunov_directions(lam, length)[1])
    dirs = np.concatenate(dirs) if dirs else np.empty((0, n))
    if not len(dirs):
        raise DegenerateSample("no sampled word has a nonzero Jordan projection")
    distinct = _distinct_rows(dirs, 1e-12)
    hull_dim = int(np.linalg.matrix_rank(distinct, tol=1e-9))
    basis = cones.chamber_basis(n)
    idx = cones.extreme_ray_indices(distinct @ basis)
    return ConeEstimate(
        directions=tuple(ChamberVector.from_coords(d) for d in distinct),
        hull_rays=tuple(ChamberVector.from_coords(distinct[i]) for i in idx),
        hull_dim=hull_dim,
        per_word_mu_lambda_gap=tuple(np.concatenate(gaps).tolist()),
        word_lengths=tuple(np.concatenate(lengths).tolist()),
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
    """For random word pairs (w1, w2), lambda(w1^m w2^m)/(2m) must drift to the midpoint.

    Pairs of `sampler.words()` are drawn from `seed` until `trials` of them
    keep w1^m w2^m very reduced, or 50 * trials draws are spent.  The drawn
    words and their powers, m = 1, 2, 4, 8, are read in one batch.  A pair
    whose midpoint (lambda(w1) + lambda(w2))/2 has no direction
    (`lyapunov_directions`, at the mean length) is dropped, not redrawn, so
    the report's `trials` counts the pairs kept; a power without a direction
    scores pi.
    """
    if trials < 1:
        raise InvalidInput(f"trials must be >= 1, got {trials}")
    check_seed(seed)
    words = sampler.words()
    alphabet = sampler.alphabet
    rng = np.random.default_rng(int(seed))
    pairs = []
    attempts = 0
    while len(pairs) < trials and attempts < 50 * trials:
        attempts += 1
        w1 = words[int(rng.integers(0, len(words)))]
        w2 = words[int(rng.integers(0, len(words)))]
        # w1^m w2^m must stay reduced at every seam, for every m
        if alphabet.very_reduced(w1 * 2 + w2 * 2):
            pairs.append((w1, w2))
    reps = (1, 2, 4, 8)
    spelled = [w for w1, w2 in pairs for w in (w1, w2, *(w1 * m + w2 * m for m in reps))]
    lam = product_projection(alphabet.accumulate(spelled), jordan=True)
    lam = lam.reshape(len(pairs), 2 + len(reps), sampler.n)
    lengths = np.array([len(w1) + len(w2) for w1, w2 in pairs], dtype=float)
    kept, mids = lyapunov_directions(0.5 * (lam[:, 0] + lam[:, 1]), 0.5 * lengths)
    if not len(mids):
        raise DegenerateSample("no admissible word pair found for convexity trials")
    powers = lam[kept, 2:].reshape(-1, sampler.n)
    has, units = lyapunov_directions(powers, np.outer(lengths[kept], reps).reshape(-1))
    errors = np.full(len(powers), np.pi)
    mids = np.repeat(mids, len(reps), axis=0)[has]
    errors[has] = [_angle(d, mid) for d, mid in zip(units, mids)]
    errors = errors.reshape(-1, len(reps))
    hull = np.stack([r.coords for r in estimate.hull_rays])
    slack = np.sin(np.deg2rad(1.0))
    return ConvexityReport(
        trials=len(errors),
        angular_errors=tuple(map(tuple, errors.tolist())),
        final_errors=tuple(errors[:, -1].tolist()),
        max_final_error=float(errors[:, -1].max()),
        all_in_hull=not any(cones.cone_distance(d, hull) > slack for d in units),
    )


def compare_mu_lambda(sampler: WordSampler, words=None) -> list[float]:
    """Per word length l = 1..max_length, the max sup-norm gap ||mu(w) - lambda(w)||.

    A length that no sampled word has gets NaN: there is no gap to report.
    """
    out = np.full(sampler.max_length, -np.inf)
    for batch, product in _batches(sampler, words):
        mu = product_projection(product, jordan=False)
        lam = product_projection(product, jordan=True)
        np.maximum.at(out, [len(w) - 1 for w in batch], np.max(np.abs(mu - lam), axis=1))
    out[out == -np.inf] = np.nan
    return out.tolist()


@dataclass(frozen=True)
class LimitSetSample:
    """Attracting points of proximal sampled words, one cloud per degree."""

    points: tuple  # per degree k=1..n-1: tuple of ProjectivePoint
    side: str  # "forward" | "backward"
    depth: int

    def cloud(self, k: int):
        return self.points[k - 1]


def _points(vectors) -> np.ndarray:
    """The rows' canonical units, read-only: each row is a `ProjectivePoint.rep`."""
    reps = canonical_units(vectors, "projective point representative")
    reps.flags.writeable = False
    return reps


def _merge_points(vectors) -> tuple:
    reps = _points(vectors)
    # the vectorised prefilter's relative slack over the exact decider's
    # threshold: far above the few ulps by which their summation orders differ
    reach = MERGE_TOL * (1.0 + 2.0**-20)

    def merges(later, i):
        near = chordal_distances(reps[later].T, reps[i][:, None]) <= reach
        # prefilter and decider become one test once proj_distance is unpinned (ROADMAP item 3)
        rows = later[near].tolist()
        if rows:
            # points are made only for the rows compared and kept, the kept one once
            point = ProjectivePoint(rep=reps[i])
            near[near] = [
                proj_distance(ProjectivePoint(rep=reps[j]), point) <= MERGE_TOL for j in rows
            ]
        return near

    return tuple(ProjectivePoint(rep=reps[k]) for k in _greedy_distinct(reps, MERGE_TOL, merges))


def _flag_readout(sampler: WordSampler, words=None):
    """Per batch of `_batches`: (words, product, (forward, backward), kept).

    Each side is one `eigen_splittings` Splitting per degree.  `kept` is, per
    side, the one keep rule: the rows proximal at every degree, with a
    positive runner-up modulus and a log gap above DEFAULT_PROXIMALITY_FILTER."""
    for batch, product in _batches(sampler, words):
        sides = tuple(zip(*(eigen_splittings(p) for p, _ in product)))
        with np.errstate(divide="ignore"):
            # a vanishing runner-up modulus has no finite log gap
            kept = [
                np.logical_and.reduce([
                    s.proximal & (s.second > 0.0)
                    & (np.abs(np.log(s.top) - np.log(s.second)) > DEFAULT_PROXIMALITY_FILTER)
                    for s in side
                ])
                for side in sides
            ]
        yield batch, product, sides, kept


def estimate_limit_set(sampler: WordSampler, side: str = "forward", words=None) -> LimitSetSample:
    """Attracting points (per degree) of the sampled words `_flag_readout` keeps on `side`."""
    if side not in ("forward", "backward"):
        raise InvalidInput(f"unknown side {side!r}")
    backward = side == "backward"
    clouds = [[] for _ in range(sampler.n - 1)]
    for _, _, sides, kept in _flag_readout(sampler, words):
        for cloud, s in zip(clouds, sides[backward]):
            cloud.append(s.vectors[kept[backward]])
    clouds = [np.concatenate(c) for c in clouds]
    if not len(clouds[0]):
        raise DegenerateSample("no sampled word passed the proximality filter")
    return LimitSetSample(tuple(_merge_points(c) for c in clouds), side, sampler.max_length)


@dataclass(frozen=True)
class FacetSample:
    """A sampled quasiperiodic facet: forward and backward flags of one word."""

    word: tuple
    forward: tuple  # per degree: ProjectivePoint
    backward: tuple  # per degree: ProjectivePoint
    general_position: bool


def estimate_facets(sampler: WordSampler, words=None) -> list[FacetSample]:
    """Per sampled word `_flag_readout` keeps on both sides, its attracting flag
    pair and a transversality flag.

    So a word yields a facet when the limit set keeps it both ways.  A batch's
    kept rows are read as stacks, one `canonical_units` per side and degree,
    and their repelling covectors from one transposed `eig` per degree, none
    when no row is kept.  The flags are in general position when every
    forward gap min(1, |phi . x|) exceeds DEFAULT_PROXIMALITY_FILTER.
    """
    out = []
    for batch, product, (forward, backward), kept in _flag_readout(sampler, words):
        rows = np.flatnonzero(kept[0] & kept[1])
        if not rows.size:
            continue
        fwd, bwd = ([_points(s.vectors[rows]) for s in side] for side in (forward, backward))
        gaps = []
        for (p, _), s, x in zip(product, forward, fwd):
            phi = repelling_covectors(p[rows], s.eigenvalue[rows])
            phi = canonical_units(phi, "hyperplane covector")
            # one dot product per row, the bits of each row's phi @ x
            gaps.append(np.abs(phi[:, None, :] @ x[:, :, None]).reshape(-1))
        general = np.minimum(1.0, np.min(gaps, axis=0)) > DEFAULT_PROXIMALITY_FILTER
        for i, row in enumerate(rows.tolist()):
            flags = [tuple(ProjectivePoint(rep=x[i]) for x in side) for side in (fwd, bwd)]
            out.append(FacetSample(batch[row], *flags, bool(general[i])))
    if not out:
        raise DegenerateSample("no sampled word passed the proximality filter both ways")
    return out
