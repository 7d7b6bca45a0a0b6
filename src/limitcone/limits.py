"""Sampled estimates of the limit cone, the limit set, and quasiperiodic facets.

Words of a finitely generated (semi)group are enumerated or drawn, their
products accumulated in log-scaled exterior-power form, and their Cartan and
Jordan projections, attracting flags, and convex-cone hull are read off.
A word is a sequence of letter indices into an `Alphabet`, and inside the
estimators a row of one letter array (`_spell`); `WordSampler.words` lists
the sampled ones as tuples: all reduced words up to its `max_length` when its
`count` is 0, else `count` drawn ones, each drawn by one generator call for
its letters on the stream of the letter-by-letter draw.  Enumerated words are
made one length at a time (`Alphabet.levels`): each level's products extend
the previous level's by one batched matmul per exterior degree and are read
off by one batched decomposition per degree, so one level's products are
held at a time.  Any other word list, drawn or supplied through `words=`, is
one ragged batch (`Alphabet.accumulate`), spelled longest word first so that
the words still being spelled are a prefix of the batch.
The cone and the mu/lambda comparison share one readout (`_class_readout`),
which reads lambda once per conjugacy class (`_classes`), lambda(u v u^-1) =
lambda(v): from the class's first shortest word, by one rule over the whole
list, whether enumerated, drawn or supplied; for enumerated words that word
is the least rotation of the cyclic core.  Every other word copies that
row, which also spares a conjugated group word its ill-conditioned `eig`; a
listed class with no cyclically reduced member is read from its core.  mu is
read per word.

Both sides of the limit set read their flags once per class too.  Let R
be a word's class representative and p its lead prefix: for the word
w = u v u^-1 with core v = a b and R = b a, p = u a, and w = p s with
s = b u^-1.  Then w p = p R, since u^-1 u cancels: w p = u a b a = p R,
and R = s p.  Write P_x for the k-th compound of a word x.  For every
eigenvector y of P_R, P_p y is an eigenvector of P_w for the same
eigenvalue (P_w P_p y = P_p P_R y), so x+(w) = P_p x+(R) at every degree,
in semigroups and groups alike; w's moduli are R's.  For a left one,
phi^T P_R = alpha phi^T, and phi^T P_s P_w = phi^T P_s P_p P_s =
alpha phi^T P_s, so the repelling covector is phi(w) = P_s^T phi(R).  `eig`
reads the representatives and their transposes, and every other word's
vector is one matvec by its prefix's product, its covector one by its
suffix's.  In a Schottky semigroup neither carry loses digits: x+(R) lies
near the top of P_s's range, which P_p does not contract, and phi(R) near
the top of P_p^T's, which P_s^T does not.
The backward flag x-(w), the attracting point of w^-1, is the Hodge star
of a covector.  Let * take a vector b of degree n - k to (*b)[I] =
sgn(I, I^c) b[I^c] of degree k, sgn the parity of I followed by I^c: a
signed permutation, so *^-T = *.  The wedge product is a^b =
<a, *b> e_1^...^e_n, and (g a)^(g b) = det(g) a^b, so for g in SL(n)
Lambda^k(g)^T * Lambda^(n-k)(g) = *.  Then * Lambda^(n-k)(g) *^-1 =
Lambda^k(g)^-T, and transposed, Lambda^k(g^-1) = * Lambda^(n-k)(g)^T *^-1:
the top eigenvector of Lambda^k(w^-1) is *phi_(n-k)(w), with the moduli
of Lambda^(n-k)(w).  So the backward gap of degree k is the forward gap of
degree n - k, both sides keep the same words, and only top eigenvectors
are read: a bottom one is rounding noise once the product's span passes
about log(1/eps), 36.
Directions and points are deduplicated by one greedy kernel over a sorted-key
window (`_greedy_distinct`), which keeps a row alone in its window without
touching an array; the cone's kept directions are one checked stack
(`ChamberVector.from_rows`).
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import cones
from .errors import BudgetExceeded, DegenerateSample, InvalidInput, as_index, check_seed
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
from .proximality import Splitting, eigen_splittings

WORD_BUDGET = 10**6
MERGE_TOL = 1e-9
DEFAULT_PROXIMALITY_FILTER = 1e-6
_INT64_MAX = int(np.iinfo(np.int64).max)


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

        `words` is a list of letter sequences, or the array `_spell` makes of
        one.  Every word is accumulated letter by letter from the identity.
        The words are spelled longest first (a stable sort by length), so at
        each position the words still being spelled are a prefix of the batch,
        which takes one batched step in place; the rows return to the given
        order at the end.  A row's bits do not depend on the rows batched with
        it (see `projections`), so each row is its word accumulated alone.
        """
        spelled = words if isinstance(words, np.ndarray) else _spell(words)
        lengths = np.count_nonzero(spelled >= 0, axis=1)
        order = np.argsort(-lengths, kind="stable")
        lengths, spelled = lengths[order], spelled[order]
        powers = self._letter_powers()
        product = empty_product(self.n, len(spelled))
        for pos in range(spelled.shape[1]):
            k = int(np.count_nonzero(lengths > pos))
            head = tuple((p[:k], ls[:k]) for p, ls in product)
            step = extend_product(head, [c[spelled[:k, pos]] for c in powers])
            for (p, ls), (q, qs) in zip(head, step):
                p[...], ls[...] = q, qs
        return take_words(product, np.argsort(order))  # the inverse permutation

    def _letter_powers(self) -> list:
        """Per degree, the exterior powers of every letter as one (size, d, d) stack."""
        return [np.stack([exterior_power(e, k) for e in self.elements]) for k in range(1, self.n)]

    def levels(self, max_length: int):
        """The reduced words of lengths 1..max_length, one level per length.

        Per level, (spelled, parent): the words in lex order as one (N,
        length) array of letters, a row per word, and per word the row of
        its prefix in the previous level; its last letter is its last column.
        """
        size = len(self.elements)
        # the letter that may not follow each letter; the empty word's last
        # letter is the sentinel -1, which blocks nothing
        blocked = np.append(_cancels(self), -1)
        spelled, last = np.zeros((1, 0), dtype=int), np.array([-1])
        for _ in range(max_length):
            parent = np.repeat(np.arange(len(spelled)), size)
            letter = np.tile(np.arange(size), len(spelled))
            keep = letter != blocked[last[parent]]
            parent, last = parent[keep], letter[keep]
            spelled = np.concatenate([spelled[parent], last[:, None]], axis=1)
            yield spelled, parent


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
        if as_index(self.max_length, "max_length") < 1:
            raise InvalidInput("max_length must be >= 1")
        if as_index(self.count, "count") < 0:
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

        The estimators read the same words as rows of letter arrays; the
        tuples are made here, for the caller.  `count` 0: the reduced words
        of `Alphabet.levels`, length then lex.  Otherwise `count` reduced
        words drawn from the seed, each by one call for its length and one
        call for its letters, walked in order: a letter that cancels the one
        kept before it is dropped, and the letters still missing are drawn by
        one more call.  For one range, a call of size k gives the values of k
        scalar calls, so the words are those drawn letter by letter, with
        each cancelling letter redrawn.
        """
        _check_budget(self.expected_word_count())
        if not self.count:
            levels = self.alphabet.levels(self.max_length)
            return [tuple(w) for spelled, _ in levels for w in spelled.tolist()]
        size = len(self.alphabet.elements)
        cancels = [c for _, _, c in self.alphabet.letters]
        rng = np.random.default_rng(int(self.seed))
        words = []
        for _ in range(self.count):
            length = int(rng.integers(1, self.max_length + 1))
            word = []
            while len(word) < length:
                for i in rng.integers(0, size, size=length - len(word)).tolist():
                    if not word or i != cancels[word[-1]]:
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


def _spell(words) -> np.ndarray:
    """The words as one (N, longest) integer array: row i holds word i's
    letters, then -1 in the positions past its end."""
    lengths = np.array([len(w) for w in words], dtype=int)
    letters = np.fromiter(itertools.chain.from_iterable(words), dtype=int)
    if (letters < 0).any():
        # -1 marks the end of a word
        raise InvalidInput("letters are indices from 0")
    spelled = np.full((len(words), int(lengths.max(initial=0))), -1, dtype=int)
    spelled[np.arange(spelled.shape[1]) < lengths[:, None]] = letters
    return spelled


def _cancels(alphabet) -> np.ndarray:
    """Per letter, the letter that cancels it, or -1."""
    return np.array([-1 if c is None else c for _, _, c in alphabet.letters])


def _cyclic_classes(spelled, lengths, cancels) -> tuple:
    """Per word of `spelled` (see `_spell`), of `lengths` letters: (core, key,
    canon, lead), its conjugacy class.

    `cancels[i]` is the letter that cancels letter i, or -1.  A word's cyclic
    core drops the letters at both ends that cancel each other, while one
    letter stays between them: u v u^-1 gives v, a conjugate.  Rotating the
    core conjugates it again, so two words whose cores have equal least
    rotations are conjugate in any group; among the reduced words of a free
    (semi)group they are conjugate exactly then.  `core` holds the cores'
    lengths and `canon` their least rotations, concatenated in row order; two
    words have equal least rotations when they have equal `core` and `key`.
    `lead` is the length of the prefix p that ends where the least rotation
    R of the core starts: the word w is u v u^-1 with v = a b and R = b a,
    p = u a, and w p = u a b a = p R.

    Every rotation of every core is ranked at once by doubling: after the
    step of span m, a position's key orders the m letters read cyclically
    from it, and the pair (key at p, key at p + m) orders the 2m letters.
    A key below `bound` is paired as two base-`bound` digits while bound**2
    fits int64 (over two letters, up to span 32), and the keys are replaced
    by their ranks among themselves before a pairing would overflow, so no
    code overflows, whatever the alphabet and the lengths.  Once m reaches
    the longest core, two positions of one core have equal keys only when
    their rotations are equal, and a core's least key marks its least
    rotation.  Memory is O(letters) and the work O(letters * log(longest
    core)).
    """
    n_words, width = spelled.shape
    start = np.zeros(n_words, dtype=int)
    if (cancels >= 0).any():
        # at most (width - 1) // 2 letters go from each end
        cols = np.arange((width - 1) // 2)
        mirror = np.take_along_axis(spelled, np.maximum(lengths[:, None] - 1 - cols, 0), axis=1)
        # letter p cancels letter length - 1 - p, with a letter left between them
        ends = (cancels[spelled[:, : len(cols)]] == mirror) & (2 * cols + 2 < lengths[:, None])
        start = np.logical_and.accumulate(ends, axis=1).sum(axis=1)
    core = lengths - 2 * start
    first = np.cumsum(core) - core  # each core's first position
    head, wrap = np.repeat(first, core), np.repeat(core, core)
    pos = np.arange(head.size) - head
    letters = spelled.ravel()[np.repeat(np.arange(n_words) * width + start, core) + pos]
    # the position `span` letters on, cyclically within the core
    succ = head + (pos + 1) % wrap
    key, bound, span = letters, len(cancels), 1
    # with one possible key, every rotation reads the same
    while span < core.max() and bound > 1:
        if bound > _INT64_MAX // bound:
            distinct, key = np.unique(key, return_inverse=True)
            bound = len(distinct)
        key = key * bound + key[succ]
        bound, span, succ = bound * bound, 2 * span, succ[succ]
    least = np.minimum.reduceat(key, first)
    # the least rotation starts at any position holding its core's least key
    shift = np.minimum.reduceat(np.where(key == np.repeat(least, core), pos, width), first)
    canon = letters[head + (pos + np.repeat(shift, core)) % wrap]
    return core, least, canon, start + shift


def _first_shortest(core, key, lengths) -> np.ndarray:
    """Per word, the first of the shortest words with its core's least rotation."""
    order = np.lexsort((lengths, key, core))  # stable: ties keep the word order
    c, k = core[order], key[order]
    head = np.flatnonzero(np.r_[True, (c[1:] != c[:-1]) | (k[1:] != k[:-1])])
    rep = np.empty_like(order)
    rep[order] = np.repeat(order[head], np.diff(np.r_[head, len(order)]))
    return rep


def _classes(sampler: WordSampler, words=None):
    """Per batch of the sampled words, in order: (product, spelled, cls,
    lead, new), the batch's accumulated product and letters (`_spell`) and
    its class map.

    Enumerated words (`count` 0, no `words`) come one level of
    `Alphabet.levels` per batch, each level's product extending the
    previous level's by one letter, so one level's product is held at a
    time.  Any other list, drawn (`count` >= 1) or a caller's `words`
    (letter sequences over `sampler.alphabet`, checked here), is one batch
    accumulated by `Alphabet.accumulate`.

    One rule maps every list, over its whole letter array at once.  `cls`
    is per word the index of its class, and `new` the accumulated product
    of the representatives of the classes the batch meets first, in index
    order.  A class's representative r is its shortest word in the list,
    the first one when several are that short (`_first_shortest`), or,
    when that word is not cyclically reduced, the least rotation R of its
    core: `eig` of u v u^-1 has condition number about exp(mu_1 -
    lambda_1).  Such a bare class is numbered after the listed ones and read
    with the last batch.  `lead` (>= 0) is per word the length of the prefix
    p that carries r's flags to the word w, w p = p r (see the module
    docstring): 0 for r itself and its repeats in a list.

    In a list of all reduced words up to a length, in length-then-lex
    order, r is R, so such a list has no bare class.  Let w be a listed
    word with core v.  Its class's words are those whose cores are
    rotations of v (`_cyclic_classes`); a word is its core with letters
    added at both ends, so the class's words of |v| letters are the
    rotations of v, and the others are longer.  Each rotation of v is
    reduced, since v is cyclically reduced, and no longer than w, so each
    is listed.  The class's first shortest word is then the first rotation
    of v in the list, and as all of them are |v| letters long, that is the
    least in lex order: R.
    """
    alphabet = sampler.alphabet
    if words is None and not sampler.count:
        _check_budget(sampler.expected_word_count())
        levels = list(alphabet.levels(sampler.max_length))
        # every level's rows, padded with -1 to the longest (see `_spell`)
        spelled = np.concatenate([
            np.pad(s, [(0, 0), (0, sampler.max_length - s.shape[1])], constant_values=-1)
            for s, _ in levels
        ])
    else:
        words = sampler.words() if words is None else _supplied(sampler, words)
        spelled = _spell(words)
        levels = [(spelled, None)]
    length = np.count_nonzero(spelled >= 0, axis=1)
    core, key, canon, lead = _cyclic_classes(spelled, length, _cancels(alphabet))
    rep = _first_shortest(core, key, length)
    # the listed representatives first, then the cores of the others
    reps = np.unique(rep)
    reps = reps[np.argsort(core[reps] < length[reps], kind="stable")]
    index = np.empty(len(spelled), dtype=int)
    index[reps] = np.arange(len(reps))
    bare = reps[core[reps] < length[reps]]
    listed = reps[: len(reps) - len(bare)]
    start = (length - core) // 2
    # r = rot(v, m) with m = (shift of w - shift of r) mod |v|, R's shift
    # being 0, and w (u v[:m]) = u v v[:m] = (u v[:m]) r
    shift = lead - start
    lead = start + (shift - np.where(core[rep] == length[rep], shift[rep], 0)) % core
    cls, lo = index[rep], 0
    product, powers = empty_product(sampler.n), alphabet._letter_powers()
    for batch, parent in levels:
        if parent is None:
            product = alphabet.accumulate(batch)
        else:
            product = extend_product(take_words(product, parent), [c[batch[:, -1]] for c in powers])
        hi = lo + len(batch)
        new = take_words(product, listed[(lo <= listed) & (listed < hi)] - lo)
        if bare.size and hi == len(spelled):
            first = np.cumsum(core) - core
            cores = alphabet.accumulate([canon[first[r] : first[r] + core[r]] for r in bare])
            new = tuple(tuple(map(np.concatenate, zip(a, b))) for a, b in zip(new, cores))
        yield product, batch, cls[lo:hi], lead[lo:hi], new
        lo = hi


def _class_readout(sampler: WordSampler, words=None) -> tuple:
    """(lengths, mu, lam, cls): per word, in order, its length, its Cartan
    and Jordan projections, and the index of its conjugacy class.

    lambda is a class function, lambda(u v u^-1) = lambda(v), so it is read
    once per class, from the representative of `_classes`: `eigvals` reads
    the representatives' products only, and every row copies its class's
    lambda row.  mu is read per word: it is not a class function.
    """
    lengths, mus, lams, classes = [], [], [], []
    for product, spelled, cls, _, new in _classes(sampler, words):
        lengths.append(np.count_nonzero(spelled >= 0, axis=1))
        mus.append(product_projection(product, jordan=False))
        lams.append(product_projection(new, jordan=True))
        classes.append(cls)
    cls = np.concatenate(classes)
    return np.concatenate(lengths), np.concatenate(mus), np.concatenate(lams)[cls], cls


@dataclass(frozen=True)
class ConeEstimate:
    """Sampled Lyapunov directions with their convex-cone hull."""

    directions: tuple  # unit ChamberVector per distinct sampled direction
    hull_rays: tuple  # extreme directions, as ChamberVector
    hull_dim: int
    per_word_mu_lambda_gap: tuple  # per sampled word: sup-norm |mu - lambda of the word's class|
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
    for the rows that merge into row i.  A window of one row holds row i
    alone, so that row is kept before any array work.
    """
    keys = _dedup_keys(reps)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    lo = np.searchsorted(sorted_keys, keys - 4.0 * tol, side="left")
    hi = np.searchsorted(sorted_keys, keys + 4.0 * tol, side="right")
    span, lo, hi = (hi - lo).tolist(), lo.tolist(), hi.tolist()
    alive = np.ones(len(reps), dtype=bool)
    kept = []
    for i in range(len(reps)):
        if not alive[i]:
            continue
        kept.append(i)
        if span[i] == 1:
            continue
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
    """Convex-cone hull of the normalized Jordan projections of sampled words.

    lambda is read once per conjugacy class (`_class_readout`), so a class's
    rows after its first row with a direction copy that row's bits.  Such a
    row has a direction or not, and then the same unit vector, bit for bit.
    In the greedy pass of `_distinct_rows` over every word's direction it
    is dropped: by the class's first row, at distance 0, when that is kept,
    or else by the row that dropped the first one, at the same distance.  A
    dropped row drops nothing, so the pass is given the first row with a
    direction of each class alone and keeps the same rows.  For enumerated
    words that row is the class's representative, or there is none: the
    representative comes first and is the shortest, and the noise floor of
    `lyapunov_directions` grows with the length.
    """
    n = sampler.n
    lengths, mu, lam, cls = _class_readout(sampler, words)
    has, units = lyapunov_directions(lam, lengths)
    _, first = np.unique(cls[has], return_index=True)
    dirs = units[np.sort(first)]
    if not len(dirs):
        raise DegenerateSample("no sampled word has a nonzero Jordan projection")
    distinct = _distinct_rows(dirs, 1e-12)
    hull_dim = int(np.linalg.matrix_rank(distinct, tol=cones.SLACK))
    basis = cones.chamber_basis(n)
    idx = cones.extreme_ray_indices(distinct @ basis)
    directions = ChamberVector.from_rows(distinct)
    return ConeEstimate(
        directions=directions,
        hull_rays=tuple(directions[i] for i in idx),
        hull_dim=hull_dim,
        per_word_mu_lambda_gap=tuple(np.max(np.abs(mu - lam), axis=1).tolist()),
        word_lengths=tuple(lengths.tolist()),
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

    Pairs of `sampler.words()` are drawn from `seed`, all by one call, until
    `trials` of them keep w1^m w2^m very reduced, or 50 * trials draws are
    spent.  The drawn words and their powers, m = 1, 2, 4, 8, are read in one
    batch.  A pair whose midpoint (lambda(w1) + lambda(w2))/2 has no
    direction (`lyapunov_directions`, at the mean length) is dropped, not
    redrawn, so the report's `trials` counts the pairs kept; a power without
    a direction scores pi.
    """
    if as_index(trials, "trials") < 1:
        raise InvalidInput(f"trials must be >= 1, got {trials}")
    check_seed(seed)
    words = sampler.words()
    alphabet = sampler.alphabet
    # every draw has one range, so one call gives the scalar calls' values
    drawn = np.random.default_rng(int(seed)).integers(0, len(words), size=(50 * trials, 2))
    pairs = []
    for i, j in drawn.tolist():
        w1, w2 = words[i], words[j]
        # w1^m w2^m must stay reduced at every seam, for every m
        if alphabet.very_reduced(w1 * 2 + w2 * 2):
            pairs.append((w1, w2))
            if len(pairs) == trials:
                break
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
        all_in_hull=all(cones.in_cone(d, hull, slack) for d in units),
    )


def compare_mu_lambda(sampler: WordSampler, words=None) -> list[float]:
    """Per word length l = 1..max_length, the max sup-norm gap ||mu(w) - lambda(w)||.

    mu is each word's own; lambda is that of the word's conjugacy class, read
    once from its representative (`_class_readout`).  A length that no
    sampled word has gets NaN: there is no gap to report.
    """
    lengths, mu, lam, _ = _class_readout(sampler, words)
    out = np.full(sampler.max_length, -np.inf)
    np.maximum.at(out, lengths - 1, np.max(np.abs(mu - lam), axis=1))
    out[out == -np.inf] = np.nan
    return out.tolist()


@dataclass(frozen=True)
class LimitSetSample:
    """Attracting points of proximal sampled words, one cloud per degree."""

    points: tuple  # per degree k=1..n-1: tuple of ProjectivePoint
    side: str  # "forward" | "backward"
    depth: int

    def cloud(self, k: int):
        """The points of degree k, for k = 1..n-1."""
        if not (isinstance(k, (int, np.integer)) and 1 <= k <= len(self.points)):
            raise InvalidInput(f"degree {k!r} is outside 1..{len(self.points)}")
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


def _subword_products(alphabet, spelled, lo, hi) -> tuple:
    """(product, inverse): the products of the rows' distinct subwords, the
    letters lo[i] .. hi[i] - 1 of row i (lo < hi), one `Alphabet.accumulate`,
    and per row the index of its subword among them."""
    width = int((hi - lo).max())
    cols = lo[:, None] + np.arange(width)
    letters = np.take_along_axis(spelled, np.minimum(cols, spelled.shape[1] - 1), axis=1)
    subword = np.where(cols < hi[:, None], letters, -1)
    # one bytes key per row, so equal subwords are found by one 1-D sort
    keys = np.ascontiguousarray(subword).view(np.dtype((np.void, subword.itemsize * width)))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return alphabet.accumulate(subword[first]), inverse


def _star(vectors, n, k) -> np.ndarray:
    """The Hodge star of rows of degree n - k, rows of degree k: x[I] =
    sgn(I, I^c) phi[I^c] per k-subset I, sgn the parity of I then I^c.

    The k-subsets' complements, in the lexicographic wedge basis, are the
    (n - k)-subsets in reverse order: where the first sorted elements of
    two k-subsets differ, the earlier subset holds the smaller one, which
    the later subset's complement holds and the earlier's does not.
    """
    subsets = np.array(list(itertools.combinations(range(n), k)))
    # sorting I then I^c takes sum(I) - k(k - 1)/2 transpositions
    sign = 1 - 2 * ((subsets.sum(axis=1) - k * (k - 1) // 2) % 2)
    return sign * vectors[:, ::-1]


def _flag_readout(sampler: WordSampler, words=None, side=None):
    """Per batch of `_classes`: (spelled, sides, kept), `spelled` its words' letters.

    `sides` holds one Splitting per degree for the side asked, "forward" or
    "backward", or, with `side` None, for the forward and the backward side.
    `kept` is, per side, the one keep rule: the rows proximal at every
    degree, with a positive runner-up modulus and a log gap above
    DEFAULT_PROXIMALITY_FILTER.

    Both sides are read once per conjugacy class (see the module
    docstring), by one path: `eigen_splittings` reads the products `new` of
    the batch's new class representatives r, forward, or their transposes,
    backward, and `tables` keeps their rows, which a later batch reads too.
    Every word w = p s, p its lead prefix, takes its r's moduli and
    proximal mask, class functions, so the keep rule reads r's.  Forward, w
    takes r's attracting vector carried by p's product, P_p x+(r);
    backward, r's repelling covector carried by the transpose of the suffix
    s's, P_s^T phi(r).  The products of the distinct prefixes, or suffixes, come
    from one `_subword_products`, and each degree's carry is one batched
    matvec; a lead of 0 copies r's vector.  The backward Splitting of
    degree k is that of the covectors of degree n - k, its vectors starred,
    x-(w) = *phi(w) (`_star`): its moduli are those of Lambda^(n-k) r, so
    both sides keep the same rows.
    """
    alphabet, n = sampler.alphabet, sampler.n
    reads = {"forward": [False], "backward": [True]}.get(side, [False, True])
    # per side read, its representatives' rows: per batch, one Splitting per degree
    tables = {backward: [] for backward in reads}
    for _, batch, cls, lead, new in _classes(sampler, words):
        moved = np.flatnonzero(lead > 0)
        spelled, lead = batch[moved], lead[moved]
        # per side, the letters of the subwords that carry: p, or s
        carried = (0 * lead, lead), (lead, np.count_nonzero(spelled >= 0, axis=1))
        sides = []
        for backward, table in tables.items():
            table.append([eigen_splittings(p.transpose(0, 2, 1) if backward else p) for p, _ in new])
            splits = [Splitting(*(np.concatenate(f)[cls] for f in zip(*t))) for t in zip(*table)]
            if moved.size:
                carry, inverse = _subword_products(alphabet, spelled, *carried[backward])
                for s, (q, _) in zip(splits, carry):
                    q = q[inverse].transpose(0, 2, 1) if backward else q[inverse]
                    s.vectors[moved] = (q @ s.vectors[moved, :, None])[:, :, 0]
            if backward:
                splits = [s._replace(vectors=_star(s.vectors, n, k))
                          for k, s in enumerate(splits[::-1], 1)]
            sides.append(splits)
        with np.errstate(divide="ignore", invalid="ignore"):
            # a vanishing runner-up modulus has no finite log gap, and two
            # vanishing moduli none at all; such a row is not proximal
            kept = [
                np.logical_and.reduce([
                    s.proximal & (s.second > 0.0)
                    & (np.abs(np.log(s.top) - np.log(s.second)) > DEFAULT_PROXIMALITY_FILTER)
                    for s in splits
                ])
                for splits in sides
            ]
        yield batch, sides, kept


def estimate_limit_set(sampler: WordSampler, side: str = "forward", words=None) -> LimitSetSample:
    """Attracting points (per degree) of the sampled words `_flag_readout` keeps on `side`.

    Forward, the points x+(w); backward, the points x-(w) of w^-1, the
    Hodge stars of the repelling covectors.  Both are read once per
    conjugacy class and carried to the class's other words (see the module
    docstring), and both sides keep the same words.
    """
    if side not in ("forward", "backward"):
        raise InvalidInput(f"unknown side {side!r}")
    clouds = [[] for _ in range(sampler.n - 1)]
    for _, (splits,), (kept,) in _flag_readout(sampler, words, side):
        for cloud, s in zip(clouds, splits):
            cloud.append(s.vectors[kept])
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

    So a word yields a facet when the limit set keeps it both ways, and its
    flags are the limit set's, read once per conjugacy class: an `eig` of
    the representatives and one of their transposes per level and degree.
    A batch's kept rows are read as stacks, one `canonical_units` per side
    and degree.  The repelling covector of degree k is the one the backward
    side carried, phi_k = +-*x-_(n-k), since ** = (-1)^(k(n-k)).  The flags
    are in general position when every forward gap min(1, |phi . x|)
    exceeds DEFAULT_PROXIMALITY_FILTER.
    """
    out = []
    for spelled, (forward, backward), kept in _flag_readout(sampler, words):
        rows = np.flatnonzero(kept[0] & kept[1])
        if not rows.size:
            continue
        fwd, bwd = ([_points(s.vectors[rows]) for s in side] for side in (forward, backward))
        gaps = []
        for k, (x, s) in enumerate(zip(fwd, backward[::-1]), 1):
            phi = canonical_units(_star(s.vectors[rows], sampler.n, k), "hyperplane covector")
            # one dot product per row, the bits of each row's phi @ x
            gaps.append(np.abs(phi[:, None, :] @ x[:, :, None]).reshape(-1))
        general = np.minimum(1.0, np.min(gaps, axis=0)) > DEFAULT_PROXIMALITY_FILTER
        for i, word in enumerate(spelled[rows].tolist()):
            flags = [tuple(ProjectivePoint(rep=x[i]) for x in side) for side in (fwd, bwd)]
            out.append(FacetSample(tuple(c for c in word if c >= 0), *flags, bool(general[i])))
    if not out:
        raise DegenerateSample("no sampled word passed the proximality filter both ways")
    return out
