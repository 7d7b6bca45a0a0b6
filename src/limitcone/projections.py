"""Cartan projection, Jordan (Lyapunov) projection, and the opposition involution.

For SL(n,R) the Cartan projection mu(g) is the sorted vector of log singular
values and the Jordan projection lambda(g) is the sorted vector of log
eigenvalue moduli; both are zero-sum vectors of the closed Weyl chamber.

Long products are handled through log-scaled exterior-power accumulation: the
top singular value (resp. eigenvalue modulus) of the k-th compound of a product
equals the product of its top k singular values (resp. eigenvalue moduli), so
tracking one rescaled matrix per exterior degree recovers the full projection
without overflow.  The rescaling is a scalar bookkeeping device and does not
perturb the computed top value.  Every product of letters in the package is
accumulated here, by `empty_product`, `extend_product` and
`product_projection`, so equal letter sequences give bit-identical results;
mu and lambda of a single element are those of a product of one factor.
They work on batches of words: per degree one (N, d, d) stack, extended by one
batched matmul and read off by one batched decomposition: `eigvals` for
lambda, and for mu `eigvalsh` of the Gram stack P^T P, whose top eigenvalue
is the top singular value squared, to about d^2 roundoffs relative (see
`product_projection`).  Each row's result equals the call on that row alone
bit for bit; a single word is a batch of one.
A stack of chamber vectors is checked once and wrapped row by row
(`ChamberVector.from_rows`); one vector is a stack of one (`from_coords`).
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NumericalFailure, as_index
from .projgeom import CHAMBER_SUM_TOL, ArrayValued, GroupElement, exterior_power, row_norms


@dataclass(frozen=True, eq=False)
class ChamberVector(ArrayValued):
    """A sorted (nonincreasing), zero-sum real n-vector: an element of a+."""

    coords: np.ndarray

    @classmethod
    def from_coords(cls, coords) -> "ChamberVector":
        """The chamber vector of one vector of coordinates, checked and kept bit for bit."""
        c = _float_array(coords)
        if c.ndim != 1:
            raise InvalidInput(
                f"chamber coordinates must be one vector, got shape {c.shape}; "
                "build a stack of rows with ChamberVector.from_rows"
            )
        return cls.from_rows(c[None])[0]

    @classmethod
    def from_rows(cls, rows) -> tuple:
        """One chamber vector per row of an (N, n) stack, checked as one stack.

        The rows are copied once into a read-only C-contiguous stack, and each
        vector's coords is a view of its row, so it has the bits, the read-only
        flag, `==` and `hash` of `from_coords(row)`.  An empty (0, n) stack, n
        >= 2, gives the empty tuple.
        """
        r = np.array(_float_array(rows), order="C")
        if r.ndim != 2:
            raise InvalidInput(f"chamber rows must be an (N, n) stack, got shape {r.shape}")
        _check_chamber_rows(r)
        # keep the input bits: re-centering here would break exactness of the
        # opposition involution (negation and reversal are lossless)
        r.flags.writeable = False
        return tuple(cls(coords=row) for row in r)

    @property
    def n(self) -> int:
        return self.coords.shape[0]


def _float_array(values) -> np.ndarray:
    """`values` as a float array; ragged or non-numeric input raises InvalidInput."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as e:
        raise InvalidInput(f"chamber coordinates must be a regular array of numbers: {e}") from None


def _check_chamber_rows(rows: np.ndarray) -> None:
    """Raise unless every row is a finite, zero-sum, nonincreasing vector."""
    if rows.shape[1] < 2:
        raise InvalidInput("chamber vectors need dimension >= 2")
    if not np.isfinite(rows).all():
        raise InvalidInput("coordinates must be finite")
    sums = rows.sum(axis=1)
    off = np.abs(sums) > CHAMBER_SUM_TOL
    if off.any():
        raise InvalidInput(f"coordinates must sum to 0, got {sums[off][0]}")
    if (rows[:, 1:] > rows[:, :-1]).any():
        raise InvalidInput("coordinates must be sorted nonincreasing")


def _chamber_rows(values: np.ndarray) -> np.ndarray:
    """Each row sorted nonincreasing and centred: one chamber vector per row."""
    v = values.copy()
    v.sort(axis=1)
    v = v[:, ::-1]
    v = v - v.sum(axis=1, keepdims=True) / v.shape[1]
    _check_chamber_rows(v)
    return v


def cartan_projection(g: GroupElement) -> ChamberVector:
    """mu(g): sorted log singular values, read from g's exterior powers."""
    return product_cartan([g])


def jordan_projection(g: GroupElement) -> ChamberVector:
    """lambda(g): sorted log eigenvalue moduli, read from g's exterior powers."""
    return product_jordan([g])


def opposition_involution(v: ChamberVector) -> ChamberVector:
    """iota(x_1, ..., x_n) = (-x_n, ..., -x_1)."""
    return ChamberVector.from_coords(-v.coords[::-1])


def regularity_gaps(g: GroupElement) -> np.ndarray:
    """Consecutive log-gaps of the Jordan projection; all positive iff g is R-regular."""
    lam = jordan_projection(g).coords
    return -np.diff(lam)


def empty_product(n: int, count: int = 1) -> tuple:
    """`count` empty words as an accumulated product: the identity in every degree.

    An accumulated product of N words of n x n factors holds, per exterior
    degree k = 1..n-1, a pair (P_k, logscale_k): P_k an (N, d, d) stack with
    d = C(n, k) and logscale_k an (N,) vector, such that Lambda^k(word i) =
    exp(logscale_k[i]) * P_k[i] and ||P_k[i]|| = 1.  For the identity,
    P_k[i] = I / sqrt(d).
    """
    out = []
    for k in range(1, n):
        p, ls = _identity_start(comb(n, k))
        out.append((p[None].repeat(count, axis=0), np.full(count, ls)))
    return tuple(out)


@lru_cache
def _identity_start(d: int) -> tuple:
    """(I / sqrt(d), log sqrt(d)): the identity of size d at norm 1, read-only."""
    p = np.eye(d) / np.sqrt(d)
    p.flags.writeable = False
    return p, 0.5 * np.log(d)


def extend_product(product: tuple, letter) -> tuple:
    """The accumulated product with one more factor on the right of every word.

    `letter` holds per degree k = 1..n-1 the factors' k-th compounds: one
    (d, d) matrix for every word, or an (N, d, d) stack with one per word.
    """
    out = []
    for (p, ls), c in zip(product, letter):
        q = p @ c
        s = row_norms(q.reshape(q.shape[0], -1))
        # finite exactly when 0 < s < inf, since ls is finite
        logscale = ls + np.log(s)
        if not np.isfinite(logscale).all():
            raise NumericalFailure("word product degenerated despite rescaling")
        q /= s[:, None, None]
        out.append((q, logscale))
    return tuple(out)


def take_words(product: tuple, rows) -> tuple:
    """The accumulated product of the words at `rows` (an index array)."""
    return tuple((p[rows], ls[rows]) for p, ls in product)


def product_projection(product: tuple, jordan: bool) -> np.ndarray:
    """mu (or lambda, when `jordan`) of every word of an accumulated product.

    Returns an (N, n) array with one chamber vector per row.  The top singular
    value (eigenvalue modulus) of the k-th compound is the exponential of the
    sum of the top k coordinates of mu (lambda).

    mu reads only the top singular value s of each (d, d) matrix P, as the
    square root of the top eigenvalue of the Gram matrix G = P^T P: one
    batched matmul and one batched `eigvalsh` per degree.  Its relative
    error is about (d^2 + c d) u, u the unit roundoff, c a small constant:
    ||P||_F = 1, so s^2 >= 1/d.  The computed G is G + E with ||E||_2 <=
    gamma_d ||P||_F^2 = gamma_d <= gamma_d d s^2, gamma_d = d u / (1 - d u),
    and `syevd` returns the exact eigenvalues of G + E + F with ||F||_2 =
    O(d u) ||G||_2 = O(d u) s^2.  By Weyl's inequality the top eigenvalue
    moves by at most ||E + F||_2, so s^2 is read to (d^2 + c d) u relative,
    and s, its square root, to half that.  Squaring the condition number
    costs digits only in the small singular values, which mu does not read.
    The decompositions are `eigvals` and `eigvalsh`, which work matrix by
    matrix, and `@`, which multiplies each (d, d) pair alone, so a row's
    bits do not depend on the rows batched with it.
    """
    # column k holds the log top value of degree k; determinant 1 gives the
    # zero columns 0 and n, since the coordinates sum to 0
    partial = np.zeros((product[0][0].shape[0], len(product) + 2))
    for k, (p, ls) in enumerate(product, start=1):
        if jordan:
            top = np.abs(np.linalg.eigvals(p)).max(axis=1)
            if (top <= 0.0).any():
                raise NumericalFailure("vanishing top eigenvalue modulus")
        else:
            top = np.sqrt(np.linalg.eigvalsh(p.transpose(0, 2, 1) @ p)[:, -1])
        partial[:, k] = np.log(top) + ls
    return _chamber_rows(partial[:, 1:] - partial[:, :-1])


def lyapunov_directions(lam, lengths) -> tuple:
    """(keep, units): which rows of lambda have a direction, and their unit vectors.

    `lam` holds one Jordan projection per row, of a word of `lengths` letters
    (per row).  A row has a direction when its norm exceeds a per-letter noise
    floor, 1e-9 * max(1, length): log-scaled accumulation leaves O(eps) residue
    per factor even when lambda vanishes exactly.
    """
    norms = row_norms(lam)
    keep = norms > 1e-9 * np.maximum(1.0, lengths)
    return keep, lam[keep] / norms[keep, None]


def _accumulate(elements) -> tuple:
    """The product of the elements, as a batch of one, from their exterior powers."""
    elements = list(elements)
    if not elements:
        raise InvalidInput("a product needs at least one factor")
    n = elements[0].n
    if any(g.n != n for g in elements):
        raise DimensionMismatch("factors must share one dimension")
    product = empty_product(n)
    for g in elements:
        product = extend_product(product, [exterior_power(g, k) for k in range(1, n)])
    return product


def product_cartan(elements) -> ChamberVector:
    """mu of a product of elements of SL(n), via per-degree compound accumulation."""
    return ChamberVector.from_coords(product_projection(_accumulate(elements), jordan=False)[0])


def product_jordan(elements) -> ChamberVector:
    """lambda of a product of elements of SL(n), via per-degree compound accumulation."""
    return ChamberVector.from_coords(product_projection(_accumulate(elements), jordan=True)[0])


def iterated_cartan(g: GroupElement, steps: int) -> ChamberVector:
    """(1/steps) * mu(g**steps), stable for steps up to 1e4.

    Converges to jordan_projection(g) as steps grows.
    """
    if as_index(steps, "steps") < 1:
        raise InvalidInput(f"steps must be >= 1, got {steps}")
    mu = product_projection(_accumulate([g] * steps), jordan=False)[0]
    return ChamberVector.from_coords(mu / steps)
