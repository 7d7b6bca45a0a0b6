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
`product_projection`, so equal letter sequences give bit-identical results.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .projgeom import GroupElement, compound_matrix

CHAMBER_SUM_TOL = 1e-8


@dataclass(frozen=True)
class ChamberVector:
    """A sorted (nonincreasing), zero-sum real n-vector: an element of a+."""

    coords: np.ndarray

    @classmethod
    def from_coords(cls, coords) -> "ChamberVector":
        c = np.asarray(coords, dtype=float).reshape(-1)
        if c.shape[0] < 2:
            raise InvalidInput("chamber vectors need dimension >= 2")
        if abs(float(c.sum())) > CHAMBER_SUM_TOL:
            raise InvalidInput(f"coordinates must sum to 0, got {c.sum()}")
        if np.any(np.diff(c) > 0):
            raise InvalidInput("coordinates must be sorted nonincreasing")
        # keep the input bits: re-centering here would break exactness of the
        # opposition involution (negation and reversal are lossless)
        c = np.ascontiguousarray(c)
        c.flags.writeable = False
        return cls(coords=c)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def direction(self) -> np.ndarray:
        """Unit vector along self; zero vector if self is zero."""
        norm = float(np.linalg.norm(self.coords))
        if norm == 0.0:
            return np.zeros(self.n)
        return self.coords / norm


def _chamber_from_sorted(values: np.ndarray) -> ChamberVector:
    v = np.sort(np.asarray(values, dtype=float))[::-1]
    v = v - v.sum() / v.shape[0]
    return ChamberVector.from_coords(v)


def cartan_projection(g: GroupElement) -> ChamberVector:
    """mu(g): logs of the singular values of g, sorted nonincreasing."""
    try:
        s = np.linalg.svd(g.entries, compute_uv=False)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"singular value computation failed: {e}") from e
    if np.any(s <= 0.0):
        raise NumericalFailure("nonpositive singular value for an invertible matrix")
    return _chamber_from_sorted(np.log(s))


def jordan_projection(g: GroupElement) -> ChamberVector:
    """lambda(g): logs of the eigenvalue moduli of g, sorted nonincreasing."""
    try:
        w = np.linalg.eigvals(g.entries)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"eigenvalue computation failed: {e}") from e
    mod = np.abs(w)
    if np.any(mod <= 0.0):
        raise NumericalFailure("zero eigenvalue modulus for an invertible matrix")
    return _chamber_from_sorted(np.log(mod))


def opposition_involution(v: ChamberVector) -> ChamberVector:
    """iota(x_1, ..., x_n) = (-x_n, ..., -x_1)."""
    return ChamberVector.from_coords(-v.coords[::-1])


def regularity_gaps(g: GroupElement) -> np.ndarray:
    """Consecutive log-gaps of the Jordan projection; all positive iff g is R-regular."""
    lam = jordan_projection(g).coords
    return -np.diff(lam)


def empty_product(n: int) -> tuple:
    """The empty word as an accumulated product: the identity in every degree.

    An accumulated product of n x n factors holds, per exterior degree
    k = 1..n-1, a pair (P_k, logscale_k) with Lambda^k(product) =
    exp(logscale_k) * P_k and ||P_k|| = 1; for the identity, d = C(n, k) and
    P_k = I / sqrt(d).
    """
    out = []
    for k in range(1, n):
        d = comb(n, k)
        out.append((np.eye(d) / np.sqrt(d), 0.5 * np.log(d)))
    return tuple(out)


def extend_product(product: tuple, letter) -> tuple:
    """The accumulated product times one more factor, given by its compounds.

    `letter` holds the factor's k-th compound per degree k = 1..n-1.
    """
    out = []
    for (p, ls), c in zip(product, letter):
        q = p @ c
        s = float(np.linalg.norm(q))
        if s == 0.0 or not np.isfinite(s):
            raise NumericalFailure("word product degenerated despite rescaling")
        out.append((q / s, ls + np.log(s)))
    return tuple(out)


def product_projection(product: tuple, jordan: bool) -> ChamberVector:
    """mu (or lambda, when `jordan`) of an accumulated product.

    The top singular value (eigenvalue modulus) of the k-th compound is the
    exponential of the sum of the top k coordinates of mu (lambda).
    """
    partial = []
    for p, ls in product:
        if jordan:
            top = float(np.max(np.abs(np.linalg.eigvals(p))))
            if top <= 0.0:
                raise NumericalFailure("vanishing top eigenvalue modulus")
        else:
            top = float(np.linalg.svd(p, compute_uv=False)[0])
        partial.append(float(np.log(top) + ls))
    # determinant 1 forces the sum of all n coordinates to 0
    coords = np.diff([0.0] + partial + [0.0])
    return _chamber_from_sorted(coords)


def _accumulate(letters, n: int) -> tuple:
    product = empty_product(n)
    for letter in letters:
        product = extend_product(product, letter)
    return product


def _compounds(m, n: int) -> list:
    return [compound_matrix(m, k) for k in range(1, n)]


def product_cartan(mats, n: int) -> ChamberVector:
    """mu of a product of n x n factors, via per-degree compound accumulation."""
    letters = (_compounds(m, n) for m in mats)
    return product_projection(_accumulate(letters, n), jordan=False)


def product_jordan(mats, n: int) -> ChamberVector:
    """lambda of a product of n x n factors, via per-degree compound accumulation."""
    letters = (_compounds(m, n) for m in mats)
    return product_projection(_accumulate(letters, n), jordan=True)


def iterated_cartan(g: GroupElement, steps: int) -> ChamberVector:
    """(1/steps) * mu(g**steps), stable for steps up to 1e4.

    Converges to jordan_projection(g) as steps grows.
    """
    if steps < 1:
        raise InvalidInput(f"steps must be >= 1, got {steps}")
    letters = [_compounds(g.entries, g.n)] * steps
    mu = product_projection(_accumulate(letters, g.n), jordan=False)
    return ChamberVector.from_coords(mu.coords / steps)
