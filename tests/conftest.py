"""Shared fixtures: reference systems, corpora, and element factories."""

import numpy as np
import pytest
from scipy.linalg import expm

import limitcone as lc


def rotation2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def reference_top_eigendata(m):
    """top_eigendata as it read one matrix before the batched eigen-splitting:
    the reference the batch of one must equal bit for bit."""
    m = np.asarray(m, dtype=float)
    try:
        w, vr = np.linalg.eig(m)
        wl, vl = np.linalg.eig(m.T)
    except np.linalg.LinAlgError as e:
        raise lc.NumericalFailure(f"eigenvalue computation failed: {e}") from e
    mod = np.abs(w)
    order = np.argsort(mod)[::-1]
    top, second = mod[order[0]], mod[order[1]]
    if top <= 0.0:
        raise lc.NumericalFailure("vanishing top eigenvalue modulus")
    if (top - second) / top < 1e-10:
        raise lc.NotProximal(f"dominant modulus {top} is not simple (runner-up {second})")
    alpha = w[order[0]]
    if abs(alpha.imag) > 1e-10 * top:
        raise lc.NotProximal("dominant eigenvalue is not real")
    v = np.real(vr[:, order[0]])
    li = int(np.argmin(np.abs(wl - alpha)))
    phi = np.real(vl[:, li])
    return (
        float(top),
        lc.ProjectivePoint.from_vector(v),
        lc.ProjectiveHyperplane.from_covector(phi),
    )


@pytest.fixture(scope="session")
def sl2_pair():
    """gamma1 = diag(10, 0.1), gamma2 = R(pi/4) gamma1 R(-pi/4)."""
    g1 = lc.GroupElement.from_matrix(np.diag([10.0, 0.1]))
    r = rotation2(np.pi / 4)
    g2 = lc.GroupElement.from_matrix(r @ np.diag([10.0, 0.1]) @ r.T)
    return g1, g2


@pytest.fixture(scope="session")
def sl2_pair_aligned():
    """The pi/2-rotated variant: gamma2's attracting point lies on X^<_gamma1."""
    g1 = lc.GroupElement.from_matrix(np.diag([10.0, 0.1]))
    r = rotation2(np.pi / 2)
    g2 = lc.GroupElement.from_matrix(r @ np.diag([10.0, 0.1]) @ r.T)
    return g1, g2


@pytest.fixture(scope="session")
def sl2_semigroup(sl2_pair):
    return lc.verify_schottky(sl2_pair, kind="semigroup", epsilons=[0.1, 0.1])


@pytest.fixture(scope="session")
def sl2_group(sl2_pair):
    return lc.verify_schottky(sl2_pair, kind="group", epsilons=[0.1, 0.1])


FORGE_RAY_1 = np.array([2.0, -0.5, -1.5]) / np.linalg.norm([2.0, -0.5, -1.5])
FORGE_RAY_2 = np.array([1.5, 0.5, -2.0]) / np.linalg.norm([1.5, 0.5, -2.0])


@pytest.fixture(scope="session")
def forge_cone():
    return lc.TargetCone.from_rays([FORGE_RAY_1, FORGE_RAY_2])


@pytest.fixture(scope="session")
def forged_semigroup(forge_cone):
    return lc.forge_semigroup(3, forge_cone, 0.05, seed=7)


@pytest.fixture(scope="session")
def forged_sampler(forged_semigroup):
    return lc.WordSampler(
        generators=forged_semigroup.generators, kind="semigroup", max_length=6
    )


@pytest.fixture(scope="session")
def forged_cone_estimate(forged_sampler):
    return lc.estimate_cone(forged_sampler)


def strongly_contracting_element(rng) -> lc.GroupElement:
    """A random SL(3) element deep inside G^0.05 of the identity frame.

    Image containment at the identity frame needs, per degree, an eigenvalue
    ratio below roughly epsilon**2 and an attracting flag within an angle well
    under epsilon of the standard flag; log-gaps >= 6.8 and rotations of a few
    milliradians leave comfortable margin at epsilon = 0.05.
    """
    gap1 = rng.uniform(6.8, 8.5)
    gap2 = rng.uniform(6.8, 8.5)
    d = np.array([gap1 + gap2, gap2, 0.0])
    d -= d.mean()
    a = rng.normal(0.0, 0.004, (3, 3))
    q = expm((a - a.T) / 2.0)
    return lc.GroupElement.from_unimodular(q @ np.diag(np.exp(d)) @ q.T)


@pytest.fixture(scope="session")
def random_sl_corpus():
    """500 seeded random elements, alternating SL(2) and SL(3), entries in [-2, 2]."""
    rng = np.random.default_rng(1)
    corpus = []
    while len(corpus) < 500:
        n = 2 if len(corpus) % 2 == 0 else 3
        m = rng.uniform(-2.0, 2.0, (n, n))
        det = float(np.linalg.det(m))
        if abs(det) < 1e-2:
            continue
        if det < 0:
            m[0] = -m[0]
            det = -det
        corpus.append(lc.GroupElement.from_matrix(m / det ** (1.0 / n)))
    return corpus
