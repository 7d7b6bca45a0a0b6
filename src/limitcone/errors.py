"""Exception hierarchy shared by every module, and the one seed check."""


class LimitConeError(Exception):
    """Base class for all library errors."""


class InvalidInput(LimitConeError):
    """Input data fails a construction invariant (bad determinant, bad shape, ...)."""


class DimensionMismatch(LimitConeError):
    """Operands live in incompatible ambient dimensions."""


class EmptyInput(LimitConeError):
    """An operation that needs a nonempty collection received an empty one."""


class NumericalFailure(LimitConeError):
    """An eigenvalue/singular-value computation failed to converge or overflowed."""


class CertificationFailure(LimitConeError):
    """A certification condition failed: answered with a verdict, not an error,
    which refutes the condition unless `refuted` is False (inconclusive)."""

    refuted = True

    def prefix_message(self, prefix: str) -> None:
        """Put `prefix` before the message, in place, as a caller re-raises it."""
        self.args = (f"{prefix}{self.args[0]}",) + self.args[1:]


class NotProximal(CertificationFailure):
    """The dominant eigenvalue modulus is not simple and strictly dominant; of a
    real matrix, a complex one is not simple, since it ties with its conjugate."""


class SeparationViolated(CertificationFailure):
    """A required gap between an attracting point and a repelling hyperplane is too small.

    Carries optional diagnostics: `pair` (offending indices) and `separation`
    (the full separation matrix computed so far).
    """

    def __init__(self, message, pair=None, separation=None):
        super().__init__(message)
        self.pair = pair
        self.separation = separation


class ContractionUnverified(CertificationFailure):
    """The contraction conditions were not established: refuted, or left inconclusive.

    `refuted` is True when the check exhibited an explicit violation (a genuine
    counterexample), False when it was merely inconclusive.  A refutation
    carries its witness's `image_distance` (exact, also the `witness` point
    itself, a unit vector of B^eps).  A sampled refutation is of the image
    condition: sampling leaves the Lipschitz condition unchecked.
    """

    def __init__(self, message, refuted=False, image_distance=None, witness=None):
        super().__init__(message)
        self.refuted = refuted
        self.image_distance = image_distance
        self.witness = witness


class TooFewGenerators(LimitConeError):
    """A Schottky system needs at least two generators."""


class NotReduced(LimitConeError):
    """A group word is not (very) reduced."""


class EpsilonTooLarge(LimitConeError):
    """epsilon exceeds the frame bound epsilon_f."""


class DegenerateSample(LimitConeError):
    """No sampled word survived the requested filter."""


class BudgetExceeded(LimitConeError):
    """A word-enumeration request exceeds the product budget."""


class RayNotInChamber(LimitConeError):
    """A requested cone ray is not a regular direction of the Weyl chamber."""


class MaxPowerExceeded(LimitConeError):
    """Powering generators up to max_power did not yield certificates."""


class SeparationUnachievable(LimitConeError):
    """Seeded random rotations failed to reach general position within the retry cap."""


class ConeNotInvolutionStable(LimitConeError):
    """A group forge was requested for a cone that is not opposition-involution stable."""


def check_seed(seed) -> None:
    """Refuse a negative seed with InvalidInput, before any work: numpy's
    generators raise a bare ValueError on one, and a path that draws nothing
    would accept it."""
    if seed < 0:
        raise InvalidInput(f"seed must be >= 0, got {seed}")
