"""Exception types raised across the package."""

from __future__ import annotations


class ProductBasisError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(ProductBasisError):
    """Operand dimensions are inconsistent with each other or with the declared dims."""


class InvalidDimension(ProductBasisError):
    """Construction parameters violate the family's dimension bounds."""


class IndexOutOfRange(ProductBasisError):
    """A support index is repeated or falls outside [0, dim), or an index or frequency is not an integer."""


class NonOrthonormalInput(ProductBasisError):
    """Input states fail the orthonormality requirement.

    ``deviation`` is the largest entry of |Gram - I|, when known.
    """

    def __init__(self, message: str, deviation: float | None = None):
        super().__init__(message)
        self.deviation = deviation


class InvalidProjector(ProductBasisError):
    """Operator is not Hermitian with spectrum inside [0, 1] up to tolerance."""


class NonMonotoneSeesaw(ProductBasisError):
    """A see-saw half step lowered the objective beyond rounding slack.

    Each half step takes power steps on a positive semidefinite operator,
    which never lower the objective, so this signals a broken contraction
    or power step, not a property of the input.
    """


class DimensionTooLarge(ProductBasisError):
    """Brute-force oracle only supports small local dimensions."""


class CountMismatch(ProductBasisError):
    """Two bases have different state counts."""


class CompleteBasisInput(ProductBasisError):
    """Operation needs a proper (incomplete) basis but the span is the full space."""


class ZeroState(ProductBasisError):
    """Density operator has empty numerical range."""


class IncompleteBasis(ProductBasisError):
    """Operation needs a complete product basis (state count = dA*dB)."""


class InvalidSplit(ProductBasisError):
    """Subspace pair does not classify every basis state as inside or outside."""


class NoValidSplit(ProductBasisError):
    """No proper subspace split exists for the current basis.

    ``moves_applied`` carries the winding moves applied before the failure.
    """

    def __init__(self, message: str, moves_applied: tuple = ()):
        super().__init__(message)
        self.moves_applied = tuple(moves_applied)


class WindingInvariantError(ProductBasisError):
    """A winding invariant failed.

    Raised when a move leaves a non-orthonormal basis or a factor off unit
    norm, when a valid split's inside block does not hold dim H_A' * dim H_B'
    states, or when an unwinding sequence fails its replay.  On an
    orthonormal complete basis each holds by construction, so this signals a
    non-orthonormal input or a numerical fault.
    """


class NoTileMetadata(ProductBasisError):
    """Basis states carry no tile-cell metadata, nothing to render."""


class BasisFileError(ProductBasisError):
    """Basis file is malformed or structurally inconsistent."""
