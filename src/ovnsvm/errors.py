"""Exception and warning types shared across the package."""


class OvnError(Exception):
    """Base class for every library-specific error."""


# dataset construction and parsing

class MalformedCsv(OvnError):
    """Ragged row, non-numeric feature cell, or unparsable label cell."""


class NoLabels(OvnError):
    """No label columns were found in the input."""


class EmptyLabelRow(OvnError):
    """A training row belongs to no class at all."""


class UnknownKind(OvnError):
    """Synthetic generator kind is not one of the supported names."""


class TooFewInstances(OvnError):
    """Fewer instances than folds requested, or training data (a whole set
    or a fold's training part) that holds no positive pattern of some
    class."""


# shape checks

class DimensionMismatch(OvnError):
    """Vector or matrix operands have incompatible dimensions."""


class LengthMismatch(OvnError):
    """Prediction and truth sequences differ in length."""


# majorization

class NonpositiveZ(OvnError):
    """The quadratic surrogate needs a strictly positive auxiliary value."""


# solvers

class HessianNotPD(OvnError):
    """The reduced Hessian failed its symmetric positive definite factorization."""


class SingularSystem(OvnError):
    """The assembled system contains non-finite entries or is rank deficient."""


# model selection

class AllTuplesInfeasible(OvnError):
    """Every hyperparameter tuple in the grid failed with HessianNotPD."""


# persistence

class IoError(OvnError):
    """Filesystem failure while reading or writing a model document."""


class ParseError(OvnError):
    """Model document does not parse or is missing required fields."""


class UnsupportedVersion(OvnError):
    """Model document declares a format version this build does not read."""


class InvariantViolation(OvnError):
    """A loaded model fails the invariants its mode promises."""


class MaxItersExceeded(UserWarning):
    """The interior-point fit hit its iteration cap; its iterate there is
    returned anyway."""
