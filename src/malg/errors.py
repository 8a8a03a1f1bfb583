"""Exception types shared across the package."""


class MalgError(Exception):
    """Base class for every error this package raises deliberately."""


class DuplicatePoint(MalgError):
    """A point label occurs more than once."""


class PartitionGap(MalgError):
    """The partition misses a point or contains an empty block."""


class PartitionOverlap(MalgError):
    """Two partition blocks share a point."""


class NegativeWeight(MalgError, ValueError):
    """A measure value, such as an atom weight, below zero."""


class ArityMismatch(MalgError):
    """Parallel inputs have mismatched lengths."""


class UnknownPoint(MalgError):
    """A point label does not belong to the space."""


class ForeignSet(MalgError):
    """The measurable set belongs to a different space."""


class ForeignElement(MalgError):
    """The algebra element belongs to a different algebra."""


class ForeignFunction(MalgError):
    """The function lives on a different space."""


class NotInFinIdeal(MalgError):
    """Operation defined only on elements of finite measure."""


class NotMeasurable(MalgError):
    """A point set or map preimage splits an atom."""


class NotInverseNilPreserving(MalgError):
    """The map pushes mass onto a null set, so no homomorphism descends."""


class BudgetExceeded(MalgError):
    """Instance too large for exhaustive enumeration."""


class SpaceMismatch(MalgError):
    """Maps are not composable or spaces do not line up."""


class MetricAxiomViolation(MalgError):
    """Distance table fails a metric axiom."""


class InvalidRational(MalgError, ValueError):
    """Not a rational within the digit bound, or "inf" where one is needed."""


class InvalidDocument(MalgError):
    """A JSON document does not match the expected schema."""
