"""Exception types shared across the package."""


class PackclassError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInstance(PackclassError):
    """Instance data violates a structural invariant (sizes, ids, fit)."""


class UnknownBox(PackclassError):
    """A box id does not exist in the instance."""


class DimensionMismatch(PackclassError):
    """A coordinate or size vector, or a per-axis list of edge sets or
    orientations, has the wrong number of components."""


class DimensionOutOfRange(PackclassError):
    """A dimension index is outside 0..d-1."""


class InvalidPacking(PackclassError):
    """An operation required a valid packing but validation failed."""


class UnknownVertex(PackclassError):
    """A vertex id does not exist in the graph."""


class InvalidLimits(PackclassError, ValueError):
    """A search limit is not a real number or is NaN, or a size cap is not
    positive."""


class TooLarge(PackclassError):
    """Input exceeds the configured size cap of an exact procedure."""


class NotInterval(PackclassError):
    """Graph is not an interval graph where one was required."""


class NotPackingClass(PackclassError):
    """Edge sets do not satisfy the packing-class conditions."""


class CyclicOrientation(PackclassError):
    """An orientation expected to be acyclic contains a directed cycle."""


class NoUndecided(PackclassError):
    """Branch selection was asked for a choice but no pair is undecided."""


class InfeasibleCrossSection(PackclassError):
    """A box exceeds one of the fixed container dimensions."""
