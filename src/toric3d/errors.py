"""Exception types shared across the package."""


class Toric3dError(Exception):
    """Base class for all errors raised by this package."""


class NotConnected(Toric3dError):
    """Consecutive edges of a path do not share endpoints."""


class SelfIntersecting(Toric3dError):
    """A path or surface revisits a vertex / contains a null sub-chain."""


class MalformedBoundary(Toric3dError):
    """A face set whose boundary is neither empty nor a single closed path."""


class InvalidConfiguration(Toric3dError):
    """A configuration violates a structural invariant: an open loop, or
    strings that ``deoverlap`` cannot detour apart before surgery (strings
    sharing an infinite ray, say).  Building a configuration accepts shared
    edges, which cancel mod 2 in ``energy``."""


class EndpointMismatch(Toric3dError):
    """Rerouted projection does not connect the original endpoints."""


class AlreadyMonotonicInRegion(Toric3dError):
    """Straightening requested where the in-region segment is already monotone."""


class MultipleCrossings(Toric3dError):
    """The path does not cross the region in exactly one contiguous stretch."""


class NoOverlap(Toric3dError):
    """Surgery surface boundary meets no string."""


class MultipleOverlapRuns(Toric3dError):
    """A string meets the surgery boundary in more than one contiguous run."""


class InvalidSurface(Toric3dError):
    """A valid surface that surgery cannot use: a closed one."""


class OutOfRegion(Toric3dError):
    """Operator support extends outside the finite lattice."""


class DimensionMismatch(Toric3dError):
    """Operators built over different qubit sets."""


class TooLarge(Toric3dError):
    """A size requested beyond what is supported."""


class NotAGroundSector(Toric3dError):
    """Sector label requested for a configuration outside any ground sector."""


class UsageError(Toric3dError):
    """Command-line arguments that do not parse."""


class ConfigSyntaxError(Toric3dError):
    """Configuration document could not be parsed."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ConfigSemanticError(Toric3dError):
    """Configuration document parsed but describes an invalid object."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index
