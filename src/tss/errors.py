"""Exception types shared across the package."""


class TssError(Exception):
    """Base class for all errors raised by this package."""


class BadParam(TssError):
    """A constructor or operation parameter is outside its valid range."""


class SelfLoop(BadParam):
    """An edge joins a vertex to itself."""


class VertexOutOfRange(BadParam):
    """A vertex id is not in 0..vertex_count-1."""


class DuplicateLabel(BadParam):
    """The label map is not a bijection onto the vertex ids."""


class BadPermutation(BadParam):
    """A permutation mapping is not a bijection on its index range."""


class NonSimpleResult(TssError):
    """A family constructor would produce a duplicate edge for these parameters."""


class SizeMismatch(TssError):
    """A threshold assignment or vertex set does not fit the given graph."""


class DuplicateVertex(TssError):
    """A convinced sequence lists the same vertex twice."""


class SeedOverlap(TssError):
    """A convinced sequence lists a vertex that is already in the seed."""


class ConstructionFailedVerification(TssError):
    """A seed builder produced a set or sequence that failed simulation."""


class TooLarge(TssError):
    """The instance exceeds the solver's vertex limit."""

