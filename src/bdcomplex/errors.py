"""Exception types shared across the package."""


class BoundedDegreeError(Exception):
    """Base class for all errors raised by this package."""


class LoopEdgeError(BoundedDegreeError, ValueError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(BoundedDegreeError, ValueError):
    """The same unordered vertex pair appears twice in an edge list."""


class IndexOutOfRangeError(BoundedDegreeError, ValueError):
    """An edge references a vertex index outside [0, num_vertices)."""


class InvalidSizeError(BoundedDegreeError, ValueError):
    """A graph family generator was asked for an impossible size."""


class NotAForestError(BoundedDegreeError, ValueError):
    """An operation that requires an acyclic graph received one with a cycle."""


class FaceCapExceededError(BoundedDegreeError, RuntimeError):
    """Face enumeration would exceed the configured face cap."""


class HypothesisViolatedError(BoundedDegreeError, ValueError):
    """The caterpillar closed form needs every spine vertex to carry a leaf."""


class ParseError(BoundedDegreeError, ValueError):
    """An instance JSON object does not match any accepted schema."""


class MethodMismatchError(BoundedDegreeError, ValueError):
    """The requested computation method does not apply to the instance."""


class InvalidParamsError(BoundedDegreeError, ValueError):
    """Invalid parameters for an instance generator."""


class ResultTooLargeError(BoundedDegreeError, ValueError):
    """A result holds an integer with more digits than Python will print."""


class WorkerDiedError(BoundedDegreeError, RuntimeError):
    """A process-pool worker died, killed or crashed, before its task was done."""
