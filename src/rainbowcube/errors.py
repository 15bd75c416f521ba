"""Exception types shared across the package."""


class RainbowCubeError(Exception):
    """Base class for all package-specific errors."""


class DifferingBitCount(RainbowCubeError):
    """Two vertices differ in zero or more than one bit where one was required."""


class VertexNotInGraph(RainbowCubeError):
    """A queried vertex is absent from the host graph."""


class EmptyGraph(RainbowCubeError):
    """The operation needs at least one vertex."""


class FormatError(RainbowCubeError):
    """A text-format record could not be parsed."""


class LimitExceeded(RainbowCubeError):
    """Input exceeds a hard size guard for an exhaustive operation."""


class CycleDetected(RainbowCubeError):
    """Parent pointers contain a cycle."""


class DisconnectedInput(RainbowCubeError):
    """Tree input does not describe a single connected rooted tree."""


class IndexOutOfRange(RainbowCubeError):
    """A parent index is outside the vertex range."""


class EmptyTree(RainbowCubeError):
    """The operation needs a tree with at least one edge."""


class DegreeTooSmall(RainbowCubeError):
    """Host minimum degree is below the tree's edge count (caller error)."""


class PreconditionViolated(RainbowCubeError):
    """A stage's precondition or counting hypothesis failed: an engine bug
    from `embed_rainbow_tree`; from `premap`, `extend_path`, `extend_spider`
    or `extend_tree` on a hand-built embedding, possibly a bad input."""


class NoCandidate(RainbowCubeError):
    """No admissible edge existed although the counting bound promised one."""
