"""Exception types shared across the package."""


class StrongboundsError(Exception):
    """Base class for all library errors."""


class _ArcFault(StrongboundsError):
    """Carries, when `from_arcs` raises it for an arc, the arc's input position as ``index``."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class LoopArc(_ArcFault):
    """An arc whose tail and head coincide (loops are not allowed)."""


class ParallelArc(_ArcFault):
    """The same ordered arc given more than once."""


class VertexOutOfRange(_ArcFault):
    """A vertex id outside 0..n-1."""


class NotStrong(StrongboundsError):
    """Operation requires a strongly connected digraph.

    Carries, when known, one unreachable ordered pair as ``pair``.
    """

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class SizeOverflow(StrongboundsError):
    """A structure would exceed the vertex budget or the sizes fixed-width arrays can hold."""


class ParseError(StrongboundsError):
    """Malformed edge-list input. Carries the 1-based line number as ``line``."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class InvalidConfig(StrongboundsError):
    """A generator, verification or product-budget setting outside its allowed range."""
