"""Exception types shared across the package.

Everything derives from CoronagridError so callers can catch domain failures
without swallowing programming errors.
"""

from __future__ import annotations


class CoronagridError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateInput(CoronagridError):
    """Point set too degenerate for the requested construction (e.g. all collinear)."""


class ValidationError(CoronagridError, ValueError):
    """Semantically invalid input (non-unit normal, parallel directions, bad offset...)."""


class ParallelLines(CoronagridError):
    """Two lines of the same grid family never meet in a single point."""


class SameGrid(CoronagridError):
    """Operation requires two distinct grid families."""


class SingularMultigrid(CoronagridError):
    """Three or more lines (nearly) meet in a point; ordering along lines is unreliable."""


class NotACrossing(CoronagridError):
    """The given point is not an intersection of two grid lines."""


class GridNotRepresented(CoronagridError):
    """Some grid direction has no line through the patch; grow the patch first."""

    def __init__(self, missing: tuple[int, ...]):
        super().__init__(f"no line of grid(s) {missing} meets the patch")
        self.missing = missing


class OnGridLine(CoronagridError):
    """Dualization is only defined on open cells, not on grid lines themselves."""


class ResourceLimit(CoronagridError):
    """Exploration exceeded the configured crossing cap."""


class Unreachable(CoronagridError):
    """Graph distance exceeds the search cap."""


class BoundaryContamination(CoronagridError):
    """The avalanche reached the window boundary; later rounds would be invalid."""


class EmptyScene(CoronagridError):
    """Nothing to render."""


class ParseError(CoronagridError):
    """Malformed configuration text; carries line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
