"""Exception types shared across the package."""


class CoverSmoothError(Exception):
    """Base class for all package errors."""


class DomainError(CoverSmoothError):
    """A point or stencil left the domain of validity of a field."""


class EmptyGridError(CoverSmoothError):
    """Grid sampling produced no nodes (spacing too large for the domain)."""


class UnsupportedDimensionError(CoverSmoothError):
    """Operation restricted to a specific complex dimension."""


class ParameterError(CoverSmoothError):
    """A smoothing-parameter inequality failed.

    The violated condition is recorded verbatim in ``condition`` so callers
    (and the CLI) can name it.
    """

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        self.detail = detail
        msg = condition if not detail else f"{condition} [{detail}]"
        super().__init__(msg)


class CoverageError(CoverSmoothError):
    """Refinement triples fail to cover the region they must cover."""


class ScenarioError(CoverSmoothError):
    """Unknown scenario id or invalid configuration override."""
