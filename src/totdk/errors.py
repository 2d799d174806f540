"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ResourceLimitError(RuntimeError):
    """A brute-force computation would exceed its fixed size bound, or a worker
    process of a sharded run died."""


class InvariantViolation(RuntimeError):
    """An internal exactness invariant failed; indicates an implementation bug."""
