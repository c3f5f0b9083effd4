"""Exception types shared across the package."""


class SizeLimitError(ValueError):
    """Requested problem size exceeds a configured guard."""
