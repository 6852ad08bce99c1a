"""The package's two base exceptions, from which the CLI picks its exit code, and its integer check.

Every exception the package raises derives from ``IssueforgeError``.
``ValidationError`` (exit 2) is malformed or out-of-range content: an
argument, a config value, or a line of an input file. Any other
``IssueforgeError`` (exit 3) is an input a stage cannot use or a network
failure; a missing or unreadable file is the ``OSError`` of opening it (exit 3).
"""


class IssueforgeError(Exception):
    """A run that cannot go on; the CLI exits 3."""


class ValidationError(IssueforgeError, ValueError):
    """Malformed or out-of-range input; the CLI exits 2."""


def check_int(name: str, value, low: int | None = None) -> None:
    """A ValidationError unless ``value`` is an integer (not a bool), and at least ``low`` when one is given."""
    if not isinstance(value, int) or isinstance(value, bool) or low is not None and value < low:
        bound = "" if low is None else f" >= {low}"
        raise ValidationError(f"{name} must be an integer{bound}, got {value!r}")
