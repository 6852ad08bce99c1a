"""The package's two base exceptions; the CLI picks its exit code from them.

Every exception the package raises derives from ``IssueforgeError``.
``ValidationError`` (exit 2) is malformed or out-of-range content: an
argument, a config value, or a line of an input file. Any other
``IssueforgeError`` (exit 3) is an input a stage cannot use, a missing file,
or a network failure.
"""


class IssueforgeError(Exception):
    """A run that cannot go on; the CLI exits 3."""


class ValidationError(IssueforgeError, ValueError):
    """Malformed or out-of-range input; the CLI exits 2."""
