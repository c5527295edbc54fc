"""Exceptions shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, malformed or degenerate input data with 3, a failed fit of record
with 4, and a sweep with any failed point (ConfigError, DataError or
ValueError raised by that point) with 5.
"""


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


class DataError(Exception):
    """Malformed input data or degenerate input (e.g. an empty channel)."""


class ResolutionError(ValueError):
    """Event rate too high for the detector timestamp resolution."""
