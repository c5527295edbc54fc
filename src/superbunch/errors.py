"""The two exceptions the package handles.

Bad input is refused where it enters, naming its config key, flag, or
file and line or record: a configuration problem raises ConfigError and
the CLI exits 2; malformed or degenerate input data raises DataError
and it exits 3.  A config is checked in full when `build_config` builds
it, the fit start included; a photon file, timestamp range included,
when `read_photon_stream` reads it.  A failed fit of record exits 4,
and a sweep with a point that raised either error exits 5.  Any other
exception, ValueError included, is a bug and stops the run.
"""


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


class DataError(Exception):
    """Malformed input data or degenerate input (e.g. an empty channel)."""


class ResolutionError(ConfigError):
    """Event rate too high for the detector timestamp resolution."""
