"""Exception taxonomy.

ConfigError means the request itself is malformed (bad sizes, unknown keys,
out-of-range parameters, non-finite inputs) and maps to CLI exit status 2.
DomainError means a well-formed request failed at run time (non-finite data
that the run computed, empty regions, solver breakdown) and maps to exit
status 1.
"""


class RandbcError(Exception):
    pass


class ConfigError(RandbcError):
    """Invalid configuration or parameters; the run never started."""


class DomainError(RandbcError):
    """Runtime failure on valid configuration (data, convergence, geometry)."""


class SolverError(DomainError):
    """Linear solve did not meet its residual contract."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
