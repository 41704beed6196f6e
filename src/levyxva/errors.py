"""Exception taxonomy shared across the engine.

The CLI maps these onto exit codes: ConfigError -> 2, NumericalError -> 3,
ValidationFailure -> 4.  A bad input raises a ValueError whose message starts
with the field that holds it, which the CLI maps to the INI key that fed it.
"""


class EngineError(Exception):
    """Base class for engine failures."""


class ConfigError(EngineError):
    """Invalid or incomplete run configuration."""


class NumericalError(EngineError):
    """A numerical precondition failed (contraction, degenerate range, ...)."""


class ValidationFailure(EngineError):
    """A validation job detected a broken invariant."""
