"""Exception types shared across the package."""


class SoundPropError(Exception):
    """Base class for all domain errors raised by soundprop."""


class ConfigurationError(SoundPropError):
    """Invalid configuration values (dims, spacing, windows, layouts, ...)."""


class InputError(SoundPropError):
    """Structurally valid call with semantically invalid data."""


class NoArrivalError(InputError):
    """Impulse response contains no detectable arrival (all-zero signal)."""


class UndefinedDecayError(InputError):
    """Decay slope is non-negative; no decay time can be derived."""


class IsolationError(InputError):
    """No visible grid vertex near the query point; interpolation impossible."""


class DegenerateGradientError(InputError):
    """Field gradient magnitude below threshold; direction is undefined."""


class DivergenceError(SoundPropError):
    """Training produced a non-finite loss.

    Carries the snapshot training had kept, the parameters it restored
    before raising, so callers can recover.
    """

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good


class FormatError(SoundPropError):
    """Malformed or truncated artifact file."""
