"""Exception hierarchy shared across the package, plus the value checks
the config dataclasses share.

The CLI maps these onto exit codes: configuration problems exit 1, data
validation problems exit 2, numeric runtime failures exit 3.
"""

import numbers


class MMSetsError(Exception):
    """Base class for all package errors."""


class ConfigError(MMSetsError):
    """Bad flag, config file, or parameter combination."""


class DataError(MMSetsError):
    """A dataset record failed validation.

    Carries the offending sample id and a dotted/indexed field path so the
    message pinpoints the record, e.g. ``sample 's0042': instances[2].payload``.
    """

    def __init__(self, message, sample_id=None, field=None):
        self.sample_id = sample_id
        self.field = field
        prefix = ""
        if sample_id is not None:
            prefix += f"sample {sample_id!r}: "
        if field is not None:
            prefix += f"{field}: "
        super().__init__(prefix + message)


class EmptySetError(DataError):
    """A sample ended up with zero usable instances."""


class NumericError(MMSetsError):
    """A non-finite loss or gradient aborted the computation."""


def check_int(name: str, value, low: int = 1) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(name: str, value, low: float, high: float = float("inf"),
               open_low: bool = False) -> None:
    """Raise ValueError unless ``value`` is a real number (not a bool) in
    ``[low, high)``, or ``(low, high)`` when ``open_low``. NaN and inf fail."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (low < value if open_low else low <= value) or not value < high):
        raise ValueError(f"{name} must be a number in {'(' if open_low else '['}{low}, "
                         f"{high}), got {value!r}")
