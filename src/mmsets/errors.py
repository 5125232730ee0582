"""Exception hierarchy shared across the package, the value checks the
config dataclasses share, and the one reader of input files.

The CLI maps these onto exit codes: configuration problems exit 1, data
validation problems exit 2, numeric runtime failures exit 3.
"""

import json
from pathlib import Path


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
    """Raise ValueError unless ``value`` is an ``int`` (not a bool) >= ``low``.
    A numpy integer is refused: it is not a JSON number."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(name: str, value, low: float, high: float = float("inf"),
               open_low: bool = False) -> None:
    """Raise ValueError unless ``value`` is an ``int`` or ``float`` (not a bool)
    in ``[low, high)``, or ``(low, high)`` when ``open_low``. NaN and inf fail."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (low < value if open_low else low <= value) or not value < high):
        raise ValueError(f"{name} must be a number in {'(' if open_low else '['}{low}, "
                         f"{high}), got {value!r}")


def read_text(path, error) -> str:
    """The text of the UTF-8 file at ``path``. A file that is missing,
    unreadable or not UTF-8 raises ``error``, the caller's MMSetsError class,
    with a message naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{path}: not found") from None
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None


def read_json_object(path, error) -> dict:
    """The JSON object in the file at ``path``; besides ``read_text``'s
    failures, text that is not JSON, or JSON that is not an object, raises
    ``error``."""
    try:
        obj = json.loads(read_text(path, error))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise error(f"{path}: must hold a JSON object, got {type(obj).__name__}")
    return obj
