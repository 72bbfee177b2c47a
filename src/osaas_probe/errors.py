"""Exception types raised across the toolkit, the range check every loader
and flag parser rejects a number with, read_json, the one reader of an
input file, build_record, the one reader of a record from a JSON object,
and the converters of its number, integer and text values."""

import json
import math
from dataclasses import MISSING
from pathlib import Path


class SpectrumError(ValueError):
    """Invalid spectral quantity (frequency, bandwidth, placement)."""


class CarrierRejectedError(SpectrumError):
    """Carrier occupied band does not fit inside the media channel."""


class LimitViolationError(ValueError):
    """Power policy would exceed the media channel power or PSD budget."""


class InsufficientDataError(ValueError):
    """Too few points for the requested fit or analysis."""


class FitRejectedError(ValueError):
    """Fitted characterization curve failed a quality or monotonicity gate."""


class CurveRangeError(ValueError):
    """Q reading falls outside the image of a characterization curve."""


class NoSignalError(RuntimeError):
    """No working probe result available for the requested analysis."""


class ScenarioError(ValueError):
    """Scenario file is malformed or internally inconsistent."""


class ConfigError(ValueError):
    """Bad flag, catalog or inconsistent configuration; maps to exit code 3."""


def read_json(path, what: str, error):
    """The JSON of the UTF-8 file ``path``, or ``error`` in one line. Bad UTF-8
    or JSON, too many digits and an unencodable path are ValueErrors."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def check_range(name: str, value, low=-math.inf, high=math.inf, *,
                low_open=False, high_open=False, unit="", error=ScenarioError):
    """Return ``value`` if it is finite and within ``low`` and ``high``, each
    end closed unless marked open, or raise ``error`` with one line naming
    the field, the interval and the value. The finiteness test compares, as
    math.isfinite overflows on a huge int; NaN fails every comparison."""
    if (-math.inf < value < math.inf
            and (low < value if low_open else low <= value)
            and (value < high if high_open else value <= high)):
        return value
    interval = ""
    if low > -math.inf or high < math.inf:
        left = "(" if low_open or low == -math.inf else "["
        right = ")" if high_open or high == math.inf else "]"
        interval = f" and in {left}{low:g}, {high:g}{right} {unit}".rstrip()
    raise error(f"{name} must be finite{interval}, got {value}")


def number(value, name: str) -> float:
    """A JSON number as a float. float() alone would take true, false and
    numeric text too: a bool is an int to Python, but no number to JSON."""
    if value.__class__ is not float and value.__class__ is not int:
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    return float(value)


def integer(value, name: str) -> int:
    """A JSON number without a fractional part, as an int of any size;
    int() alone would cut 3.7 to 3 and overflow on an infinite value."""
    if value.__class__ is not int and not number(value, name).is_integer():
        raise ScenarioError(f"{name} must be an integer, got {value}")
    return int(value)


def text(value, name: str) -> str:
    """A JSON string that encodes as UTF-8; str() would make text of any
    value, and a lone surrogate ("\\ud800") fails where it is written."""
    if value.__class__ is not str:
        raise ScenarioError(f"{name} must be a string, got {value!r}")
    try:
        value.encode()
    except UnicodeEncodeError:
        raise ScenarioError(f"{name} must be UTF-8 text, got {value!r}") from None
    return value


def build_record(cls, data, converters, /, **given):
    """A dataclass ``cls`` from a JSON object whose keys are its field
    names, less those in ``given``. A key is optional exactly when its
    field has a default, and a key that names no field is rejected. Each
    value converts by ``converters`` under its key, as a number otherwise."""
    if not isinstance(data, dict):
        raise TypeError(f"expected an object, got {type(data).__name__}")
    record_fields = cls.__dataclass_fields__  # fields() builds a tuple per call
    for key in data:
        if key not in record_fields or key in given:
            raise ScenarioError(f"unknown key {key!r}")
    for name, field in record_fields.items():
        if field.default is MISSING and name not in data and name not in given:
            raise ScenarioError(f"missing key {name!r}")
    return cls(**given, **{key: converters[key](value) if key in converters
                           else number(value, key)
                           for key, value in data.items()})
