"""Exception types raised across the toolkit, the range check every loader
and flag parser rejects a number with, and build_record, the one reader of
a scenario part, catalog record or curve file from a JSON object."""

import math
from dataclasses import MISSING


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
    """Scenario or catalog file is malformed or internally inconsistent."""


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


def build_record(cls, data, converters, /, **given):
    """A dataclass ``cls`` from a JSON object whose keys are its field
    names, less those in ``given``. A key is optional exactly when its
    field has a default, and a key that names no field is rejected. Each
    value converts by ``converters`` under its key, by float otherwise."""
    if not isinstance(data, dict):
        raise TypeError(f"expected an object, got {type(data).__name__}")
    record_fields = cls.__dataclass_fields__  # fields() builds a tuple per call
    for key in data:
        if key not in record_fields or key in given:
            raise ScenarioError(f"unknown key {key!r}")
    for name, field in record_fields.items():
        if field.default is MISSING and name not in data and name not in given:
            raise ScenarioError(f"missing key {name!r}")
    return cls(**given, **{key: converters.get(key, float)(value)
                           for key, value in data.items()})
