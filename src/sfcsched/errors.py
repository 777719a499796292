"""Exception types shared across the simulator, and the field checks.

An argument outside a call's domain raises ValueError (ValidationError, with
the dotted path, for a scenario field); a lookup of an id that a table does
not hold raises KeyError; a broken engine invariant raises AssertionError.
The classes below are the ones the CLI maps to its exit statuses.
"""

import sys
from dataclasses import MISSING, field, fields


class SfcSchedError(Exception):
    """Base class for all simulator errors."""


class IoError(SfcSchedError):
    """Reading or writing an artifact file failed."""


class ParseError(SfcSchedError):
    """Scenario file is not well-formed."""


class ValidationError(SfcSchedError, ValueError):
    """Scenario content violates an invariant.

    Carries the dotted path of the offending field for error reporting.  It
    is also a ValueError, which value classes such as ``WeightParams`` raise
    when built with a bad field outside any scenario file.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


def is_number(value):
    """A finite int or float that converts to a float: the simulation
    computes in floats, so infinity and larger integers cannot enter it."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# A rule is a (test, message) pair: the value passes when test(value) is
# true, and the message says what it must be.
POSITIVE = (lambda v: is_number(v) and v > 0, "must be a positive number")
NONNEGATIVE = (lambda v: is_number(v) and v >= 0, "must be a nonnegative number")


def int_in(lo, hi=None):
    """The rule for an integer in [lo, hi], or at least lo when hi is None."""
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    return (lambda v: is_int(v) and lo <= v and (hi is None or v <= hi),
            f"must be an integer {bound}")


def list_of(test, items, increasing=False):
    """The rule for a nonempty list whose items all pass ``test``, each above
    the one before when ``increasing``; ``items`` names them in the message."""
    return (lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(test, v))
            and not (increasing and any(b <= a for a, b in zip(v, v[1:]))),
            f"must list {'strictly increasing ' if increasing else ''}{items}")


def checked(rule, default=MISSING, section=None):
    """A dataclass field whose value must pass ``rule``.  ``section`` names
    the file section the field is read from when that is not its class's."""
    return field(default=default, metadata={"rule": rule, "section": section})


def check_fields(obj, section):
    """Check each field of the dataclass ``obj`` against its rule, in field
    order; the first that fails raises ValidationError at ``section.field``."""
    for f in fields(obj):
        if "rule" in f.metadata:
            test, message = f.metadata["rule"]
            if not test(getattr(obj, f.name)):
                raise ValidationError(f"{f.metadata['section'] or section}.{f.name}",
                                      message)


def section_keys(cls, section=None):
    """The keys a file section holds for ``cls``: its checked fields read
    from ``section``, or from the class's own section when None."""
    return tuple(f.name for f in fields(cls)
                 if "rule" in f.metadata and f.metadata["section"] == section)
