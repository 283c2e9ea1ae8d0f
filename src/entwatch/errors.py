"""Exception types shared across the package, how their messages show values,
and the one file boundary: ``opened`` is the package's only call of ``open``,
so an OSError on any file it opens, reads, writes or closes is an error
naming the path, never a traceback.

An ``EntwatchError`` is the failure of one input the command line names, and
its message names the input: a trace or directory (``MalformedRecord``,
``UnsupportedVersion``, ``IoFailure``), a profile (``CorruptProfile``,
``UnsupportedVersion``, ``IoFailure``), a report.csv (``MalformedRecord``,
``IoFailure``), a config (``ConfigError``) or a scenario spec
(``InvalidSpec``); or it is a fit its inputs cannot support
(``TooFewSamples``). A value outside a library function's domain is a
ValueError, which a reader of a file wraps in the file's error type."""

import contextlib
import reprlib


class EntwatchError(Exception):
    """The failure of one command-line input or of a fit; see the module docstring."""


class TooFewSamples(EntwatchError):
    """Not enough samples to fit a baseline distribution for a level."""


class UnsupportedVersion(EntwatchError):
    """A profile or trace file declares a format version this build cannot read."""


class CorruptProfile(EntwatchError):
    """Profile file failed checksum or structural validation."""


class IoFailure(EntwatchError):
    """Underlying I/O operation failed."""


class MalformedRecord(EntwatchError):
    """A line of a trace file or a report.csv could not be parsed into a valid
    record, or a record cannot be windowed."""


class InvalidSpec(EntwatchError):
    """Scenario specification violates its constraints."""


class ConfigError(EntwatchError):
    """Run configuration file is missing, malformed, or inconsistent."""


@contextlib.contextmanager
def opened(path, mode: str, failure: str, error=IoFailure, **open_args):
    """``path`` opened in ``mode``; any OSError while opening, reading,
    writing or closing it is ``error(f"{failure}: {exc}")``."""
    try:
        with open(path, mode, **open_args) as fh:
            yield fh
    except OSError as exc:
        raise error(f"{failure}: {exc}") from exc


# A rejected value can be as large as the file it came from, and its message
# is one line on stderr: ``shown`` cuts containers to their first items and
# three levels deep, long strings and numbers in the middle, and the whole to
# SHOWN_CHARS characters.
SHOWN_CHARS = 200


def shown(value) -> str:
    """``repr(value)`` for an error message, at most SHOWN_CHARS characters long."""
    cut = reprlib.Repr()
    cut.maxlevel = 3
    cut.maxstring = cut.maxlong = cut.maxother = 80
    text = cut.repr(value)
    return text if len(text) <= SHOWN_CHARS else text[:SHOWN_CHARS - 3] + "..."


# The exact types that ``checked`` accepts for a kind, and its name in messages.
_KINDS = {int: ({int}, "an integer"), float: ({int, float}, "a number")}


def checked(value, name: str, kind, *, optional: bool = False):
    """``value`` if its exact type fits ``kind``, else ValueError naming ``name``.

    A bool is neither an int nor a number, and a string is not a list. Kind
    ``float`` takes an int or a float and returns a float; a one-type tuple
    ``(item,)`` takes a list or tuple of ``item`` values and returns a tuple.
    ``optional`` lets None through.
    """
    if type(value) is kind:  # the common case, and already the type it becomes
        return value
    if optional and value is None:
        return None
    item = kind[0] if type(kind) is tuple else kind
    allowed, what = _KINDS.get(item) or ({item}, f"a {item.__name__}")
    try:
        if type(kind) is not tuple:
            if type(value) not in allowed:
                raise ValueError(f"{name} must be {what}, got {shown(value)}")
            return float(value) if kind is float else value
        if type(value) not in (list, tuple) or not allowed.issuperset(map(type, value)):
            raise ValueError(f"{name} must be a list, each item {what}, got {shown(value)}")
        return tuple(map(float, value)) if item is float else tuple(value)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} is past the float range, got {shown(value)}") from None
