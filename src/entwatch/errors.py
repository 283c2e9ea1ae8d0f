"""Exception types shared across the package."""


class EntwatchError(Exception):
    """Base class for all errors raised by this package."""


class InsufficientSamples(EntwatchError):
    """A series does not contain enough samples for the requested statistic."""


class IrregularSpacing(EntwatchError):
    """Sample spacing deviates too far from uniform for a finite difference."""


class ShapeMismatch(EntwatchError):
    """Two binned distributions do not share support bounds and bin count."""


class NoLevels(EntwatchError):
    """A hierarchy configuration contains no levels."""


class EmptyLevel(EntwatchError):
    """A level aggregate was requested with no member entropies."""


class TooFewSamples(EntwatchError):
    """Not enough samples to fit a baseline distribution for a level."""


class InvalidPrior(EntwatchError):
    """Prior probability outside [0, 1]."""


class EmptyWindow(EntwatchError):
    """An empirical distribution was requested over zero samples."""


class UnsupportedVersion(EntwatchError):
    """Profile file declares a format version this build cannot read."""


class CorruptProfile(EntwatchError):
    """Profile file failed checksum or structural validation."""


class IoFailure(EntwatchError):
    """Underlying I/O operation failed."""


class TooFewVectors(EntwatchError):
    """Clustering needs at least two feature vectors."""


class MalformedRecord(EntwatchError):
    """A trace file line could not be parsed into a valid event record."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class InvalidSpec(EntwatchError):
    """Scenario specification violates its constraints."""


class EmptyInput(EntwatchError):
    """Metrics requested over an empty verdict sequence."""


class ConfigError(EntwatchError):
    """Run configuration file is missing, malformed, or inconsistent."""
