"""Exception taxonomy shared across the package, and the type check of the
config dataclasses that raises ConfigError.

Each class carries the exit code the CLI returns for it, inherited from one
base class per code: ConfigError 2, IoError 3, NumericalError 4, DataError 5.
ProtosegError itself and ShapeError, an internal contract violation, exit 1.
"""

import sys
from dataclasses import fields


class ProtosegError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ShapeError(ProtosegError):
    """Operand shapes do not conform to an operation's contract."""


class ConfigError(ProtosegError):
    """Invalid configuration value or malformed config document."""

    exit_code = 2


class RangeError(ConfigError):
    """Scalar argument outside its documented interval."""


class IoError(ProtosegError):
    """Filesystem failure while reading or writing artifacts."""

    exit_code = 3


class FormatError(IoError):
    """Malformed file content (netpbm headers, checkpoint framing, CRC)."""


class NumericalError(ProtosegError):
    """Non-finite values or numerically invalid arguments."""

    exit_code = 4


class DataError(ProtosegError):
    """Dataset-level violation: unknown class ids, exhausted pools, ..."""

    exit_code = 5


class EmptyMaskError(DataError):
    """A pooling mask selects zero pixels where at least one is required."""


class GenerationError(DataError):
    """Scene synthesis could not satisfy placement constraints."""


class DegenerateError(DataError):
    """A metric or reduction has no valid inputs."""


class DegenerateBatchError(DegenerateError):
    """Every pixel of a batch is ignored; no loss can be formed."""


def check_field_types(config) -> None:
    """Raise ConfigError unless every field of the config dataclass holds what
    its annotation names: an ``int`` field a non-bool integer, a ``float``
    field a non-bool real that is a finite float (so no integer too large
    for one)."""
    for f in fields(config):
        value = getattr(config, f.name)
        real = isinstance(value, (int, float)) and not isinstance(value, bool)
        if f.type == "int" and not (real and isinstance(value, int)):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if f.type == "float" and not (real and abs(value) <= sys.float_info.max):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
