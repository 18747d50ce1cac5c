"""Exception types raised across the package.

An error's class alone decides what it means to the command line:
``ConfigError`` and its subclasses are bad input (a setting, a path's
contents, a corpus or a schema) and exit 2; every other ``FairscarceError``
means the run itself failed and exits 1.

Callers tell only six classes apart: the CLI catches ``ConfigError`` and
``FairscarceError``, ``attribute.load_checkpoint`` reads a ``ShapeMismatch``
of the stored weights as a damaged checkpoint, and threshold tuning skips a
candidate that raises ``EmptySelection``, ``DegenerateGroup`` or
``DegenerateCell``. The other classes name the failure in messages and tests.
"""


class FairscarceError(Exception):
    """Base class for all package errors."""


class ConfigError(FairscarceError):
    """A config file, CLI argument or input file is malformed or inconsistent."""


# --- tabular data: bad input ----------------------------------------------

class MissingColumn(ConfigError):
    """A column named by the schema is absent from the CSV header."""


class MalformedRow(ConfigError):
    """A row could not be parsed under strict mode."""


class EmptyFile(ConfigError):
    """The CSV contains no data rows."""


class InsufficientRows(ConfigError):
    """The corpus has too few rows for the requested split: a stratification
    cell is empty, or d2 cannot give every one of its slices a row."""


class EmptyFit(FairscarceError):
    """Encoding was asked to fit its numeric statistics on no rows, or on
    rows outside the table."""


# --- neural core ----------------------------------------------------------

class ShapeMismatch(FairscarceError):
    """Input or gradient shapes do not match the network architecture."""


class NonFiniteGradient(FairscarceError):
    """Phase-1 training produced a NaN or infinite loss or gradient."""


# --- uncertainty ----------------------------------------------------------

class EmptyCalibration(FairscarceError):
    """Conformal calibration received no calibration rows."""


# --- fairness metrics / reduction ----------------------------------------

class DegenerateGroup(FairscarceError):
    """A demographic group is empty where a group-conditional rate is needed."""


class DegenerateCell(FairscarceError):
    """A (group, label) cell is empty where a conditional rate is needed."""


class EmptySelection(FairscarceError):
    """An uncertainty filter removed every row."""


class NonFiniteCost(FairscarceError):
    """The cost-sensitive solver received non-finite costs."""
