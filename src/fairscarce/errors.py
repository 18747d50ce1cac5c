"""Exception types raised across the package."""


class FairscarceError(Exception):
    """Base class for all package errors."""


class ConfigError(FairscarceError):
    """A config file or CLI argument is malformed or inconsistent."""


# --- tabular data ---------------------------------------------------------

class MissingColumn(FairscarceError):
    """A column named by the schema is absent from the CSV header."""


class MalformedRow(FairscarceError):
    """A row could not be parsed under strict mode."""


class EmptyFile(FairscarceError):
    """The CSV contains no data rows."""


class EmptyFit(FairscarceError):
    """Encoding was asked to fit its numeric statistics on no rows, or on
    rows outside the table."""


class InsufficientRows(FairscarceError):
    """A stratification cell is empty, so the requested split is impossible."""


# --- neural core ----------------------------------------------------------

class ShapeMismatch(FairscarceError):
    """Input or gradient shapes do not match the network architecture."""


class NonFiniteGradient(FairscarceError):
    """A gradient passed to the optimizer contains NaN or infinity."""


class DivergedTraining(FairscarceError):
    """Training produced a non-finite loss."""


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
