"""Exception types raised across the package.

Each class is a decision some caller makes on it, and there are six:

- ``FairscarceError``: the run itself failed. ``cli.main`` prints
  ``error: <message>`` and exits 1.
- ``ConfigError``: bad input, be it a setting, a path's contents, a corpus
  or a schema. ``cli.main`` prints ``config error: <message>`` and exits 2.
- ``ShapeMismatch``: ``attribute.load_checkpoint`` reads one raised by the
  stored weights as a damaged checkpoint (a ConfigError).
- ``EmptySelection``, ``DegenerateGroup`` and ``DegenerateCell``:
  ``harness.tune_threshold`` counts the candidates that fail with each, and
  names the counts when no candidate can be trained.

Any other failure raises the base class its caller decides on, with a
message that names it; a new class needs a caller that branches on it.
"""


class FairscarceError(Exception):
    """Base class for all package errors: the run failed."""


class ConfigError(FairscarceError):
    """A config file, CLI argument or input file is malformed or inconsistent."""


class ShapeMismatch(FairscarceError):
    """Input or gradient shapes do not match the network architecture."""


class EmptySelection(FairscarceError):
    """An uncertainty filter removed every row."""


class DegenerateGroup(FairscarceError):
    """A group holds no weight where its rate is needed: no constraint
    weight in a training selection, or no row in a scored report."""


class DegenerateCell(FairscarceError):
    """A (group, label) cell holds no weight where its rate is needed."""
