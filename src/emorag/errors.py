"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`EmoragError` so callers can
catch one base class at the boundary (the CLI does exactly that).  I/O-level
failures from the OS (missing files, permission errors) are deliberately left
as their builtin types.
"""


class EmoragError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(EmoragError):
    """A binary or JSON artifact does not conform to its on-disk format."""


class MalformedHeaderError(FormatError):
    """Magic bytes, version, or header framing of an artifact are wrong."""


class DimensionMismatchError(EmoragError):
    """Vector dimensionality disagrees with what the context requires."""


class NonFiniteValueError(EmoragError):
    """A NaN or infinity showed up where only finite values are allowed."""


class ZeroNormError(EmoragError):
    """An operation that needs a direction was handed the zero vector."""


class DuplicateIdError(EmoragError):
    """Two records in one database share an id."""


class InvalidIntensityError(EmoragError):
    """An intensity label is not one of weak / normal / strong."""


class InvalidParameterError(EmoragError):
    """A configuration value or argument is out of its legal range."""


class EmptyDatabaseError(EmoragError):
    """The operation needs at least one record and the database has none."""


class EmptySubsetError(EmoragError):
    """Intensity gating selected zero records.

    Carries the offending level so callers can report it.
    """

    def __init__(self, level):
        self.level = level
        super().__init__(f"no records at intensity {level!r}")


class StaleIndexError(EmoragError):
    """A cluster index was built from a different database than the one given."""


class MissingIndexError(EmoragError):
    """Clustering retrieval was requested without a cluster index."""


class MissingAssetError(EmoragError):
    """A referenced companion file (token sequence, checkpoint, ...) is absent."""


class TrainingDivergenceError(EmoragError):
    """Loss or gradients went non-finite during an optimization step."""


class IntegrationDivergenceError(EmoragError):
    """The ODE state went non-finite while integrating the learned field."""


class StageError(EmoragError):
    """Wraps a failure inside one stage of the inference pipeline.

    ``stage`` names the stage; ``__cause__`` holds the original exception.
    """

    def __init__(self, stage, cause):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.__cause__ = cause
