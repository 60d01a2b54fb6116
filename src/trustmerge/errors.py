"""Exception hierarchy shared across the toolkit."""


class TrustMergeError(Exception):
    """Base class for all toolkit errors; ``name`` is the machine-readable code."""

    name = "Error"

    def __str__(self) -> str:
        msg = super().__str__()
        return f"{self.name}: {msg}" if msg else self.name


class IncompatibleShapes(TrustMergeError):
    name = "IncompatibleShapes"


class ShapeMismatch(TrustMergeError):
    name = "ShapeMismatch"


class NonFiniteScalar(TrustMergeError):
    name = "NonFiniteScalar"


class NonFiniteValues(TrustMergeError):
    name = "NonFiniteValues"


class DuplicateName(TrustMergeError):
    name = "DuplicateName"


class BadMagic(TrustMergeError):
    name = "BadMagic"


class UnsupportedVersion(TrustMergeError):
    name = "UnsupportedVersion"


class TruncatedFile(TrustMergeError):
    name = "TruncatedFile"


class MalformedArtifact(TrustMergeError):
    """A TMRG or CSV file whose contents do not follow its format."""

    name = "MalformedArtifact"


class NegativeTolerance(TrustMergeError):
    name = "NegativeTolerance"


class EmptyExemplarSet(TrustMergeError):
    name = "EmptyExemplarSet"


class TooFewTasks(TrustMergeError):
    name = "TooFewTasks"


class EmptyList(TrustMergeError):
    name = "EmptyList"


class EmptyUnlabeledSet(TrustMergeError):
    name = "EmptyUnlabeledSet"


class MissingArtifact(TrustMergeError):
    name = "MissingArtifact"


class ConfigError(TrustMergeError, ValueError):
    """A setting outside its documented range; the CLI exits 2 on it."""

    name = "ConfigError"


class TauOutOfRange(ConfigError):
    name = "TauOutOfRange"


class TrimOutOfRange(ConfigError):
    name = "TrimOutOfRange"
