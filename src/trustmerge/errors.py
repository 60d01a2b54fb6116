"""The toolkit's errors, each named for what the caller has to fix."""


class TrustMergeError(Exception):
    """Base class for all toolkit errors; ``name`` is the machine-readable code."""
    name = "Error"

    def __str__(self) -> str:
        msg = super().__str__()
        return f"{self.name}: {msg}" if msg else self.name


class ConfigError(TrustMergeError, ValueError):
    """A setting out of range, of the wrong type, or unknown; the CLI exits 2."""
    name = "ConfigError"


class MalformedArtifact(TrustMergeError):
    """A file whose bytes or contents fail a check; the message names it."""
    name = "MalformedArtifact"


class MissingArtifact(TrustMergeError):
    """A file that is not there."""
    name = "MissingArtifact"


class IncompatibleShapes(TrustMergeError):
    """Inputs whose layouts, widths or counts do not fit the operation."""
    name = "IncompatibleShapes"


class NonFiniteValues(TrustMergeError):
    """NaN or inf where finite numbers are needed."""
    name = "NonFiniteValues"
