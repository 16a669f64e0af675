"""Exception taxonomy shared across modules.

The CLI maps each class to a distinct exit code, so library code should
raise the most specific one that applies.
"""


# What every reader of an outside JSON document refuses as undecodable:
# json's errors and bad UTF-8 (ValueErrors), and nesting too deep for the
# parser (RecursionError).
UNDECODABLE = (ValueError, RecursionError)


class ConfigError(ValueError):
    """Invalid configuration value (bad dimensions, weights, ratios...)."""


class StructuralError(ValueError):
    """Shape or layout mismatch between arrays, specs, or parameter blocks."""


class DataFormatError(ValueError):
    """Malformed external data (CSV rows, sidecar files, containers)."""


class SupportError(ValueError):
    """Absolute-continuity violation: reference distribution vanishes where
    the measured one does not."""


class DomainError(ValueError):
    """Numerically inadmissible input (negative Fisher entries, zero priors)."""


class MissingArtifactError(FileNotFoundError):
    """A staged command needs an artifact that no previous stage produced."""


class TrainingDivergenceError(RuntimeError):
    """Training loss became non-finite. Carries the epoch where it happened."""

    def __init__(self, epoch: int, loss: float):
        self.epoch = epoch
        self.loss = loss
        super().__init__(f"training diverged at epoch {epoch}: loss={loss!r}")

    def __reduce__(self):
        # Rebuild from (epoch, loss) so the error crosses process boundaries.
        return type(self), (self.epoch, self.loss)
