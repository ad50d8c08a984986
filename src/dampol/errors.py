"""Exception types shared across the package."""


class DampolError(Exception):
    """Base class for all package-specific failures."""


class PoleError(DampolError, ValueError):
    """Evaluation requested exactly on a resolvent pole."""


class SingularOperatorError(DampolError, RuntimeError):
    """A linear operator is singular or too ill-conditioned to invert.

    Carries the offending condition number (or singular-value ratio) and,
    where relevant, the frequency node index.
    """

    def __init__(self, message, cond=None, node=None):
        super().__init__(message)
        self.cond = cond
        self.node = node


class DegenerateCouplingError(DampolError, RuntimeError):
    """The medium coupling is degenerate (structure tensor not positive)."""


class ConfigError(DampolError, ValueError):
    """Scenario configuration could not be parsed or is inconsistent."""


class ModelError(ConfigError):
    """Unknown model id or parameters outside the admissible range.

    A configuration error: the CLI reports it with the usage exit code even
    when it surfaces inside a stage.
    """
