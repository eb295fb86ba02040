"""Exception types shared across the package.

Every error raised on purpose derives from SpdefemError so callers can
catch the package's failures without swallowing genuine bugs.
"""


class SpdefemError(Exception):
    pass


class InvalidArgumentError(SpdefemError, ValueError):
    """An argument fails a documented precondition."""


class ConstraintError(InvalidArgumentError):
    """A parameter set violates a model constraint.

    The message names the offending quantity so a config author can fix it.
    """


class CapacityError(SpdefemError):
    """A requested size exceeds a configured capacity limit."""


class SingularMatrixError(SpdefemError):
    """Factorization hit a non-positive pivot."""


class NumericalBlowupError(SpdefemError):
    """The time stepper produced a non-finite state.

    Carries the step index and the sup norm of the offending iterate.
    With a validated taming configuration this should never fire; it
    signals a misconfiguration rather than an expected event.
    """

    def __init__(self, step_index, sup_norm):
        self.step_index = int(step_index)
        self.sup_norm = float(sup_norm)
        super().__init__(
            f"non-finite state at step {self.step_index} (sup norm {self.sup_norm})"
        )


class ConfigError(SpdefemError):
    """A configuration document failed validation; message names the field."""
