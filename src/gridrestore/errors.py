"""Exception types shared across the package."""


class GridRestoreError(Exception):
    """Base class for all errors raised by this package."""


class CaseFormatError(GridRestoreError):
    """The case or scenario file could not be parsed."""


class ConfigError(GridRestoreError):
    """A command-line option (or its environment variable) is out of range."""


class CaseValidationError(GridRestoreError):
    """A network violates one or more structural invariants."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class UnknownIdError(GridRestoreError):
    """A referenced component id does not exist in the network."""


class InfeasibleError(GridRestoreError):
    """The optimization problem has no feasible solution."""


class SolverError(GridRestoreError):
    """The solver failed numerically or exhausted its work budget."""
