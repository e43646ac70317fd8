"""Exception types shared across the package."""


class SatolabError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(SatolabError):
    """A configuration value is missing, malformed, or out of range.

    The offending field name is kept so command-line callers can report
    exactly which input to fix.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"config field '{field}': {message}")


class ContractViolation(SatolabError):
    """A numerical guarantee failed at runtime (not a user input problem)."""
