"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 1 (a diverged trainer or
classifier included), DataError -> 2, anything else -> 3.
"""


class KgstructError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(KgstructError):
    """Invalid configuration or command-line usage."""


class DataError(KgstructError):
    """Input data is missing, malformed, or inconsistent with a request."""


class ParseError(DataError):
    """A line of an edge file could not be parsed."""

    def __init__(self, path, line_number, message):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = str(path)
        self.line_number = line_number


class TrainingDivergedError(ConfigError):
    """Training produced non-finite values: a setting, such as the learning rate, cannot run."""
