"""Exception hierarchy shared across the package."""


class RbellError(Exception):
    """Base class for all package-specific errors."""


class UndefinedTimeError(RbellError):
    """A timeline was evaluated before its earliest defined time."""


class CellError(RbellError):
    """A correlation/probability cell could not be used."""

    def __init__(self, key, message: str):
        super().__init__(message)
        self.key = tuple(key)


class MissingCellError(CellError):
    """A required setting quadruple is absent from the input."""

    def __init__(self, key):
        super().__init__(key, f"missing correlation cell for quadruple {tuple(key)!r}")


class InsufficientCellError(CellError):
    """A required cell exists but has too few trials to be trusted."""

    def __init__(self, key, count: int):
        super().__init__(key, f"cell {tuple(key)!r} has only {count} trials")
        self.count = count


class UnknownModelError(RbellError):
    """A model name is not present in the registry."""


class UnsupportedModelError(RbellError):
    """The requested operation is not defined for this kind of model."""


class UnsupportedObjectiveError(RbellError):
    """The optimizer cannot evaluate the requested objective."""


class ConfigError(RbellError):
    """A configuration file or command-line input is invalid."""


class StreamFormatError(ConfigError):
    """An intervention stream file has a malformed row."""
