"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericalError(ShapeError):
    """A tensor or an operation's result holds a non-finite value."""


class ConfigError(ValueError):
    """A configuration value or combination of values is invalid."""


class ContractError(RuntimeError):
    """A caller violated an API precondition."""


class DataError(ValueError):
    """Input data is malformed or inconsistent with its declared task."""


class FormatError(ValueError):
    """A file does not follow its declared binary/text layout."""


class TrainingError(RuntimeError):
    """Training diverged or otherwise failed; carries seed/epoch context."""
