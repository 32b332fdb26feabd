"""Exception types shared across the package."""


class CoreselError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(CoreselError, ValueError):
    """Operands have incompatible or invalid shapes."""


class EmptyInputError(CoreselError, ValueError):
    """An operation received an empty batch, pool, or dataset."""


class FormatError(CoreselError, ValueError):
    """A data file violates its expected binary or text format."""


class ConfigError(CoreselError, ValueError):
    """An experiment configuration is missing, malformed, or unknown."""


class IncompleteMatrixError(CoreselError, ValueError):
    """An accuracy matrix is missing entries required by a metric."""


class ContractError(CoreselError, ArithmeticError):
    """A result falls outside its documented range, e.g. a cosine score outside [-1, 1]."""


class DivergenceError(ContractError):
    """Training produced non-finite parameters, gradients or logits."""
