"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a mathematical precondition (bad generator set,
    composite where a prime is required, parameter outside the stated domain)."""


class OutOfRangeError(DomainError):
    """A query reaches beyond the built prime table or a configured budget."""


class ConfigurationError(DomainError):
    """A runtime configuration value (sieve limit, budget) is unusable."""


class BudgetError(ConfigurationError, ArithmeticError):
    """A computation would exceed a fixed budget (64-bit Apery values, table
    memory); raised before the work or the allocation starts."""


class NotNumericalSemigroupError(DomainError):
    """Generators with gcd > 1: the complement is infinite, no Frobenius number."""


class DecompositionError(RuntimeError):
    """No prime decomposition exists inside the searched window; carries diagnostics."""


class InvariantViolationError(RuntimeError):
    """A computed result contradicts a fact the engine must maintain.

    Raised instead of returning silently-wrong data; seeing one is a bug
    (or a genuine mathematical discovery, which deserves a loud failure too).
    """
