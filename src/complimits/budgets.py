"""Size budgets for exact computations.

Each exact spectrum constructor reads its own budget from the environment
when it runs, falling back to a default safe for an interactive machine:

    COMPLIMITS_TYPE_CLASS_BUDGET   max number of type classes in an exact
                                   memoryless spectrum (default 2_000_000)
    COMPLIMITS_ENUM_BUDGET         max number of paths enumerated in an exact
                                   Markov spectrum (default 20_000)
"""

import os


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def type_class_budget() -> int:
    """Largest number of type classes an exact memoryless spectrum may hold."""
    return _env_int("COMPLIMITS_TYPE_CLASS_BUDGET", 2_000_000)


def enumeration_budget() -> int:
    """Largest number of paths an exact Markov spectrum may enumerate."""
    return _env_int("COMPLIMITS_ENUM_BUDGET", 20_000)
