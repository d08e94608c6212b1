"""Exception types shared across the package, the rule for integer settings,
and the seed rule with the seeded streams it completes."""

import operator

import numpy as np


class DomainError(ValueError):
    """Input violates a documented precondition (bad shape, zero column, ...)."""


class SolverError(RuntimeError):
    """An iterative solver failed to meet its tolerance within its budget."""


class ParseError(ValueError):
    """A matrix file could not be parsed.

    ``code`` is a stable machine-readable tag; ``line`` and ``column``
    are 1-based positions when they apply.
    """

    def __init__(self, message, code, line=None, column=None):
        super().__init__(message)
        self.code = code
        self.line = line
        self.column = column


def _require_count(value, name, low, high=None):
    """``value`` as an ``int`` of at least ``low`` and, when ``high`` is given,
    at most ``high``, else :class:`DomainError`.
    An integer is what :func:`operator.index` accepts: NumPy ints pass, floats fail."""
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if count < low:
        raise DomainError(f"{name} must be at least {low}, got {value!r}")
    if high is not None and count > high:
        raise DomainError(f"{name} must be at most {high}, got {value!r}")
    return count


def _require_seed(seed):
    """A seed: an integer in ``[0, 2**64)``."""
    seed = _require_count(seed, "seed", 0)
    if seed >= 2**64:
        raise DomainError(f"seed must be below 2**64, got {seed!r}")
    return seed


def _stream(seed, *spawn_key):
    """The generator of stream ``spawn_key`` under a checked ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss))


def _require_budget(iterations):
    """A mirror-descent budget: an integer of at least 1."""
    return _require_count(iterations, "the mirror-descent budget", 1)
