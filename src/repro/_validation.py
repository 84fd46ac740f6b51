"""Internal argument validation helpers shared across the package."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import InvalidParameterError


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` is a probability in ``(0, 1]`` and return it.

    Inclusion probabilities of zero are rejected: an entry that can never be
    sampled makes every unbiased nonnegative estimator of an increasing
    function undefined.
    """
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise InvalidParameterError(
            f"{name} must be in (0, 1], got {value!r}"
        )
    return value


def check_probability_vector(
    values: Sequence[float], name: str = "probabilities"
) -> tuple[float, ...]:
    """Validate a vector of inclusion probabilities."""
    if len(values) == 0:
        raise InvalidParameterError(f"{name} must not be empty")
    return tuple(
        check_probability(v, name=f"{name}[{i}]") for i, v in enumerate(values)
    )


def check_positive(value: float, name: str = "value") -> float:
    """Validate that ``value`` is strictly positive and return it."""
    value = float(value)
    if not value > 0.0:
        raise InvalidParameterError(f"{name} must be > 0, got {value!r}")
    return value


def check_nonnegative(value: float, name: str = "value") -> float:
    """Validate that ``value`` is nonnegative and return it."""
    value = float(value)
    if value < 0.0:
        raise InvalidParameterError(f"{name} must be >= 0, got {value!r}")
    return value


def check_positive_vector(
    values: Sequence[float], name: str = "values"
) -> tuple[float, ...]:
    """Validate a vector of strictly positive numbers."""
    if len(values) == 0:
        raise InvalidParameterError(f"{name} must not be empty")
    return tuple(
        check_positive(v, name=f"{name}[{i}]") for i, v in enumerate(values)
    )


def check_unit_interval(value: float, name: str = "value") -> float:
    """Validate that ``value`` lies in ``[0, 1]`` and return it."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise InvalidParameterError(
            f"{name} must be in [0, 1], got {value!r}"
        )
    return value


def check_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator, an integer seed, or ``None`` (fresh
    entropy).  Keeping the coercion in one place makes every stochastic
    entry point of the package accept the same spectrum of inputs.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
