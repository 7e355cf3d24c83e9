"""Shared plumbing: the exactness cut-off, exceptions, Fibonacci numbers,
rational helpers."""

from fractions import Fraction

import numpy as np


# Results are exact Fractions through this n and float64 above it, unless
# the caller asks for a mode
RATIONAL_MAX_N = 12


def default_mode(n):
    """The arithmetic used at n when the caller names none."""
    return "rational" if n <= RATIONAL_MAX_N else "float"


class ValidationError(ValueError):
    """Raised when an input fails a structural precondition."""


class CapacityError(RuntimeError):
    """Raised when a request exceeds a configured capacity cap."""


def fib(k):
    """Fibonacci number with fib(0) = 0, fib(1) = fib(2) = 1."""
    if k < 0:
        raise ValidationError(f"fib undefined for k = {k}")
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def binom2(m):
    """m choose 2."""
    return m * (m - 1) // 2


# Fraction(p, q) entry by entry, broadcast over arrays of Python ints
to_fractions = np.frompyfunc(Fraction, 2, 1)


def exact_fractions(values):
    """The entries of ``values`` as exact Fractions, in a list; numpy scalars
    become Python numbers first, so no fixed-width integer is kept."""
    return [Fraction(v) for v in np.asarray(values).tolist()]


def zeros(shape, mode):
    """Zero array: Fraction(0) objects in rational mode, float64 otherwise."""
    if mode == "rational":
        out = np.empty(shape, dtype=object)
        out[...] = Fraction(0)
        return out
    return np.zeros(shape)


def format_number(value):
    """Render a rational as p/q in lowest terms, a float with 17 significant digits."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def parse_number(text):
    """Inverse of format_number for "p/q", integer, and float strings."""
    text = text.strip()
    if "/" in text:
        p, q = text.split("/")
        return Fraction(int(p), int(q))
    try:
        return int(text)
    except ValueError:
        return float(text)
