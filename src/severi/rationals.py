"""Exact rational scalars.

Every quantity on the correctness path is a ``fractions.Fraction``: no
floating point is used anywhere.  The standard library keeps fractions in
lowest terms with a positive denominator, which is exactly the invariant the
rest of the package relies on.  This module only adds coercion and the
``p/q`` string serialization used in JSON records.
"""

from __future__ import annotations

from fractions import Fraction


def rat(value) -> Fraction:
    """Coerce an int, a ``p/q`` string or a Fraction to an exact Fraction.

    Floats are rejected: accepting one would silently smuggle rounding into
    an exact computation.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"refusing inexact scalar {value!r}")
    return Fraction(value)


def rat_str(value: Fraction) -> str:
    """Serialize as ``p/q`` (or plain ``p`` when the denominator is 1)."""
    return str(rat(value))
