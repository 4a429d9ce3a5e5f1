"""Exact Gaussian-rational scalars: complex numbers with rational parts."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """Complex scalar with exact rational real and imaginary parts.

    Immutable.  ``Fraction`` keeps both parts in lowest terms with a positive
    denominator, so equality, hashing and string round-trips are canonical.
    Arithmetic is exact; division by zero raises ``ZeroDivisionError``.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        if isinstance(value, str):
            return cls(Fraction(value))
        if isinstance(value, tuple) and len(value) == 2:
            return cls(Fraction(value[0]), Fraction(value[1]))
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def to_strings(self) -> tuple[str, str]:
        """Canonical ``p/q`` strings (denominator always written)."""
        return (
            f"{self.re.numerator}/{self.re.denominator}",
            f"{self.im.numerator}/{self.im.denominator}",
        )

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _co(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _co(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _co(other)
        if other is None:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _co(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _co(other)
        if other is None:
            return NotImplemented
        # x / y = x·conj(y) / |y|^2 with both parts over one integer
        # denominator: two Fraction reductions instead of a dozen
        a, b, m = _over_one(self)
        c, d, n = _over_one(other)
        den = m * (c * c + d * d)
        if den == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            Fraction(n * (a * c + b * d), den), Fraction(n * (b * c - a * d), den)
        )

    def __rtruediv__(self, other):
        other = _co(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates and conversions -------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _over_one(z: GaussianRational) -> tuple[int, int, int]:
    """Integers (a, b, m) with z = (a + b·i) / m and m > 0."""
    re, im = z.re, z.im
    return (
        re.numerator * im.denominator,
        im.numerator * re.denominator,
        re.denominator * im.denominator,
    )


def _co(value):
    """Internal light coercion for arithmetic; None signals NotImplemented."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None
