"""Dense univariate polynomials with exact integer coefficients.

A polynomial is a tuple of coefficients in ascending degree order with no
trailing zeros; the zero polynomial is the empty tuple.  All arithmetic is
exact (Python ints), so these are safe to use for Martin, chromatic and
characteristic polynomials without drift.
"""

from __future__ import annotations


def _normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class IntPoly:
    """Immutable polynomial over the integers.

    >>> t = IntPoly.t()
    >>> p = (t + 1) * (t + 2) * t
    >>> p.coeffs
    (0, 2, 3, 1)
    >>> p(2)
    24
    >>> str(p)
    't^3 + 3*t^2 + 2*t'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @staticmethod
    def zero():
        return IntPoly(())

    @staticmethod
    def one():
        return IntPoly((1,))

    @staticmethod
    def t():
        return IntPoly((0, 1))

    @property
    def degree(self):
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return IntPoly((other,)) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner):
        """Substitute ``inner`` for the variable."""
        acc = IntPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + IntPoly((c,))
        return acc

    def __divmod__(self, divisor):
        """Long division; every division step must be exact over the integers.

        Raises ValueError when a leading-coefficient division is not exact,
        which cannot happen for monic divisors.
        """
        if isinstance(divisor, int):
            divisor = IntPoly((divisor,))
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dd = len(dcs) - 1
        lead = dcs[-1]
        if len(rem) - 1 < dd:
            return IntPoly(()), IntPoly(rem)
        quot = [0] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            if c % lead:
                raise ValueError("inexact polynomial division over the integers")
            q = c // lead
            quot[k - dd] = q
            for i, dc in enumerate(dcs):
                rem[k - dd + i] -= q * dc
        return IntPoly(quot), IntPoly(rem)

    def __floordiv__(self, divisor):
        q, _ = divmod(self, divisor)
        return q

    def __mod__(self, divisor):
        _, r = divmod(self, divisor)
        return r

    def divides_exactly(self, divisor):
        """True when ``divisor`` divides self with zero remainder."""
        try:
            _, r = divmod(self, divisor)
        except ValueError:
            return False
        return r.is_zero()

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"IntPoly({self.coeffs!r})"


def interpolate_int_poly(points):
    """Exact polynomial through ``points`` [(x0, y0), ...], integer coefficients.

    Newton divided differences in ints: with integer nodes and values, the
    interpolant has integer coefficients exactly when every divided
    difference is an integer, so each step is an exact ``divmod`` and the
    first non-zero remainder raises ValueError.  Nodes and values must be
    ints and the nodes distinct.  Used by the determinant charpoly oracle.
    """
    xs = [x for x, _ in points]
    coefs = [y for _, y in points]
    if not all(isinstance(v, int) for v in xs + coefs):
        raise ValueError("interpolation nodes and values must be ints")
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            coefs[i], rem = divmod(coefs[i] - coefs[i - 1], xs[i] - xs[i - level])
            if rem:
                raise ValueError("interpolant has non-integer coefficients")
    # expand the Newton form by Horner: acc = acc * (t - xs[k]) + coefs[k]
    acc = []
    for k in range(len(coefs) - 1, -1, -1):
        nxt = [0] + acc
        for i, c in enumerate(acc):
            nxt[i] -= xs[k] * c
        nxt[0] += coefs[k]
        acc = nxt
    return IntPoly(acc)
