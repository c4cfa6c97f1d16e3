"""Closed-form L1 gap between the uniform mixture and its matched uniform.

The sum of two centered uniform draws with half-widths a >= b has the
trapezoidal density: flat at 1/(2a) for |x| <= a - b, then linear to zero
at |x| = a + b. The comparison target is the centered uniform with the
same variance, half-width c = sqrt(3 (alpha^2 + beta^2)), so
a - b < a < c < a + b. No package code is involved.
"""

import math

SQRT3 = math.sqrt(3.0)


def _densities(alpha: float, beta: float):
    a = SQRT3 * max(alpha, beta)
    b = SQRT3 * min(alpha, beta)
    c = SQRT3 * math.hypot(alpha, beta)

    def trapezoid(x: float) -> float:
        x = abs(x)
        if x <= a - b:
            return 1.0 / (2.0 * a)
        if x < a + b:
            return (a + b - x) / (4.0 * a * b)
        return 0.0

    def matched_uniform(x: float) -> float:
        return 1.0 / (2.0 * c) if abs(x) <= c else 0.0

    def gap(x: float) -> float:
        return abs(trapezoid(x) - matched_uniform(x))

    # The ramp meets the uniform's height 1/(2c) at a + b - 2ab/c, the one
    # point besides the breaks where the difference can change sign.
    crossing = a + b - 2.0 * a * b / c
    breaks = sorted({0.0, a - b, c, a + b} | ({crossing} if 0.0 < crossing < a + b else set()))
    return gap, breaks


def uniform_mixture_l1_oracle(alpha: float, beta: float) -> float:
    """Exact L1 gap: |trapezoid - matched uniform| is linear between breaks.

    Both densities are linear on each piece and their difference keeps one
    sign there, so the midpoint rule integrates each piece exactly; the
    midpoint also stays clear of the jump at x = c.
    """
    gap, breaks = _densities(alpha, beta)
    total = sum((hi - lo) * gap(0.5 * (lo + hi)) for lo, hi in zip(breaks[:-1], breaks[1:]))
    return 2.0 * total  # symmetric about zero


def uniform_mixture_l1_by_quadrature(alpha: float, beta: float, quad) -> float:
    """The same gap by adaptive quadrature over each piece (``scipy.integrate.quad``)."""
    gap, breaks = _densities(alpha, beta)
    return 2.0 * sum(quad(gap, lo, hi)[0] for lo, hi in zip(breaks[:-1], breaks[1:]))
