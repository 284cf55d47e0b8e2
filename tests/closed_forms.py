"""Closed forms the bound integral is checked against."""

from scipy.special import hyp2f1


def two_term_tail(x, A, a, B, b):
    """integral_x^inf ds / (A s**a + B s**b) for a > b > 1, in closed form:
    x**(1-a)/(A(a-1)) * 2F1(1, g; 1+g; -(B/A) x**(b-a)), g = (a-1)/(a-b)."""
    g = (a - 1.0) / (a - b)
    return x ** (1.0 - a) / (A * (a - 1.0)) * hyp2f1(
        1.0, g, 1.0 + g, -(B / A) * x ** (b - a))
