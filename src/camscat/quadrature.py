"""Gauss-Legendre rules and the cubic Hermite interpolant shared by gauge and solvers."""

from __future__ import annotations

import functools

import numpy as np

from .errors import QuadratureError

GL_NODES = 8     # adaptive_gl compares the GL_NODES- and 2*GL_NODES-point rules
MAX_DEPTH = 30   # bisection depth at which adaptive_gl gives up


@functools.lru_cache(maxsize=None)
def gl_rule(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def hermite(x, f0, f1, d0, d1):
    """Cubic Hermite interpolant at x in [0, 1] from the end values f0, f1
    and the end slopes d0, d1, both slopes scaled to the unit interval."""
    x2 = x * x
    x3 = x2 * x
    return (f0 * (2.0 * x3 - 3.0 * x2 + 1.0) + f1 * (3.0 * x2 - 2.0 * x3)
            + d0 * (x3 - 2.0 * x2 + x) + d1 * (x3 - x2))


def gl_panel(f, a: float, b: float, n: int) -> float:
    x, w = gl_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(w, f(mid + half * x)))


def adaptive_gl(f, a: float, b: float, tol: float = 1e-13) -> float:
    """Adaptive Gauss-Legendre integral of f over [a, b].

    Bisects until the GL_NODES vs 2*GL_NODES point estimates agree within
    the local tolerance share; raises QuadratureError at MAX_DEPTH.
    """
    if b <= a:
        return 0.0

    def recurse(lo, hi, budget, depth):
        coarse = gl_panel(f, lo, hi, GL_NODES)
        fine = gl_panel(f, lo, hi, 2 * GL_NODES)
        if abs(fine - coarse) <= budget:
            return fine
        if depth >= MAX_DEPTH:
            raise QuadratureError(
                f"adaptive quadrature stalled on [{lo:g}, {hi:g}]"
            )
        mid = 0.5 * (lo + hi)
        half = 0.5 * budget
        return recurse(lo, mid, half, depth + 1) + recurse(mid, hi, half, depth + 1)

    return recurse(a, b, tol, 0)

