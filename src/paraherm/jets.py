"""Multivariate truncated Taylor (jet) arithmetic.

A jet holds the Taylor coefficients of a scalar function at a point, up to a
truncation order K, in the monomial basis: the stored coefficient of the
multi-index alpha is (partial^alpha f)(p) / alpha!.  With that normalization
multiplication is a plain truncated convolution.

Coefficients are laid out degree by degree (graded ordering), so truncating a
jet to a lower order is a prefix slice and jets of different orders can be
combined by truncating to the smaller order.  Storage is dense: the intended
regime is dim <= 8 and K <= 4, where dense beats any sparse scheme.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement
from numbers import Real

import numpy as np

from .errors import DimensionMismatch, DivisionByZero, DomainError, InsufficientJetOrder

__all__ = ["JetContext", "Jet", "context"]


@lru_cache(maxsize=None)
def context(dim: int, order: int) -> "JetContext":
    """Shared, cached context for jets in `dim` variables truncated at `order`."""
    return JetContext(dim, order)


def _multi_indices(dim, order):
    """All multi-indices with |alpha| <= order, degree by degree."""
    out = []
    for deg in range(order + 1):
        for combo in combinations_with_replacement(range(dim), deg):
            alpha = [0] * dim
            for v in combo:
                alpha[v] += 1
            out.append(tuple(alpha))
    return out


class JetContext:
    """Index tables for one (dim, order) truncation; build via `context()`."""

    def __init__(self, dim: int, order: int):
        if dim < 1:
            raise DimensionMismatch(f"jet dimension must be >= 1, got {dim}")
        if order < 0:
            raise InsufficientJetOrder(f"jet order must be >= 0, got {order}")
        self.dim = dim
        self.order = order
        self.alphas = _multi_indices(dim, order)
        self.n = len(self.alphas)
        self.index = {a: i for i, a in enumerate(self.alphas)}
        self.degree = np.array([sum(a) for a in self.alphas])
        # Truncated Cauchy product: all coefficient pairs whose degrees fit.
        ia, ib, it = [], [], []
        for i, a in enumerate(self.alphas):
            da = sum(a)
            for j, b in enumerate(self.alphas):
                if da + sum(b) > order:
                    continue
                ia.append(i)
                ib.append(j)
                it.append(self.index[tuple(x + y for x, y in zip(a, b))])
        self._mul_a = np.array(ia)
        self._mul_b = np.array(ib)
        self._mul_t = np.array(it)
        # Partial-derivative extraction tables, one row per variable: the
        # target context has order-1 and shares the coefficient layout prefix.
        self._dtab = None

    def _deriv_tables(self):
        """(lower, src, fac): d_v of a jet has coefficients coeffs[src[v]] * fac[v]."""
        if self._dtab is None:
            lower = context(self.dim, self.order - 1)
            src = np.empty((self.dim, lower.n), dtype=int)
            fac = np.empty((self.dim, lower.n))
            for v in range(self.dim):
                for k, beta in enumerate(lower.alphas):
                    shifted = list(beta)
                    shifted[v] += 1
                    src[v, k] = self.index[tuple(shifted)]
                    fac[v, k] = shifted[v]
            self._dtab = (lower, src, fac)
        return self._dtab

    # -- seeds ---------------------------------------------------------------

    def constant(self, c) -> "Jet":
        coeffs = np.zeros(self.n)
        coeffs[0] = float(c)
        return Jet(self, coeffs)

    def coordinate(self, i: int, value) -> "Jet":
        if not 0 <= i < self.dim:
            raise DimensionMismatch(f"coordinate index {i} out of range for dim {self.dim}")
        coeffs = np.zeros(self.n)
        coeffs[0] = float(value)
        if self.order >= 1:
            coeffs[1 + i] = 1.0
        return Jet(self, coeffs)

    def zero(self) -> "Jet":
        return Jet(self, np.zeros(self.n))

    def __repr__(self):
        return f"JetContext(dim={self.dim}, order={self.order})"


def _common(a: "Jet", b: "Jet"):
    if a.ctx.dim != b.ctx.dim:
        raise DimensionMismatch(
            f"jet dims differ: {a.ctx.dim} vs {b.ctx.dim}"
        )
    if a.ctx.order == b.ctx.order:
        return a, b
    k = min(a.ctx.order, b.ctx.order)
    return a.truncate(k), b.truncate(k)


class Jet:
    """One truncated Taylor expansion; immutable value semantics."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: JetContext, coeffs: np.ndarray):
        self.ctx = ctx
        self.coeffs = coeffs

    # -- extraction ----------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    @property
    def gradient(self) -> np.ndarray:
        if self.ctx.order < 1:
            raise InsufficientJetOrder("order-0 jet has no gradient")
        return self.coeffs[1 : 1 + self.ctx.dim].copy()

    def derivative(self, alpha) -> float:
        """Value of the mixed partial for the multi-index `alpha`."""
        alpha = tuple(alpha)
        if alpha not in self.ctx.index:
            raise InsufficientJetOrder(f"multi-index {alpha} beyond order {self.ctx.order}")
        fac = 1.0
        for a in alpha:
            fac *= math.factorial(a)
        return float(self.coeffs[self.ctx.index[alpha]] * fac)

    def coefficient(self, alpha) -> float:
        """Raw monomial-basis coefficient for `alpha`."""
        return float(self.coeffs[self.ctx.index[tuple(alpha)]])

    def truncate(self, order: int) -> "Jet":
        if order == self.ctx.order:
            return self
        if order > self.ctx.order:
            raise InsufficientJetOrder(
                f"cannot extend an order-{self.ctx.order} jet to order {order}"
            )
        lower = context(self.ctx.dim, order)
        return Jet(lower, self.coeffs[: lower.n].copy())

    def partial(self, v: int) -> "Jet":
        """Jet of the v-th partial derivative; truncation order drops by one."""
        if self.ctx.order < 1:
            raise InsufficientJetOrder("cannot differentiate an order-0 jet")
        lower, src, fac = self.ctx._deriv_tables()
        return Jet(lower, self.coeffs[src[v]] * fac[v])

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = _common(self, other)
            return Jet(a.ctx, a.coeffs + b.coeffs)
        if not isinstance(other, Real):
            return NotImplemented
        c = self.coeffs.copy()
        c[0] += float(other)
        return Jet(self.ctx, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ctx, -self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, (Jet, Real)):
            return NotImplemented
        return self + (-other if isinstance(other, Jet) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = _common(self, other)
            ctx = a.ctx
            prod = a.coeffs[ctx._mul_a] * b.coeffs[ctx._mul_b]
            return Jet(ctx, np.bincount(ctx._mul_t, weights=prod, minlength=ctx.n))
        if not isinstance(other, Real):
            return NotImplemented
        return Jet(self.ctx, self.coeffs * float(other))

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        if self.coeffs[0] == 0.0:
            raise DivisionByZero("division by a jet with zero value")
        r = self.ctx.constant(1.0 / self.coeffs[0])
        # Newton iteration doubles the correct order each step.
        steps = max(1, math.ceil(math.log2(self.ctx.order + 1))) if self.ctx.order else 1
        for _ in range(steps):
            r = r * (2.0 - self * r)
        return r

    def __truediv__(self, other):
        if isinstance(other, Jet):
            a, b = _common(self, other)
            return a * b.reciprocal()
        if not isinstance(other, Real):
            return NotImplemented
        return self * (1.0 / float(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * float(other)

    def __pow__(self, n: int):
        if not isinstance(n, (int, np.integer)):
            raise DomainError("jet exponent must be an integer")
        n = int(n)
        if n < 0:
            return self.reciprocal() ** (-n)
        result = self.ctx.constant(1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- analytic functions ----------------------------------------------------

    def _compose(self, derivs):
        """Sum_m derivs[m]/m! * h^m with h the nonconstant (nilpotent) part."""
        h = Jet(self.ctx, self.coeffs.copy())
        h.coeffs[0] = 0.0
        acc = self.ctx.constant(derivs[0])
        power = self.ctx.constant(1.0)
        for m in range(1, self.ctx.order + 1):
            power = power * h
            acc = acc + power * (derivs[m] / math.factorial(m))
        return acc

    def sin(self):
        x = self.coeffs[0]
        cycle = [math.sin(x), math.cos(x), -math.sin(x), -math.cos(x)]
        return self._compose([cycle[m % 4] for m in range(self.ctx.order + 1)])

    def cos(self):
        x = self.coeffs[0]
        cycle = [math.cos(x), -math.sin(x), -math.cos(x), math.sin(x)]
        return self._compose([cycle[m % 4] for m in range(self.ctx.order + 1)])

    def exp(self):
        e = math.exp(self.coeffs[0])
        return self._compose([e] * (self.ctx.order + 1))

    def sqrt(self):
        x = self.coeffs[0]
        if x <= 0.0:
            raise DomainError(f"sqrt of non-positive value {x}")
        derivs = []
        coef = 1.0
        for m in range(self.ctx.order + 1):
            derivs.append(coef * x ** (0.5 - m))
            coef *= 0.5 - m
        return self._compose(derivs)

    def __repr__(self):
        terms = ", ".join(
            f"{a}:{c:.6g}" for a, c in zip(self.ctx.alphas, self.coeffs) if c != 0.0
        )
        return f"Jet({self.ctx.dim}v/K{self.ctx.order}; {terms or '0'})"
