"""Index tables of multivariate truncated Taylor jets.

A jet holds the Taylor coefficients of a scalar function at a point, up to a
truncation order K, in the monomial basis: the stored coefficient of the
multi-index alpha is (partial^alpha f)(p) / alpha!.  With that normalization
multiplication is a plain truncated convolution.

Coefficients are laid out degree by degree (graded ordering), so truncating a
jet to a lower order is a prefix slice and jets of different orders can be
combined by truncating to the smaller order.  Storage is dense: the intended
regime is dim <= 8 and K <= 4, where dense beats any sparse scheme.

This module holds only the layout: `JetContext` (one per (dim, K), shared
through `context`) lists the multi-indices, the pairs of the truncated
Cauchy product and the partial-derivative tables.  The arithmetic, for a
single jet (a 0-d array) and for tensors and batches of jets alike, is
`geometry.JetArray` and the kernels next to it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import DimensionMismatch, InsufficientJetOrder

__all__ = ["JetContext", "context"]


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

    def __repr__(self):
        return f"JetContext(dim={self.dim}, order={self.order})"
