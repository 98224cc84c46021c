"""Independent closed-form and finite-difference oracles used by the tests.

These share no code with the library paths they check: sphere formulas are
textbook closed forms with hand-differentiated derivatives, the finite
differences are plain float arithmetic, and the jet arithmetic is written
from the multi-index definition of the truncated product.
"""

import math
from functools import lru_cache

import numpy as np


def sphere_gamma(th):
    """Christoffels of g = diag(1, sin^2 th), coords (th, ph)."""
    G = np.zeros((2, 2, 2))
    G[0, 1, 1] = -np.sin(th) * np.cos(th)
    G[1, 0, 1] = G[1, 1, 0] = np.cos(th) / np.sin(th)
    return G


def sphere_gamma_dth(th):
    """Hand derivative of the sphere Christoffels in th."""
    G = np.zeros((2, 2, 2))
    G[0, 1, 1] = -np.cos(2 * th)
    G[1, 0, 1] = G[1, 1, 0] = -1.0 / np.sin(th) ** 2
    return G


def sphere_riemann(th):
    """R^k_{ijl} of the unit sphere, in the convention fixed by
    [H_i, H_j] = R^k_{ijl} v^l V_k, assembled from the direct formula
    R^k_{ijl} = d_j G^k_{il} - d_i G^k_{jl} + G^k_{jm} G^m_{il} - G^k_{im} G^m_{jl}
    using the closed-form Gamma and its hand derivative."""
    G = sphere_gamma(th)
    dG = np.zeros((2, 2, 2, 2))  # dG[a, k, i, j]: only a = 0 is nonzero
    dG[0] = sphere_gamma_dth(th)
    R = np.zeros((2, 2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    R[k, i, j, l] = (
                        dG[j, k, i, l]
                        - dG[i, k, j, l]
                        + sum(G[k, j, m] * G[m, i, l] for m in range(2))
                        - sum(G[k, i, m] * G[m, j, l] for m in range(2))
                    )
    return R


def central_diff_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    out = np.zeros(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def central_diff_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = len(x)
    out = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (f(x + ei) - 2 * f(x) + f(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            out[i, j] = out[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4 * h**2)
    return out


def values(comps):
    """Constant terms of a tensor of jets, as a float array."""
    return np.array(comps.coeffs[..., 0])


# -- jet arithmetic from the multi-index definition ----------------------------
#
# A jet of order K in dim variables stores c_alpha = (d^alpha f)(p) / alpha!
# for every multi-index |alpha| <= K, in the layout `ctx.alphas`.  These
# references work on one coefficient vector at a time and read nothing of the
# library but that layout.

@lru_cache(maxsize=None)
def _splits(ctx):
    """Per coefficient gamma, the (alpha, beta) index pairs with alpha + beta = gamma."""
    pairs = [([], []) for _ in range(ctx.n)]
    for i, alpha in enumerate(ctx.alphas):
        for j, beta in enumerate(ctx.alphas):
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if sum(gamma) <= ctx.order:
                pairs[ctx.index[gamma]][0].append(i)
                pairs[ctx.index[gamma]][1].append(j)
    return [(np.array(i, dtype=int), np.array(j, dtype=int)) for i, j in pairs]


def jet_product(ctx, a, b):
    """(fg)_gamma = sum over alpha + beta = gamma of f_alpha g_beta."""
    return np.array([a[i] @ b[j] for i, j in _splits(ctx)])


def jet_reciprocal(ctx, a):
    """r with a r = 1, solved degree by degree: r_0 = 1 / a_0 and
    r_gamma = -(sum over alpha + beta = gamma, beta != gamma of a_alpha r_beta) / a_0."""
    r = np.zeros(ctx.n)
    r[0] = 1.0 / a[0]
    for k, (i, j) in enumerate(_splits(ctx)):
        if k:
            keep = j != k
            r[k] = -(a[i[keep]] @ r[j[keep]]) / a[0]
    return r


def jet_power(ctx, a, n):
    """a^n by repeated products; a negative n takes the reciprocal first."""
    base = jet_reciprocal(ctx, a) if n < 0 else a
    out = np.zeros(ctx.n)
    out[0] = 1.0
    for _ in range(abs(n)):
        out = jet_product(ctx, out, base)
    return out


def jet_function(ctx, a, derivs):
    """f(a) = sum over m <= K of f^(m)(a_0) / m! h^m, where h = a - a_0 is
    nilpotent of order K + 1 and derivs[m] = f^(m)(a_0)."""
    h = a.copy()
    h[0] = 0.0
    out, power = np.zeros(ctx.n), np.zeros(ctx.n)
    power[0] = 1.0
    for m in range(ctx.order + 1):
        out = out + derivs[m] / math.factorial(m) * power
        power = jet_product(ctx, power, h)
    return out


def function_derivatives(name, x, order):
    """[f(x), f'(x), ..., f^(order)(x)] for sin, cos, exp and sqrt."""
    if name in ("sin", "cos"):
        cycle = [math.sin(x), math.cos(x), -math.sin(x), -math.cos(x)]
        shift = 0 if name == "sin" else 1
        return [cycle[(m + shift) % 4] for m in range(order + 1)]
    if name == "exp":
        return [math.exp(x)] * (order + 1)
    return [math.prod(0.5 - i for i in range(m)) * x ** (0.5 - m) for m in range(order + 1)]


def jet_partial(ctx, a, v, lower):
    """d_v of a jet, in the order-(K-1) layout `lower`: the coefficient of beta
    is (beta_v + 1) a_{beta + e_v}."""
    out = np.zeros(lower.n)
    for k, beta in enumerate(lower.alphas):
        up = list(beta)
        up[v] += 1
        out[k] = up[v] * a[ctx.index[tuple(up)]]
    return out


def derivative(jet, alpha):
    """The mixed partial d^alpha f (p) of a single jet: alpha! c_alpha."""
    alpha = tuple(alpha)
    return float(jet.coeffs[jet.ctx.index[alpha]]) * math.prod(map(math.factorial, alpha))
