"""Shared test-side constructions (not part of the library)."""

import numpy as np

from paraherm.connections import Connection
from paraherm.geometry import as_jets, tdot


def shear_adapted_connection(S, scale=0.35):
    """A second adapted connection, distinct from the canonical one:

    nabla' = nabla^c + E,  E(X)Y = eta(u-, X) [eta(u-, Y) v+ - eta(v+, Y) u-]

    for constant-coefficient u- in Gamma(T-), v+ in Gamma(T+).  E preserves
    both eigenbundles, is eta-antisymmetric in its last two slots, and is
    symmetric on pure eigenbundle pairs; all four adapted-connection
    conditions then hold on both sides, for any valid structure.
    """
    chart = S.chart
    u = np.zeros(chart.dim)
    u[chart.dim - 1] = 1.0
    v = np.zeros(chart.dim)
    v[0] = 1.0

    def fn(point, order):
        g0 = S.canonical.gamma(point, order)
        b = S.at(point, order)
        ctx = b.eta[0, 0].ctx
        uj = as_jets([ctx.constant(c) for c in u])
        vj = as_jets([ctx.constant(c) for c in v])
        uc = tdot(b.Pm, uj, ([1], [0]))
        vc = tdot(b.Pp, vj, ([1], [0]))
        eta_u = tdot(b.eta, uc, ([0], [0]))
        eta_v = tdot(b.eta, vc, ([0], [0]))
        E = np.empty((chart.dim,) * 3, dtype=object)
        for k in range(chart.dim):
            for i in range(chart.dim):
                for j in range(chart.dim):
                    E[k, i, j] = scale * (
                        eta_u[i] * (eta_u[j] * vc[k] - eta_v[j] * uc[k])
                    )
        return g0 + as_jets(E)

    return Connection(chart, fn, provenance="user_supplied")
