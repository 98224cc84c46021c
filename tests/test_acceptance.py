"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance below is pinned from the criteria list; nothing is deferred
to later calibration.  Expected values come from independent oracles coded
in this file, in oracles.py and in helpers.py.
"""

import json

import numpy as np
import pytest

from paraherm.brackets import (
    GeneralizedVectorField, courant_axiom_suite, d_bracket,
    flat_coordinate_dbracket, jacobi_defect, projected_bracket,
)
from paraherm.connections import check_adapted, from_christoffels
from paraherm.deformations import (
    b_transform, compatibility_residual, extract_fluxes, maurer_cartan_sides,
    twisted_d_bracket, twisted_d_bracket_reference,
)
from paraherm.errors import NotParaKahler
from paraherm.geometry import (
    TensorField, apply_endomorphism, constant_field, eval_expr, lie_bracket, scalar_pairing,
)
from paraherm.models import b_field_on_tm, build_flat
from paraherm.parastructure import classify, rho, rho_field
from paraherm.randfields import random_poly, random_vector_field
from conftest import sample_points, sphere_box
from helpers import shear_adapted_connection
from oracles import central_diff_gradient, sphere_riemann, values


def report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


# -----------------------------------------------------------------------------
# 1. Flat-oracle equivalence
# -----------------------------------------------------------------------------

def test_criterion_1_flat_oracle_equivalence():
    tol = 1e-9
    worst = 0.0
    for n in (2, 3):
        model = build_flat(n)
        pts = sample_points(model, 50, seed=100 + n)
        rng = np.random.default_rng(200 + n)
        pairs = []
        for _ in range(100):
            X = random_vector_field(model.chart, rng, degree=2, terms=2)
            Y = random_vector_field(model.chart, rng, degree=2, terms=2)
            pairs.append((d_bracket(model.S, X, Y),
                          flat_coordinate_dbracket(model.chart, model.eta_matrix, X, Y)))
        # Point by point, every pair at a point before the next point: the
        # structure's and the connection's last-point memos serve all pairs.
        for p in pts:
            for got, want in pairs:
                err = float(np.max(np.abs(got.values(p) - want.values(p))))
                worst = max(worst, err)
                assert err < tol
    report(1, f"flat coordinate oracle equivalence (max err {worst:.2e} < {tol})")


# -----------------------------------------------------------------------------
# 2. Adapted connections reproduce the leafwise Dorfman bracket
# -----------------------------------------------------------------------------

def test_criterion_2_adapted_brackets_forward(flat2, flatg_tm):
    tol = 1e-9
    worst = 0.0
    rng = np.random.default_rng(7)
    for model, seed in ((flat2, 300), (flatg_tm, 301)):
        S = model.S
        pts = sample_points(model, 8, seed=seed)
        X = random_vector_field(S.chart, rng)
        Y = random_vector_field(S.chart, rng)
        alt = shear_adapted_connection(S)
        b_can = projected_bracket(S.canonical, S, +1, X, Y)
        b_alt = projected_bracket(alt, S, +1, X, Y)
        e1 = GeneralizedVectorField(*rho_field(S, +1, X), +1)
        e2 = GeneralizedVectorField(*rho_field(S, +1, Y), +1)
        from paraherm.brackets import dorfman_leafwise

        dorf = dorfman_leafwise(S, +1, e1, e2)
        for p in pts:
            identical = (b_can.at(p, 0) - b_alt.at(p, 0)).max_abs()
            assert identical < tol
            want = dorf.at(p, 0)
            for bracket in (b_can, b_alt):
                got = rho(S, +1, bracket, p)
                err = max(
                    float(np.max(np.abs(got.vec.values() - want.vec.values()))),
                    float(np.max(np.abs(got.cov.values() - want.cov.values()))),
                )
                worst = max(worst, err, identical)
                assert err < tol
    report(2, "canonical and alternative adapted connections reproduce the "
              f"leafwise Dorfman bracket (max err {worst:.2e})")


# -----------------------------------------------------------------------------
# 3. Converse witnesses: one violated condition, one bracket mismatch
# -----------------------------------------------------------------------------

def _perturbations(chart, n, c=0.2):
    """Four constant Christoffel perturbations on the flat 2n-chart, each
    violating exactly one condition of the adapted-connection definition."""
    dim = 2 * n
    out = {}
    # (1): value in T-, direction T+, argument T-.
    d1 = np.zeros((dim, dim, dim))
    d1[n, 0, n] = c
    out[1] = d1
    # (2): eta-antisymmetric map T- -> T+ along direction e_0.
    d2 = np.zeros((dim, dim, dim))
    d2[0, 0, n + 1] = c
    d2[1, 0, n] = -c
    out[2] = d2
    # (3): torsion on T+ with T+ values, plus its eta-antisymmetry companion.
    d3 = np.zeros((dim, dim, dim))
    d3[0, 0, 1] = c
    d3[0, 1, 0] = -c
    d3[n + 1, 0, n] = -c
    d3[n, 1, n] = c
    out[3] = d3
    # (4): fully antisymmetric T- -valued form on T+ (needs n >= 3).
    d4 = np.zeros((dim, dim, dim))
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                d4[n + k, i, j] = c * eps[i, j, k]
    out[4] = d4
    return out


def test_criterion_3_converse_witnesses(flat3):
    n = 3
    S = flat3.S
    chart = flat3.chart
    pts = sample_points(flat3, 5, seed=400)
    rng = np.random.default_rng(401)
    named_component = {}
    for cond, delta in _perturbations(chart, n).items():
        comps = delta.astype(object)
        C = from_christoffels(chart, comps, provenance="perturbed")
        rep = check_adapted(C, S, "p", pts, seed=402)
        # exactly the intended condition is violated
        for other, val in rep.conditions.items():
            if other == cond:
                assert val > 1e-4, (cond, rep.conditions)
            else:
                assert val < 1e-10, (cond, rep.conditions)
        # the proof-named bracket component fires
        X = random_vector_field(chart, rng)
        Y = random_vector_field(chart, rng)
        p = pts[0]
        b0 = S.at(p, 0)
        Pp, Pm = values(b0.Pp), values(b0.Pm)
        etav = values(b0.eta)
        PX = apply_endomorphism(S.P_plus, X)
        PY = apply_endomorphism(S.P_plus, Y)
        MY = apply_endomorphism(S.P_minus, Y)
        ref = {
            "pp": projected_bracket(S.canonical, S, +1, PX, PY).values(p),
            "pm": projected_bracket(S.canonical, S, +1, PX, MY).values(p),
        }
        got = {
            "pp": projected_bracket(C, S, +1, PX, PY).values(p),
            "pm": projected_bracket(C, S, +1, PX, MY).values(p),
        }
        zplus = Pp @ rng.uniform(-1, 1, chart.dim)
        zminus = Pm @ rng.uniform(-1, 1, chart.dim)
        component = {
            1: abs((got["pm"] - ref["pm"]) @ etav @ zplus),
            2: abs((got["pm"] - ref["pm"]) @ etav @ zminus),
            3: abs((got["pp"] - ref["pp"]) @ etav @ zminus),
            4: abs((got["pp"] - ref["pp"]) @ etav @ zplus),
        }
        named_component[cond] = component[cond]
        assert component[cond] > 1e-4, (cond, component)
    report(3, "converse witnesses: four one-condition violators, named "
              f"components fire ({ {k: f'{v:.1e}' for k, v in named_component.items()} })")


# -----------------------------------------------------------------------------
# 4. Courant axiom suite
# -----------------------------------------------------------------------------

def test_criterion_4_courant_axioms(flat2, flatg_tm):
    tol = 1e-9

    def eta_pair(S):
        return lambda X, Y: scalar_pairing(S.eta, [X, Y])

    for model, seed in ((flat2, 500), (flatg_tm, 501)):
        S = model.S
        pts = sample_points(model, 5, seed=seed)
        rng = np.random.default_rng(seed + 10)
        pool = [random_vector_field(S.chart, rng) for _ in range(3)]
        for sign in (+1, -1):
            bracket = lambda X, Y: projected_bracket(S.canonical, S, sign, X, Y)
            anchor = lambda X: apply_endomorphism(S.projector(sign), X)
            rep = courant_axiom_suite(bracket, anchor, eta_pair(S), pool, pts,
                                      tol=tol)
            assert rep.passed(), (sign, rep.axiom1, rep.axiom2, rep.axiom3)
    # full D-bracket: axioms 1-2 pass, 3 fails with a recorded witness
    S = flat2.S
    pts = sample_points(flat2, 5, seed=502)
    rng = np.random.default_rng(503)
    pool = [random_vector_field(S.chart, rng) for _ in range(3)]
    rep = courant_axiom_suite(lambda X, Y: d_bracket(S, X, Y), lambda X: X,
                              eta_pair(S), pool, pts, tol=tol)
    assert rep.axiom1 < tol and rep.axiom2 < tol
    assert rep.axiom3 > 1e-4
    assert rep.witnesses["3"]["point"]
    report(4, "Courant axioms: projected brackets pass on integrable models; "
              f"D-bracket fails axiom 3 (defect {rep.axiom3:.2e}) with witness")


# -----------------------------------------------------------------------------
# 5. Section condition
# -----------------------------------------------------------------------------

def test_criterion_5_section_condition(flat2):
    tol = 1e-9
    S = flat2.S
    pts = sample_points(flat2, 50, seed=600)
    rng = np.random.default_rng(601)
    xs = list(range(2))  # plus-block coordinates only
    X = random_vector_field(flat2.chart, rng, vars_subset=xs)
    Y = random_vector_field(flat2.chart, rng, vars_subset=xs)
    Z = random_vector_field(flat2.chart, rng, vars_subset=xs)
    minus = projected_bracket(S.canonical, S, -1, X, Y)
    bracket = lambda A, B: d_bracket(S, A, B)
    worst_m = worst_j = 0.0
    for p in pts:
        worst_m = max(worst_m, minus.at(p, 0).max_abs())
        worst_j = max(worst_j, jacobi_defect(bracket, X, Y, Z, p))
    assert worst_m < tol and worst_j < tol
    report(5, f"section condition: minus-bracket {worst_m:.2e}, "
              f"Jacobi defect {worst_j:.2e} at 50 points")


# -----------------------------------------------------------------------------
# 6. Two-sided Maurer-Cartan identity
# -----------------------------------------------------------------------------

def test_criterion_6_maurer_cartan_two_sided(flat2):
    tol = 1e-9
    S = flat2.S
    pts = sample_points(flat2, 6, seed=700)
    rng = np.random.default_rng(701)
    for trial in range(10):
        comps = np.empty((4, 4), dtype=object)
        comps[...] = 0
        from paraherm.expr import Mul, Const
        from fractions import Fraction

        poly = random_poly(rng, 4, degree=2, terms=2)
        comps[0, 1] = poly
        comps[1, 0] = Mul(Const(Fraction(-1)), poly)
        b = TensorField(flat2.chart, 0, 2, comps, sym="antisymmetric")
        T = b_transform(S, b, sample=pts)
        X = random_vector_field(flat2.chart, rng)
        Y = random_vector_field(flat2.chart, rng)
        Z = random_vector_field(flat2.chart, rng)
        for p in pts[:3]:
            sides = maurer_cartan_sides(T, X, Y, Z, p)
            assert sides.agreement < tol
    # exactness for constant b
    cb = np.zeros((4, 4))
    cb[0, 1], cb[1, 0] = 0.6, -0.6
    Tc = b_transform(S, constant_field(flat2.chart, cb, 0, 2, sym="antisymmetric"),
                     sample=pts)
    # the Maurer-Cartan residual is exactly zero for constant b
    assert compatibility_residual(Tc, pts) == 0.0
    sides = maurer_cartan_sides(
        Tc, *(random_vector_field(flat2.chart, rng) for _ in range(3)), pts[0])
    assert sides.form_side == 0.0
    assert abs(sides.d_bracket_side) < 1e-12  # cancellation noise only
    # non-vacuous two-sided agreement at n = 3 (Lambda^3 T+* = 0 at n = 2)
    flat3 = build_flat(3)
    pts3 = sample_points(flat3, 4, seed=702)
    comps = np.empty((6, 6), dtype=object)
    comps[...] = 0
    for (i, j), s in {(0, 1): "xt1", (0, 2): "x2*xt2", (1, 2): "x1"}.items():
        comps[i, j] = s
        comps[j, i] = f"-({s})"
    T3 = b_transform(flat3.S, TensorField(flat3.chart, 0, 2, comps,
                                          sym="antisymmetric"), sample=pts3)
    saw = 0.0
    for p in pts3:
        sides = maurer_cartan_sides(
            T3, *(random_vector_field(flat3.chart, np.random.default_rng(703 + i))
                  for i in range(3)), p)
        assert sides.agreement < tol * max(1.0, abs(sides.d_bracket_side))
        saw = max(saw, abs(sides.d_bracket_side))
    assert saw > 0.1
    report(6, "Maurer-Cartan identity two-sided on 10 random b fields; exact "
              f"zero for constant b; non-vacuous at n=3 (|lhs| up to {saw:.2f})")


# -----------------------------------------------------------------------------
# 7. Twisted D-bracket two-way
# -----------------------------------------------------------------------------

def test_criterion_7_twisted_two_way(flat2, flat3, flatg_tm, sphere_tm, sphere_pts):
    tol = 1e-9
    rng = np.random.default_rng(800)
    cases = []
    for model, entries, seed in (
        (flat2, {(0, 1): "xt1"}, 801),
        (flat3, {(0, 1): "xt1", (0, 2): "x2*xt2", (1, 2): "x1"}, 802),
    ):
        pts = sample_points(model, 5, seed=seed)
        comps = np.empty((model.chart.dim,) * 2, dtype=object)
        comps[...] = 0
        for (i, j), s in entries.items():
            comps[i, j] = s
            comps[j, i] = f"-({s})"
        b = TensorField(model.chart, 0, 2, comps, sym="antisymmetric")
        cases.append((model.S, b_transform(model.S, b, sample=pts), pts))
    tm_pts = sample_points(flatg_tm, 5, seed=803)
    bb = np.empty((3, 3), dtype=object)
    bb[...] = 0
    bb[0, 1], bb[1, 0] = "x1 + v1^2", "-(x1 + v1^2)"
    bb[1, 2], bb[2, 1] = "x3*v3", "-(x3*v3)"
    cases.append((flatg_tm.S, b_field_on_tm(flatg_tm, bb, sample=tm_pts), tm_pts))
    for S, T, pts in cases:
        X = random_vector_field(S.chart, rng)
        Y = random_vector_field(S.chart, rng)
        tw = twisted_d_bracket(T, X, Y)
        ref = twisted_d_bracket_reference(T, X, Y)
        for p in pts:
            assert np.max(np.abs(tw.values(p) - ref.values(p))) < tol
    # curved base: NotParaKahler
    bb2 = np.empty((2, 2), dtype=object)
    bb2[...] = 0
    bb2[0, 1], bb2[1, 0] = "v1", "-v1"
    T = b_transform(sphere_tm.S, TensorField(sphere_tm.chart, 0, 2,
                    _embed2(bb2, 2), sym="antisymmetric"), sample=sphere_pts[:2])
    X = random_vector_field(sphere_tm.chart, rng, degree=1)
    Y = random_vector_field(sphere_tm.chart, rng, degree=1)
    with pytest.raises(NotParaKahler):
        twisted_d_bracket(T, X, Y).at(sphere_pts[0], 0)
    report(7, "twisted D-bracket two-way on para-Kahler models; "
              "NotParaKahler raised on the curved tangent bundle")


def _embed2(block, n):
    comps = np.empty((2 * n, 2 * n), dtype=object)
    comps[...] = 0
    comps[:n, :n] = block
    return comps


# -----------------------------------------------------------------------------
# 8. Flux reassembly and the closed-form displays
# -----------------------------------------------------------------------------

def test_criterion_8_flux_reassembly(flatg_tm):
    tol_reassembly = 1e-10
    tol_display = 1e-9
    n = 3
    gmat = np.diag([1.0, 2.0, 1.0])
    ginv = np.linalg.inv(gmat)
    bb = np.empty((3, 3), dtype=object)
    bb[...] = 0
    for (i, j), s in {(0, 1): "x1 + v1^2", (0, 2): "v2", (1, 2): "x3*v3"}.items():
        bb[i, j] = s
        bb[j, i] = f"-({s})"
    pts = sample_points(flatg_tm, 20, seed=900)
    T = b_field_on_tm(flatg_tm, bb, sample=pts)

    # independent closed forms with hand derivatives (plain float arithmetic)
    def bval(x, v):
        B = np.zeros((3, 3))
        B[0, 1] = x[0] + v[0] ** 2
        B[0, 2] = v[1]
        B[1, 2] = x[2] * v[2]
        return B - B.T

    def dbx(x, v):
        out = np.zeros((3, 3, 3))
        out[0, 0, 1], out[0, 1, 0] = 1.0, -1.0      # d b_01 / d x1
        out[2, 1, 2], out[2, 2, 1] = v[2], -v[2]    # d b_12 / d x3
        return out

    def dbv(x, v):
        out = np.zeros((3, 3, 3))
        out[0, 0, 1], out[0, 1, 0] = 2 * v[0], -2 * v[0]  # d b_01 / d v1
        out[1, 0, 2], out[1, 2, 0] = 1.0, -1.0            # d b_02 / d v2
        out[2, 1, 2], out[2, 2, 1] = x[2], -x[2]          # d b_12 / d v3
        return out

    worst = 0.0
    for p in pts:
        rep = extract_fluxes(T, p)
        assert rep.reassembly_residual < tol_reassembly
        assert rep.vanishing_residual < tol_reassembly
        x, v = p.coords[:3], p.coords[3:]
        bv, dx, dv = bval(x, v), dbx(x, v), dbv(x, v)
        covH = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    def summand(a, b, c):
                        return dx[a, b, c] + (bv[a] @ ginv) @ dv[:, b, c]

                    covH[i, j, k] = summand(i, j, k) + summand(j, k, i) + summand(k, i, j)
        err_h = np.max(np.abs(np.array(rep.h_frame) - covH))
        err_q = np.max(np.abs(np.array(rep.q_frame) - dv))
        worst = max(worst, err_h, err_q)
        assert err_h < tol_display and err_q < tol_display
    report(8, f"flux reassembly exact; closed-form covariantized-H and Q "
              f"displays reproduced at 20 points (max err {worst:.2e})")


# -----------------------------------------------------------------------------
# 9. Curvature obstruction on the sphere model
# -----------------------------------------------------------------------------

def test_criterion_9_curvature_obstruction(sphere_tm):
    pts = sample_points(sphere_tm, 20, seed=1000, box=sphere_box())
    worst = 0.0
    for p in pts:
        R = sphere_riemann(p.coords[0])
        v = p.coords[2:]
        br = lie_bracket(sphere_tm.H[0], sphere_tm.H[1]).values(p)
        expect = np.zeros(4)
        for k in range(2):
            expect[2 + k] = R[k, 0, 1, :] @ v
        err = float(np.max(np.abs(br - expect)))
        worst = max(worst, err)
        assert err < 1e-8
    rep = classify(sphere_tm.S, pts[:4])
    assert rep.cross_checks["d_omega_30_vs_cyclic_n_plus"] < 1e-9
    report(9, f"[H_i,H_j] = R^k_ijl v^l V_k vs direct oracle at 20 points "
              f"(max err {worst:.2e}); d omega^(3,0) = cyclic N+ holds")


# -----------------------------------------------------------------------------
# 10. Numerical hygiene
# -----------------------------------------------------------------------------

def test_criterion_10_numerical_hygiene(tmp_path):
    rng = np.random.default_rng(1100)
    for _ in range(1000):
        nvars = int(rng.integers(1, 5))
        e = random_poly(rng, nvars, degree=3, terms=3)
        x = rng.uniform(-1, 1, nvars)
        j = eval_expr(e, x, 1)
        fd = central_diff_gradient(lambda y: float(eval_expr(e, y, 0).values()), x)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(j.coeffs[1 : 1 + nvars] - fd)) / scale < 1e-6
    # CLI determinism
    from paraherm.cli import run

    spec = {
        "model": {"name": "flat", "n": 2},
        "sample": {"mode": "uniform", "count": 5, "seed": 77},
        "suites": ["validate", "courant_plus"],
    }
    spath = tmp_path / "spec.json"
    spath.write_text(json.dumps(spec))
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(str(spath), str(o1)) == 0
    assert run(str(spath), str(o2)) == 0
    h1 = json.loads(o1.read_text())["determinism_hash"]
    h2 = json.loads(o2.read_text())["determinism_hash"]
    assert h1 == h2
    report(10, "jet gradients match central differences on 1000 cases; "
               "CLI determinism hash stable")
