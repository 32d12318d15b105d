import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from chram.gf import FieldCtx
from chram.freelie import LieAlgebra, D0, RowSpace
from chram.series import SeriesCtx, AutSpec
from chram import lifts
from chram.ramgen import ramification_ideal


@pytest.fixture(scope="module")
def ctx3():
    alg = LieAlgebra(FieldCtx(3, 1), c0=3, a_max=6)
    return SeriesCtx(alg)


@pytest.fixture(scope="module")
def ctx32():
    alg = LieAlgebra(FieldCtx(3, 2), c0=3, a_max=6)
    return SeriesCtx(alg)


@pytest.fixture(scope="module")
def aut3(ctx3):
    return AutSpec(ctx3.alg.field, 3, ((1,), (2,)))


@pytest.fixture(scope="module")
def lin3(ctx3, aut3):
    return lifts.solve_linearized(ctx3, aut3)


@pytest.fixture(scope="module")
def full3(ctx3, aut3):
    return lifts.solve_lift(ctx3, aut3)


def test_identity_automorphism_gives_zero(ctx3):
    ident = AutSpec(ctx3.alg.field, 3, ())
    lin = lifts.solve_linearized(ctx3, ident)
    assert lin.c1 == {} and lin.ad_d0 == {}
    assert all(v == {} for v in lin.ad_images.values())
    full = lifts.solve_lift(ctx3, ident)
    assert full.c == {}
    for a in (1, 2, 4, 5):
        assert full.a_images[a] == ctx3.alg.gen_elem(("g", a, 0))
    assert full.a_d0 == ctx3.alg.gen_elem(D0)


def test_degree_one_images(ctx3):
    # single alpha: ad(D_{a,0}) = -A_0 a D_{a+c0,0} below degree 2
    alg = ctx3.alg
    h = AutSpec(alg.field, 3, ((1,),))
    lin = lifts.solve_linearized(ctx3, h)
    v1 = alg.deg_part(lin.ad_images[1], 1)
    assert v1 == alg.gen_elem(("g", 4, 0), alg.field.from_int(-1))
    v2 = alg.deg_part(lin.ad_images[2], 1)
    assert v2 == alg.gen_elem(("g", 5, 0), alg.field.from_int(-2))
    # generators already at top weight have no in-range image
    assert alg.deg_part(lin.ad_images.get(4, {}), 1) == {}


def test_ad_d0_in_commutators(lin3, ctx3):
    alg = ctx3.alg
    assert all(alg.deg[i] >= 2 for i in lin3.ad_d0)


def test_adjoint_weight_raising(lin3, ctx3):
    alg = ctx3.alg
    for a, v in lin3.ad_images.items():
        if not v or a >= alg.a_max:
            continue
        s = a // ctx3.c0 + 1
        assert alg.el_weight(v) >= s + 1


def test_recurrence_replay(lin3, ctx3):
    for b, x, r in zip(lin3.b_records, lin3.x_records, lin3.r_records):
        recon = ctx3.add(r, ctx3.sub(ctx3.sigma(x, 1), x))
        assert recon == b


def test_first_order_residuals(ctx3, ctx32):
    rng = random.Random(21)
    for sctx in (ctx3, ctx32):
        f = sctx.alg.field
        for _ in range(3):
            alphas = [f.rand(rng), f.rand(rng)]
            if f.is_zero(alphas[0]):
                alphas[0] = f.one
            aut = AutSpec(f, 3, tuple(alphas))
            lin = lifts.solve_linearized(sctx, aut)
            r0, r1 = lifts.lin_first_order_residual(sctx, aut, lin)
            assert not r0 and not r1


def test_routes_agree(ctx3, ctx32):
    rng = random.Random(22)
    for sctx in (ctx3, ctx32):
        f = sctx.alg.field
        for _ in range(2):
            alphas = [f.rand(rng)]
            if f.is_zero(alphas[0]):
                alphas[0] = f.one
            aut = AutSpec(f, 3, tuple(alphas))
            lin = lifts.solve_linearized(sctx, aut)
            full = lifts.solve_lift(sctx, aut)
            assert lifts.lifts_agree(sctx, lin, full, aut)


def test_closing_check_raises_under_optimize():
    """The closing conjugation check of solve_lift is a typed error, so
    `python -O` (which strips asserts) still reports a broken lift."""
    script = (
        "from chram.gf import FieldCtx\n"
        "from chram.freelie import LieAlgebra\n"
        "from chram.series import SeriesCtx, AutSpec\n"
        "from chram import lifts\n"
        "sctx = SeriesCtx(LieAlgebra(FieldCtx(3, 1), c0=3, a_max=6))\n"
        "sctx.ch = lambda F, G: F  # breaks only the closing check\n"
        "try:\n"
        "    lifts.solve_lift(sctx, AutSpec(sctx.alg.field, 3, ((1,), (2,))))\n"
        "except lifts.LiftError as exc:\n"
        "    print(isinstance(exc, RuntimeError), exc)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(lifts.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == \
        "True conjugation equation fails after the last degree\n"


def test_closed_forms_p3(ctx3, aut3, lin3):
    alg = ctx3.alg
    for a in (1, 2, 4, 5):
        got = lifts.project_below_weight(alg, lin3.ad_images.get(a, {}), 3)
        want = lifts.project_below_weight(
            alg, lifts.closed_form_ad_image(ctx3, aut3, a), 3)
        assert got == want, a
    d_got = lifts.project_below_weight(alg, lin3.ad_d0, 3)
    d_want = lifts.project_below_weight(alg, lifts.closed_form_ad_d0(ctx3, aut3), 3)
    assert d_got == d_want


def test_closed_form_twist_reading():
    """With c0 > p and n0 = 3 the depth-zero sum separates the twist
    readings; only sigma^(-m) matches the solver."""
    f = FieldCtx(3, 3)
    alg = LieAlgebra(f, c0=6, a_max=12)
    sctx = SeriesCtx(alg)
    aut = AutSpec(f, 6, ((1, 1, 0), (0, 1, 2)))
    lin = lifts.solve_linearized(sctx, aut)
    matches = {}
    for reading in ("sigma_minus_m", "none", "sigma_plus_m"):
        ok = True
        for a in range(1, 12):
            if a % 3 == 0:
                continue
            got = lifts.project_below_weight(alg, lin.ad_images.get(a, {}), 3)
            want = lifts.project_below_weight(
                alg, lifts.closed_form_ad_image(sctx, aut, a, reading), 3)
            if got != want:
                ok = False
                break
        matches[reading] = ok
    assert matches["sigma_minus_m"]
    assert not matches["none"]
    assert not matches["sigma_plus_m"]


def test_degree_one_c1_closed_form(ctx3, ctx32):
    """Degree-1 part of c1: sum over a, i and n >= 0 of
    sigma^n(A_i) t^(p^n (c0+pi-a)) a D_{a,n}, positive exponents, within
    the policy window."""
    for sctx in (ctx3, ctx32):
        alg = sctx.alg
        f = alg.field
        aut = AutSpec(f, 3, (f.from_int(1), f.from_int(2)))
        lin = lifts.solve_linearized(sctx, aut)
        got = {}
        for e, x in lin.c1.items():
            part = alg.deg_part(x, 1)
            if part:
                got[e] = part
        want = sctx.zero()
        for i, ai in enumerate(aut.eps_coeffs()):
            if f.is_zero(ai):
                continue
            for a in range(1, alg.a_max):
                if a % 3 == 0 or a >= sctx.c0 + 3 * i:
                    continue
                base = sctx.c0 + 3 * i - a
                n = 0
                while base * 3 ** n <= sctx.max_ceil:
                    coeff = f.mul(f.frob(ai, n), f.from_int(a))
                    term = alg.gen_elem(("g", a, n % alg.n0), coeff)
                    want = sctx.add(want, sctx.mono(base * 3 ** n, term))
                    n += 1
        assert got == want


def test_c1_plus_formula_p3(ctx3, aut3, lin3):
    _, _, plus = lin3.c1_split(ctx3)
    formula = lifts.c1_plus_formula(ctx3, aut3, 4)
    assert formula == plus


def test_c1_plus_leading_term(ctx3, aut3):
    # the (n=0, j=0, gamma=a) contribution carries A_0 a D_{a,0} t^(c0-a)
    alg = ctx3.alg
    formula = lifts.c1_plus_formula(ctx3, aut3, 4)
    a = 1
    coeff = formula.get(ctx3.c0 - a, {}).get(alg.gen_ids[("g", a, 0)])
    a0 = aut3.eps_coeffs()[0]
    assert coeff is not None
    expect = alg.field.mul(a0, alg.field.from_int(a))
    # other depth contributions can add on top; subtract and verify the
    # remainder comes from deeper terms by re-deriving with n_big = 1
    shallow = lifts.c1_plus_formula(ctx3, aut3, 1)
    assert shallow.get(ctx3.c0 - a, {}).get(alg.gen_ids[("g", a, 0)]) == expect


def test_solution_count_bookkeeping(ctx32):
    """Free choices per weight step match the graded dimensions: the
    sigma-fixed subspace of each graded slice has F_p-dimension equal to the
    number of words of that weight."""
    alg = ctx32.alg
    alg.eager_build()
    from chram.lifts import _kernel_mod_p
    total = 0
    for s in range(1, alg.p):
        words = [i for i in range(alg.num_words()) if alg.wt[i] == s]
        basis = [alg.unflatten({i * alg.n0 + j: 1})
                 for i in words for j in range(alg.n0)]
        images = [alg.flatten(alg.el_sub(alg.el_sigma(b, 1), b)) for b in basis]
        kern = _kernel_mod_p(images, alg.p)
        assert len(kern) == len(words), s
        total += len(words)
    assert total == sum(1 for i in range(alg.num_words()) if alg.wt[i] < alg.p)


def test_generator_shift_holds(ctx3, aut3, full3):
    assert lifts.generator_shift_check(ctx3, aut3, full3)


def test_generator_shift_random_alpha(ctx32):
    rng = random.Random(23)
    f = ctx32.alg.field
    for _ in range(2):
        alphas = [f.rand(rng), f.rand(rng)]
        if f.is_zero(alphas[0]):
            alphas[0] = f.one
        aut = AutSpec(f, 3, tuple(alphas))
        full = lifts.solve_lift(ctx32, aut)
        assert lifts.generator_shift_check(ctx32, aut, full)


def test_elimination(ctx3, full3):
    ctx3.alg.eager_build()
    assert lifts.elimination_check(ctx3, full3)


def test_commutator_filtration_surrogate(ctx3, full3):
    ctx3.alg.eager_build()
    assert lifts.commutator_filtration_check(ctx3, full3)


# -- relation equation -----------------------------------------------------------


@pytest.fixture(scope="module")
def rel3(ctx3, aut3):
    alg = ctx3.alg
    alg.eager_build()
    ideal = ramification_ideal(alg, Fraction(3), 2)
    n_star = 3
    om = lifts.omega0_element(alg, aut3, n_star - 1)
    return alg, ideal, n_star, om


def test_omega0_in_ideal(rel3):
    alg, ideal, n_star, om = rel3
    assert ideal.contains_elem(alg, om)


def test_relation_restricted_solution(rel3):
    alg, ideal, n_star, om = rel3
    sol = lifts.solve_relation_equation(alg, om, n_star, ideal=ideal)
    assert sol is not None and sol.restricted
    assert lifts.relation_residual(alg, sol, om, n_star) == {}
    assert ideal.contains_elem(alg, sol.c0_elem)
    assert ideal.contains_elem(alg, sol.v0_elem)
    # V0 = alpha0 * (sigma-fixed)
    w = sol.ad_d0(alg)
    assert alg.el_sigma(w, 1) == w


def test_relation_trace_shape(rel3):
    alg, ideal, n_star, om = rel3
    sol = lifts.solve_relation_equation(alg, om, n_star, ideal=ideal)
    space = RowSpace(alg.p)
    for i in range(alg.num_words()):
        br = alg.el_bracket({i: alg.field.one}, alg.gen_elem(D0))
        if br:
            space.add(alg.flatten(br))
    diff = alg.el_sub(sol.ad_d0(alg), alg.el_trace(om))
    assert space.contains(alg.flatten(diff))


def test_relation_pinned_v0(rel3):
    # at n0 = 1 a solution with ad(D0) = omega0 exists
    alg, ideal, n_star, om = rel3
    pin = alg.el_scale(alg.field.alpha0(), om)
    sol = lifts.solve_relation_equation(alg, om, n_star, pin_v0=pin)
    assert sol is not None
    assert lifts.relation_residual(alg, sol, om, n_star) == {}


def test_arithmetical_criterion(rel3, aut3):
    alg, ideal, n_star, om = rel3
    sol = lifts.solve_relation_equation(alg, om, n_star, ideal=ideal)
    c1z = lifts.arithmetical_c1_zero(alg, aut3, n_star, sol.c0_elem)
    assert lifts.is_arithmetical(alg, ideal, c1z, aut3, n_star)
    gen = alg.gen_elem(("g", 1, 0))
    assert not ideal.contains_elem(alg, gen)
    assert not lifts.is_arithmetical(alg, ideal, alg.el_add(c1z, gen), aut3, n_star)
    # exact RHS with zero correction part passes trivially
    rhs_only = lifts.arithmetical_c1_zero(alg, aut3, n_star, alg.zero())
    assert lifts.is_arithmetical(alg, ideal, rhs_only, aut3, n_star)


def test_relation_solution_n0_2(ctx32):
    alg = ctx32.alg
    alg.eager_build()
    f = alg.field
    aut = AutSpec(f, 3, ((1, 1),))
    ideal = ramification_ideal(alg, Fraction(3), 2)
    n_star = 3
    om = lifts.omega0_element(alg, aut, n_star - 1)
    sol = lifts.solve_relation_equation(alg, om, n_star, ideal=ideal)
    assert sol is not None
    assert lifts.relation_residual(alg, sol, om, n_star) == {}
    c1z = lifts.arithmetical_c1_zero(alg, aut, n_star, sol.c0_elem)
    assert lifts.is_arithmetical(alg, ideal, c1z, aut, n_star)
    assert not lifts.is_arithmetical(
        alg, ideal, alg.el_add(c1z, alg.gen_elem(("g", 1, 0))), aut, n_star)
