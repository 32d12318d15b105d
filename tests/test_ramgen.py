import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chram.gf import FieldCtx
from chram.freelie import LieAlgebra, D0, minimal_sigma_ideal
from chram.ramgen import (profile_coefficient, ram_generator,
                          ram_generator_family, gamma_grid,
                          ramification_ideal, ideal_in_weight_ideal,
                          max_ram_number, stabilization_depth,
                          top_weight_containment, choose_parameters,
                          parameters_still_valid, HerbrandFn,
                          base_step_herbrand, cyclotomic_translation,
                          mixed_char_summary)


@pytest.fixture(scope="module")
def alg3():
    a = LieAlgebra(FieldCtx(3, 1), c0=3, a_max=6)
    a.eager_build()
    return a


@pytest.fixture(scope="module")
def alg32():
    a = LieAlgebra(FieldCtx(3, 2), c0=3, a_max=6)
    a.eager_build()
    return a


def test_profile_coefficient_values():
    for p in (3, 5, 7):
        half = pow(2, p - 2, p)
        assert profile_coefficient(p, (0, 0)) == half
        assert profile_coefficient(p, (0, -1)) == 1
        assert profile_coefficient(p, (0,)) == 1
    quarter = pow(4, 3, 5)
    assert profile_coefficient(5, (0, 0, -1, -1)) == quarter
    assert profile_coefficient(5, (-1, -2)) == 0     # must start at 0
    assert profile_coefficient(5, (0, -2, -1)) == 0  # must be nonincreasing
    with pytest.raises(ValueError):
        profile_coefficient(3, (0, 0, 0))


def test_generator_element_gamma1(alg3):
    got = ram_generator(alg3, 1, 0)
    x = alg3.gen_elem(("g", 1, 0))
    want = alg3.el_add(x, alg3.el_scale_int(
        2, alg3.el_bracket(x, alg3.gen_elem(D0))))
    assert got == want


def test_generator_leading_terms(alg3):
    for a in (1, 2, 4, 5):
        el = ram_generator(alg3, a, 1)
        gid = alg3.gen_ids[("g", a, 0)]
        assert el.get(gid) == alg3.field.from_int(a)


def test_generator_unrepresentable(alg3):
    assert ram_generator(alg3, Fraction(1, 3), 0) == {}
    assert ram_generator(alg3, Fraction(1, 9), 1) == {}


def _brute_generator(alg, gamma, depth):
    """Independent enumerator: nested loops over length, parts and depths.
    Parts above gamma * p^depth cannot appear in any composition."""
    f = alg.field
    p = alg.p
    gamma = Fraction(gamma)
    cap = min(alg.a_max, int(gamma * p ** depth) + 1)
    a_range = [0] + [a for a in range(1, cap) if a % p]
    out = alg.zero()
    for s in range(1, p):
        for a_tuple in itertools.product(a_range, repeat=s):
            for n_tail in itertools.product(range(-depth, 1), repeat=s - 1):
                ns = (0,) + n_tail
                if any(ns[i] < ns[i + 1] for i in range(s - 1)):
                    continue
                if sum(Fraction(a) * Fraction(p) ** n
                       for a, n in zip(a_tuple, ns)) != gamma:
                    continue
                eta = profile_coefficient(p, ns)
                if eta == 0 or a_tuple[0] == 0:
                    continue
                word = None
                for a, n in zip(a_tuple, ns):
                    nbar = n % alg.n0
                    gen = alg.gen_elem(D0, f.frob(f.alpha0(), nbar)) if a == 0 \
                        else alg.gen_elem(("g", a, nbar))
                    word = gen if word is None else alg.el_bracket(word, gen)
                piece = alg.el_scale_int((a_tuple[0] * eta) % p, word)
                out = alg.el_add(out, piece)
    return out


def test_generator_vs_brute_force(alg3, alg32):
    for alg in (alg3, alg32):
        for depth in (0, 1):
            for num in range(1, 13):
                for den_pow in range(depth + 1):
                    gamma = Fraction(num, alg.p ** den_pow)
                    got = ram_generator(alg, gamma, depth)
                    want = _brute_generator(alg, gamma, depth)
                    assert got == want, (gamma, depth)


def test_generator_vs_brute_force_p5():
    alg = LieAlgebra(FieldCtx(5, 1), c0=5, a_max=20)
    for num in range(1, 13):
        got = ram_generator(alg, num, 1)
        want = _brute_generator(alg, num, 1)
        assert got == want, num


def test_family_matches_single(alg3):
    fam = ram_generator_family(alg3, 1, Fraction(8))
    for g, el in fam.items():
        assert el == ram_generator(alg3, g, 1)


def test_family_releases_algebra():
    """ram_generator_family leaves no reference cycle that keeps its algebra
    alive: with the cyclic collector off, the algebra dies with its name."""
    gc.disable()
    try:
        alg = LieAlgebra(FieldCtx(3, 1), c0=3, a_max=6)
        assert ram_generator_family(alg, 1, Fraction(8))
        ref = weakref.ref(alg)
        del alg
        assert ref() is None
    finally:
        gc.enable()


def test_gamma_grid_contents():
    grid = gamma_grid(3, 6, 1, Fraction(4))
    assert Fraction(1) in grid and Fraction(4) in grid
    assert Fraction(1, 3) in grid            # 0-led: 1 * p^-1
    assert Fraction(7, 3) in grid            # 2 + 1/3
    assert all(0 < g <= 4 for g in grid)
    assert grid == sorted(set(grid))


def test_gamma_witnesses():
    from chram.ramgen import gamma_witness
    grid = gamma_grid(3, 6, 2, Fraction(6))
    for g in grid:
        wit = gamma_witness(3, 6, 2, g)
        assert wit is not None, g
        assert sum(Fraction(a) * Fraction(3) ** n for a, n in wit) == g
        assert wit[0][1] == 0                               # anchored profile
        assert len(wit) < 3                                 # s < p
        ns = [n for _, n in wit]
        assert all(n1 >= n2 for n1, n2 in zip(ns, ns[1:]))  # nonincreasing
    assert gamma_witness(3, 6, 1, Fraction(1, 9)) is None


def test_ideal_monotone(alg3):
    grid = [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(5), Fraction(6)]
    dims = [ramification_ideal(alg3, v, 1).dim for v in grid]
    assert all(d1 >= d2 for d1, d2 in zip(dims, dims[1:]))


def test_ideal_v0_is_augmentation(alg3):
    got = ramification_ideal(alg3, 0, 1)
    aug = minimal_sigma_ideal(
        alg3, [alg3.gen_elem(("g", a, 0)) for a in (1, 2, 4, 5)])
    assert got.space.same_space(aug.space)


def test_ideal_flags_and_stability(alg32):
    ideal = ramification_ideal(alg32, 3, 1)
    alg = alg32
    for r in ideal.space.rows():
        x = alg.unflatten(r)
        assert ideal.contains_elem(alg, alg.el_sigma(x, 1))
        for lab in alg.gen_ids:
            assert ideal.contains_elem(alg, alg.el_bracket(x, alg.gen_elem(lab)))


def test_weight_generator_of_threshold(alg3):
    # the generator at c0 s - 1 carries weight-s mass; everything above s c0 - 1
    # on the grid is swallowed by the weight ideal
    for s in (1, 2):
        v = alg3.c0 * s - 1
        assert not ideal_in_weight_ideal(alg3, v, 2, s + 1)
        assert ideal_in_weight_ideal(alg3, v + Fraction(1, 3), 2, s + 1)


def test_max_ram_numbers_p3(alg3):
    assert max_ram_number(alg3, 1, 2) == 2
    assert max_ram_number(alg3, 2, 2) == 5


def test_max_ram_numbers_p5_through_s3():
    alg = LieAlgebra(FieldCtx(5, 1), c0=5, a_max=20)
    for s in (1, 2, 3):
        assert max_ram_number(alg, s, 2) == 5 * s - 1


def test_stabilization(alg3):
    d = stabilization_depth(alg3, 3)
    assert d <= 3
    i1 = ramification_ideal(alg3, 3, d)
    i2 = ramification_ideal(alg3, 3, d + 2)
    assert i1.space.same_space(i2.space)


def test_top_weight_containment_p3():
    alg = LieAlgebra(FieldCtx(3, 1), c0=3, a_max=9)
    assert top_weight_containment(alg, 2)


def test_choose_parameters(alg3):
    pc = choose_parameters(alg3, 3)
    grid = gamma_grid(3, 6, max(pc.n_tilde, 2) + 2, Fraction(3), a_bound=10)
    below = max(g for g in grid if g < 3)
    assert pc.delta > 0
    assert pc.v0 - pc.delta > below
    assert 3 * pc.delta < 2 * pc.v0
    assert (pc.v0 - pc.delta).denominator in {3 ** k for k in range(25)}
    assert pc.b_star % 3 and pc.a_star % 3 == 0
    assert pc.r_star == Fraction(pc.b_star, pc.q - 1)
    assert pc.v0 - pc.delta < pc.r_star < pc.v0
    assert (pc.r_star - (pc.v0 - pc.delta)) > Fraction(pc.r_star + 3 * (pc.v0 - pc.delta), pc.q)
    assert (pc.v0 - pc.r_star) > Fraction(-pc.r_star + pc.phi_bound, pc.q)
    # doubling N* preserves validity
    assert parameters_still_valid(alg3, pc, 2 * pc.n_star)


def test_herbrand_eval_invert():
    phi = base_step_herbrand(3, 3)
    assert phi.eval_at(2) == 2
    assert phi.eval_at(Fraction(9, 2)) == 3 + Fraction(3, 2) / 3
    inv = phi.inverse()
    for x in (0, 1, 3, Fraction(7, 2), 10):
        assert inv.eval_at(phi.eval_at(x)) == Fraction(x)
    assert phi.has_extension_slopes()
    with pytest.raises(ValueError):
        HerbrandFn(vertices=((1, 1), (1, 2)), final_slope=Fraction(1))
    with pytest.raises(ValueError):
        HerbrandFn(vertices=(), final_slope=Fraction(-1))


def test_single_edge_herbrand():
    rstar = Fraction(5, 2)
    phi = HerbrandFn(vertices=((rstar, rstar),), final_slope=Fraction(1, 9))
    assert phi.eval_at(Fraction(7, 4)) == Fraction(7, 4)   # identity below r*
    assert phi.eval_at(rstar + 9) == rstar + 1


def test_cyclotomic_translation():
    assert cyclotomic_translation(3, 2, 3) == 2
    assert cyclotomic_translation(3, 3, 3) == 3
    assert cyclotomic_translation(3, 5, 3) == 3 + 3 * 2
    assert cyclotomic_translation(3, Fraction(11, 3), 3) == 3 + 3 * Fraction(2, 3)
    phi = base_step_herbrand(3, 3)
    for v in (Fraction(4), Fraction(11, 3), Fraction(9)):
        assert phi.inverse().eval_at(v) == cyclotomic_translation(3, v, 3)


@st.composite
def _herbrand(draw):
    k = draw(st.integers(0, 2))
    xs = sorted(set(draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))))
    slope = Fraction(1)
    x_prev, y_prev = Fraction(0), Fraction(0)
    verts = []
    for x in xs:
        slope /= draw(st.integers(1, 3))
        y = y_prev + (x - x_prev) * slope
        verts.append((Fraction(x), y))
        x_prev, y_prev = Fraction(x), y
    final = slope / draw(st.integers(1, 3))
    return HerbrandFn(vertices=tuple(verts), final_slope=final)


@given(phi=_herbrand(), psi=_herbrand(), rho=_herbrand(),
       x=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_herbrand_compose_associative(phi, psi, rho, x):
    lhs = phi.compose(psi).compose(rho)
    rhs = phi.compose(psi.compose(rho))
    assert lhs.eval_at(x) == rhs.eval_at(x) == \
        phi.eval_at(psi.eval_at(rho.eval_at(x)))


def test_herbrand_identity_neutral():
    phi = base_step_herbrand(5, 5)
    ident = HerbrandFn.identity()
    for x in (0, 2, 5, 17):
        assert phi.compose(ident).eval_at(x) == phi.eval_at(x)
        assert ident.compose(phi).eval_at(x) == phi.eval_at(x)


def test_mixed_char_summary_values():
    rep = mixed_char_summary(3, 2, 1)
    assert rep["c0"] == 3
    assert rep["generators"] == 4
    assert rep["v"] == {1: Fraction(3), 2: Fraction(11, 3)}
    rep5 = mixed_char_summary(5, 4, 2)
    assert rep5["c0"] == 5
    assert rep5["generators"] == 4 * 2 + 2
    assert rep5["v"][1] == 5
    for s in range(2, 5):
        assert rep5["v"][s] == Fraction(4) * (1 + Fraction(s, 4)) - Fraction(1, 5)


def test_mixed_char_rejects_bad_index():
    with pytest.raises(ValueError):
        mixed_char_summary(3, 3, 1)   # e_K not a multiple of p-1
    with pytest.raises(ValueError):
        mixed_char_summary(2, 1, 1)
