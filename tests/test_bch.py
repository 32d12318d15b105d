import random

import pytest
from hypothesis import given, settings, strategies as st

from chram.gf import FieldCtx
from chram.freelie import LieAlgebra
from chram import bch
from chram.bch import (exp_trunc, log_trunc, ch_mul, bch_table,
                       ElemOps, JetOps, ad_apply, adjoint_apply, e0_apply,
                       bernoulli_mod_p, power_sum_poly, poly_eval_mod,
                       orbit_product, orbit_coefficients, GenDerivation,
                       env_mul, lie_to_env)


@pytest.fixture(scope="module")
def alg3():
    return LieAlgebra(FieldCtx(3, 1), c0=3, a_max=6)


@pytest.fixture(scope="module")
def alg5():
    return LieAlgebra(FieldCtx(5, 1), c0=5, a_max=19)


def test_exp_p3(alg3):
    x = alg3.gen_elem(("g", 1, 0))
    e = exp_trunc(alg3, x)
    assert e == {(): (1,), (1,): (1,), (1, 1): (2,)}   # 1 + x + x^2/2


def test_exp_zero(alg3):
    assert exp_trunc(alg3, {}) == {(): (1,)}
    assert log_trunc(alg3, {(): (1,)}) == {}


def test_exp_log_inverse(alg5):
    rng = random.Random(2)
    for _ in range(25):
        x = alg5.rand_elem(rng, 3)
        assert log_trunc(alg5, exp_trunc(alg5, x)) == x


def test_log_needs_unit(alg3):
    with pytest.raises(ValueError):
        log_trunc(alg3, {(): (2,)})


def test_log_rejects_non_grouplike(alg3):
    x = alg3.gen_elem(("g", 1, 0))
    u = env_mul(alg3, lie_to_env(alg3, x), lie_to_env(alg3, x))
    u[()] = alg3.field.one
    with pytest.raises(ValueError):
        log_trunc(alg3, u)


def test_ch_class2(alg3):
    x, y = alg3.gen_elem(("g", 1, 0)), alg3.gen_elem(("g", 2, 0))
    z = ch_mul(alg3, x, y)
    want = alg3.el_add(alg3.el_add(x, y),
                       alg3.el_scale_int(2, alg3.el_bracket(x, y)))  # 1/2 = 2
    assert z == want


def test_ch_commuting_and_inverse(alg5):
    rng = random.Random(3)
    for _ in range(10):
        x = alg5.rand_elem(rng, 2)
        assert ch_mul(alg5, x, x) == alg5.el_scale_int(2, x)
        assert ch_mul(alg5, x, alg5.el_neg(x)) == {}


def test_ch_associative(alg5):
    rng = random.Random(4)
    for _ in range(15):
        x, y, z = (alg5.rand_elem(rng, 2) for _ in range(3))
        assert ch_mul(alg5, ch_mul(alg5, x, y), z) == \
            ch_mul(alg5, x, ch_mul(alg5, y, z))


def test_generic_matches_pbw(alg3, alg5):
    """The Hall-table route (ch_mul, ElemOps.ch) against log(exp x exp y)
    in the PBW basis, on pinned seeds, for pairs and triple products."""
    for alg, seed in ((alg3, 50), (alg5, 5)):
        rng = random.Random(seed)
        ops = ElemOps(alg)
        for _ in range(15):
            x, y = alg.rand_elem(rng, 3), alg.rand_elem(rng, 3)
            want = bch._ch_pbw(alg, x, y)
            assert ch_mul(alg, x, y) == want
            assert ops.ch(x, y) == want
        for _ in range(5):
            x, y, z = (alg.rand_elem(rng, 3) for _ in range(3))
            assert ch_mul(alg, ch_mul(alg, x, y), z) == \
                bch._ch_pbw(alg, bch._ch_pbw(alg, x, y), z)
            assert ch_mul(alg, x, ch_mul(alg, y, z)) == \
                bch._ch_pbw(alg, x, bch._ch_pbw(alg, y, z))


def test_bch_table_shape():
    # x + y + (1/2)[x, y], with 1/2 = -1 mod 3, and nothing else below degree 3
    assert bch_table(3) == [(1, "x"), (1, "y"), (1, ("y", "x"))]
    # adds (1/12)[x,[x,y]] - (1/12)[y,[x,y]] - (1/24)[y,[x,[x,y]]] mod 5
    assert bch_table(5) == [(1, "x"), (1, "y"), (2, ("y", "x")),
                            (2, (("y", "x"), "y")), (3, (("y", "x"), "x")),
                            (4, ((("y", "x"), "x"), "y"))]


def test_exp_is_diagonal(alg3):
    """Coproduct check: exp(x) is group-like in the doubled PBW algebra."""
    rng = random.Random(6)
    p = alg3.p

    def tensor_mul(a, b):
        out = {}
        for (m1, m2), c1 in a.items():
            for (n1, n2), c2 in b.items():
                left = bch._mul_mono_mono(alg3, m1, n1)
                right = bch._mul_mono_mono(alg3, m2, n2)
                for mo1, d1 in left.items():
                    for mo2, d2 in right.items():
                        if sum(alg3.deg[i] for i in mo1) + \
                           sum(alg3.deg[i] for i in mo2) >= p:
                            continue
                        key = (mo1, mo2)
                        val = (out.get(key, (0,))[0] +
                               c1[0] * c2[0] * d1 * d2) % p
                        out[key] = (val,)
        return {k: v for k, v in out.items() if v != (0,)}

    def coproduct(env):
        out = {}
        for mono, c in env.items():
            acc = {((), ()): c}
            for w in mono:
                nxt = {}
                for (m1, m2), cv in acc.items():
                    for key in [(m1 + (w,), m2), (m1, m2 + (w,))]:
                        if sum(alg3.deg[i] for i in key[0]) + \
                           sum(alg3.deg[i] for i in key[1]) >= p:
                            continue
                        nxt[key] = ((nxt.get(key, (0,))[0] + cv[0]) % p,)
                acc = {k: v for k, v in nxt.items() if v != (0,)}
            for k, v in acc.items():
                out[k] = (((out.get(k, (0,))[0]) + v[0]) % p,)
        return {k: v for k, v in out.items() if v != (0,)}

    for _ in range(8):
        x = alg3.rand_elem(rng, 2)
        e = exp_trunc(alg3, x)
        lhs = coproduct(e)
        rhs = tensor_mul({(m, ()): c for m, c in e.items()},
                         {((), m): c for m, c in e.items()})
        assert lhs == rhs


def test_ad_and_adjoint(alg5):
    rng = random.Random(7)
    ops = ElemOps(alg5)
    for _ in range(25):
        x, y = alg5.rand_elem(rng, 2), alg5.rand_elem(rng, 2)
        assert ad_apply(ops, x, x) == {}
        assert adjoint_apply(ops, {}, y) == y
        conj = ch_mul(alg5, ch_mul(alg5, alg5.el_neg(x), y), x)
        assert adjoint_apply(ops, x, y) == conj


def test_e0_class2(alg3):
    ops = ElemOps(alg3)
    x, y = alg3.gen_elem(("g", 1, 0)), alg3.gen_elem(("g", 2, 0))
    got = e0_apply(ops, x, y)
    want = alg3.el_add(y, alg3.el_scale_int(2, alg3.el_bracket(y, x)))
    assert got == want
    # commuting case reduces to y
    assert e0_apply(ops, x, x) == x


def test_jet_identities(alg5):
    rng = random.Random(8)
    ops = ElemOps(alg5)
    jops = JetOps(ops)
    zero = alg5.zero()
    for _ in range(20):
        x, y = alg5.rand_elem(rng, 2), alg5.rand_elem(rng, 2)
        lhs = jops.ch((zero, y), (x, zero))
        rhs = jops.ch((x, zero), (zero, adjoint_apply(ops, x, y)))
        assert lhs == rhs
        assert (x, y) == jops.ch((x, zero), (zero, e0_apply(ops, x, y)))


def test_bernoulli_values():
    assert bernoulli_mod_p(5, 0) == 1
    assert bernoulli_mod_p(5, 1) == (-pow(2, 3, 5)) % 5   # -1/2
    assert bernoulli_mod_p(3, 1) == 1
    assert bernoulli_mod_p(7, 2) == pow(6, 5, 7)          # 1/6
    for p in (3, 5, 7):
        with pytest.raises(ValueError):
            bernoulli_mod_p(p, p - 1)
        with pytest.raises(ValueError):
            bernoulli_mod_p(p, p)


def test_power_sum_base_cases():
    assert power_sum_poly(7, (0,)) == (0, 1)               # F_0 = U
    half = pow(2, 5, 7)
    assert power_sum_poly(7, (1,)) == (0, (-half) % 7, half)     # (U^2-U)/2
    assert power_sum_poly(7, (0, 0)) == power_sum_poly(7, (1,))  # pairs below n
    with pytest.raises(ValueError):
        power_sum_poly(5, (3, 1))   # degree 3+1+2 = 6 >= 5


def _brute(idx, n, p):
    import itertools
    total = 0
    for combo in itertools.combinations(range(n), len(idx)):
        term = 1
        for m, i in zip(combo, idx):
            term = (term * pow(m, i, p)) % p
        total = (total + term) % p
    return total


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_power_sum_matches_brute(data):
    p = data.draw(st.sampled_from([5, 7]))
    s = data.draw(st.integers(1, 3))
    idx = tuple(data.draw(st.integers(0, 2)) for _ in range(s))
    if sum(idx) + s >= p:
        return
    poly = power_sum_poly(p, idx)
    for n in range(0, 14):
        assert poly_eval_mod(poly, n, p) == _brute(idx, n, p)


def test_orbit_identity_operator(alg5):
    rng = random.Random(9)
    ops = ElemOps(alg5)
    l = alg5.rand_elem(rng, 3)
    ident = lambda m: m
    for n in range(5):
        assert orbit_product(ops, l, ident, n) == alg5.el_scale_int(n, l)
    coeffs = orbit_coefficients(ops, l, ident)
    assert coeffs[0] == l and all(c == {} for c in coeffs[1:])


def test_orbit_top_step(alg3):
    # an element of the top filtration step is fixed by any unipotent B
    alg = LieAlgebra(FieldCtx(3, 1), synthetic_gens=[("u", 1), ("v", 1)],
                     weight_cap=3)
    alg.eager_build()
    ops = ElemOps(alg)
    top = next(i for i in range(alg.num_words()) if alg.wt[i] == 2)
    l = {top: alg.field.one}
    b_op = GenDerivation(alg, {}).exp()
    assert orbit_product(ops, l, b_op, 2) == alg.el_scale_int(2, l)


def test_orbit_contract_violation(alg3):
    ops = ElemOps(alg3)
    l = alg3.gen_elem(("g", 1, 0))
    shift = alg3.gen_elem(("g", 2, 0))
    bad = lambda m: alg3.el_add(m, shift)   # not unipotent for the weight filtration
    with pytest.raises(ValueError):
        orbit_coefficients(ops, l, bad, filt=lambda x: alg3.el_weight(x))
