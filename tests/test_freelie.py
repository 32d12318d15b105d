import random

import pytest
from hypothesis import given, settings, strategies as st

from chram.gf import FieldCtx
from chram.bch import ElemOps, ch_generic
from chram.freelie import (LieAlgebra, BasisSizeError, witt_dimension, D0,
                           minimal_sigma_ideal, member, monomial_ideal,
                           member_mod_monomial, RowSpace)


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


@pytest.fixture(scope="module")
def alg5():
    return LieAlgebra(FieldCtx(5, 2), c0=5, a_max=20)


def test_two_generator_dims():
    alg = LieAlgebra(FieldCtx(5, 1), synthetic_gens=[("x", 1), ("y", 1)])
    assert alg.eager_build(2) == [2, 1]
    alg = LieAlgebra(FieldCtx(5, 1), synthetic_gens=[("x", 1), ("y", 1)])
    dims = alg.eager_build(4)
    assert dims == [2, 1, 2, 3] and sum(dims) == 8


def test_three_generator_deg2():
    alg = LieAlgebra(FieldCtx(3, 1), synthetic_gens=[(c, 1) for c in "abc"])
    assert alg.eager_build(2) == [3, 3]


@given(q=st.integers(1, 6))
@settings(max_examples=6, deadline=None)
def test_witt_dims_all_counts(q):
    alg = LieAlgebra(FieldCtx(7, 1), synthetic_gens=[(str(i), 1) for i in range(q)])
    dims = alg.eager_build(6)
    assert dims == [witt_dimension(q, n) for n in range(1, 7)]


def test_basis_cap():
    alg = LieAlgebra(FieldCtx(7, 1),
                     synthetic_gens=[(str(i), 1) for i in range(6)],
                     word_cap=100)
    with pytest.raises(BasisSizeError):
        alg.eager_build(6)


def test_nf_memo_holds_no_vanishing_pairs():
    """Pairs that vanish by degree (>= p) or by weight cap never enter the
    nf memo, even after table-route CH products that touch many of them."""
    alg = LieAlgebra(FieldCtx(7, 1), c0=7, a_max=14)
    rng = random.Random(17)
    ops = ElemOps(alg)
    for _ in range(3):
        ch_generic(ops, alg.rand_elem(rng, 3), alg.rand_elem(rng, 3))
    assert alg._nf_memo
    assert all(alg.deg[u] + alg.deg[v] < alg.p for u, v in alg._nf_memo)
    capped = LieAlgebra(FieldCtx(5, 1), synthetic_gens=[("u", 1), ("v", 2)],
                        weight_cap=4)
    u, v = capped.gen_ids[("s", "u")], capped.gen_ids[("s", "v")]
    uv = capped.nf(u, v)
    assert uv and capped.nf(next(iter(uv)), v) == {}
    assert all(capped.wt[a] + capped.wt[b] < 4 for a, b in capped._nf_memo)


def test_bracket_axioms(alg5):
    rng = random.Random(11)
    for _ in range(40):
        x, y, z = (alg5.rand_elem(rng, 3) for _ in range(3))
        assert alg5.el_bracket(x, x) == {}
        assert alg5.el_add(alg5.el_bracket(x, y), alg5.el_bracket(y, x)) == {}
        jac = alg5.el_add(
            alg5.el_add(alg5.el_bracket(alg5.el_bracket(x, y), z),
                        alg5.el_bracket(alg5.el_bracket(y, z), x)),
            alg5.el_bracket(alg5.el_bracket(z, x), y))
        assert jac == {}


def test_bilinearity(alg32):
    rng = random.Random(5)
    f = alg32.field
    for _ in range(20):
        x, y = alg32.rand_elem(rng, 2), alg32.rand_elem(rng, 2)
        lam = f.rand(rng)
        lhs = alg32.el_bracket(alg32.el_scale(lam, x), y)
        rhs = alg32.el_scale(lam, alg32.el_bracket(x, y))
        assert lhs == rhs


def test_sigma_on_generators(alg32):
    assert alg32.el_sigma(alg32.gen_elem(D0)) == alg32.gen_elem(D0)
    assert alg32.el_sigma(alg32.gen_elem(("g", 1, 0))) == alg32.gen_elem(("g", 1, 1))
    assert alg32.el_sigma(alg32.gen_elem(("g", 1, 1))) == alg32.gen_elem(("g", 1, 0))


def test_sigma_semilinear_and_invertible(alg32):
    rng = random.Random(7)
    f = alg32.field
    for _ in range(30):
        x, y = alg32.rand_elem(rng, 3), alg32.rand_elem(rng, 2)
        lam = f.rand(rng)
        assert alg32.el_sigma(alg32.el_scale(lam, x)) == \
            alg32.el_scale(f.frob(lam), alg32.el_sigma(x))
        assert alg32.el_sigma(alg32.el_bracket(x, y)) == \
            alg32.el_bracket(alg32.el_sigma(x), alg32.el_sigma(y))
        assert alg32.el_sigma(alg32.el_sigma(x, 1), -1) == x
        assert alg32.el_sigma(x, alg32.n0) == x


def test_weights(alg3):
    assert alg3.el_weight(alg3.gen_elem(("g", 1, 0))) == 1
    assert alg3.el_weight(alg3.gen_elem(("g", 4, 0))) == 2
    assert alg3.el_weight(alg3.gen_elem(D0)) == 1
    x = alg3.gen_elem(("g", 4, 0))
    assert alg3.el_weight(alg3.el_bracket(x, x)) == alg3.p  # zero sentinel


def test_weight_filtration_brackets(alg3):
    # [L(s1), L(s2)] inside L(s1+s2), on spanning words
    for i in range(alg3.num_words()):
        for j in range(alg3.num_words()):
            br = alg3.nf(i, j)
            for w in br:
                assert alg3.wt[w] >= alg3.wt[i] + alg3.wt[j]


def test_member_weight_ideal(alg3):
    ls2 = monomial_ideal(alg3, lambda i: alg3.wt[i] >= 2)
    for a in (1, 2, 4, 5):
        gen = alg3.gen_elem(("g", a, 0))
        assert ls2.contains_elem(alg3, gen) == (alg3.wt[alg3.gen_ids[("g", a, 0)]] >= 2)
    assert member(alg3, {}, ls2)


def test_minimal_ideal_top_word(alg3):
    top = next(i for i in range(alg3.num_words()) if alg3.deg[i] == 2)
    ideal = minimal_sigma_ideal(alg3, [{top: alg3.field.one}])
    assert ideal.dim == 1
    assert ideal.contains_elem(alg3, {top: alg3.field.one})


def test_minimal_ideal_idempotent(alg32):
    ideal = minimal_sigma_ideal(alg32, [alg32.gen_elem(("g", 1, 0))])
    rows = [alg32.unflatten(r) for r in ideal.space.rows()]
    again = minimal_sigma_ideal(alg32, rows)
    assert again.space.same_space(ideal.space)


def _naive_closure(alg, elems):
    """Independent fixpoint oracle: keep a plain list of vectors, saturate
    under sigma, k-scalings and generator brackets, recomputing the span
    from scratch each round."""
    f = alg.field
    kbasis = [tuple(1 if i == j else 0 for i in range(alg.n0))
              for j in range(alg.n0)]
    vecs = [dict(x) for x in elems if x]
    while True:
        space = RowSpace(alg.p)
        for v in vecs:
            space.add(alg.flatten(v))
        new = []
        for v in vecs:
            cands = [alg.el_sigma(v, 1)]
            cands += [alg.el_scale(w, v) for w in kbasis]
            cands += [alg.el_bracket(v, alg.gen_elem(lab)) for lab in alg.gen_ids]
            for c in cands:
                if c and not space.contains(alg.flatten(c)):
                    new.append(c)
                    space.add(alg.flatten(c))
        if not new:
            return space
        vecs.extend(new)


def test_minimal_ideal_vs_naive_oracle(alg32):
    rng = random.Random(3)
    for _ in range(5):
        gens = [alg32.rand_elem(rng, 2) for _ in range(2)]
        ideal = minimal_sigma_ideal(alg32, gens)
        oracle = _naive_closure(alg32, gens)
        assert ideal.space.same_space(oracle)


def test_member_rows_and_modulo(alg3):
    ideal = minimal_sigma_ideal(alg3, [alg3.gen_elem(("g", 1, 0))])
    for r in ideal.space.rows():
        assert member(alg3, alg3.unflatten(r), ideal)
    # modulo the degree-2 part, any bracket is absorbed
    br = alg3.el_bracket(alg3.gen_elem(("g", 4, 0)), alg3.gen_elem(("g", 5, 0)))
    assert not member(alg3, alg3.gen_elem(("g", 4, 0)), ideal)
    assert member_mod_monomial(alg3, br, ideal, lambda i: alg3.deg[i] < 2)


def test_elem_json_roundtrip(alg32):
    rng = random.Random(9)
    for _ in range(10):
        x = alg32.rand_elem(rng, 3)
        data = alg32.elem_to_json(x)
        assert alg32.elem_from_json(data) == x


def test_table_cache_roundtrip(alg3):
    data = alg3.table_to_json()
    fresh = LieAlgebra(FieldCtx(3, 1), c0=3, a_max=6)
    fresh.load_table(data)
    assert fresh.num_words() == alg3.num_words()
    assert fresh.pair_id == alg3.pair_id
    with pytest.raises(ValueError):
        other = LieAlgebra(FieldCtx(3, 1), c0=3, a_max=9)
        other.load_table(data)
