"""Campbell-Hausdorff product below degree p, and the operators built on it.

Every bracket backend (Lie elements, series, jets, the synthetic filtered
algebras of the property suite) evaluates x o y from one Hall-word expansion
on two letters, bch_table(p).  The table is derived once per p as
log(exp(x) exp(y)) in the PBW basis of the truncated enveloping algebra
(nondecreasing sequences of Hall ids); that PBW machinery serves only to
build the table and, in the tests, as an oracle for the CH product.

Also here: Bernoulli numbers mod p, the power-sum polynomials, and orbit
products l o B(l) o ... o B^(n-1)(l) with their polynomial coefficients.
"""

from __future__ import annotations

from .gf import FieldCtx
from .freelie import LieAlgebra, invert_vandermonde_mod_p

# -- PBW straightening -----------------------------------------------------------
# EnvElem = {monomial: Felt}, monomial = nondecreasing tuple of word ids.


def _mul_mono_word(alg: LieAlgebra, m: tuple, w: int) -> dict:
    """Product (PBW monomial) * (basis word) as {monomial: coeff mod p}."""
    key = (m, w)
    cached = alg._pbw_mw.get(key)
    if cached is not None:
        return cached
    p = alg.p
    if sum(alg.deg[i] for i in m) + alg.deg[w] >= p:
        out: dict = {}
    elif not m or m[-1] <= w:
        out = {m + (w,): 1}
    else:
        g, m2 = m[-1], m[:-1]
        out = {}
        for mono1, c1 in _mul_mono_word(alg, m2, w).items():
            for mono2, c2 in _mul_mono_word(alg, mono1, g).items():
                out[mono2] = (out.get(mono2, 0) + c1 * c2) % p
        for h, c in alg.nf(g, w).items():
            for mono2, c2 in _mul_mono_word(alg, m2, h).items():
                out[mono2] = (out.get(mono2, 0) + c * c2) % p
        out = {mo: c for mo, c in out.items() if c}
    alg._pbw_mw[key] = out
    return out


def _mul_mono_mono(alg: LieAlgebra, m1: tuple, m2: tuple) -> dict:
    key = (m1, m2)
    cached = alg._pbw_mm.get(key)
    if cached is not None:
        return cached
    p = alg.p
    out = {m1: 1}
    for w in m2:
        nxt: dict = {}
        for mono, c in out.items():
            for mono2, c2 in _mul_mono_word(alg, mono, w).items():
                nxt[mono2] = (nxt.get(mono2, 0) + c * c2) % p
        out = {mo: c for mo, c in nxt.items() if c}
    alg._pbw_mm[key] = out
    return out


def env_add(alg: LieAlgebra, a: dict, b: dict) -> dict:
    f = alg.field
    out = dict(a)
    for mo, c in b.items():
        s = f.add(out.get(mo, f.zero), c)
        if f.is_zero(s):
            out.pop(mo, None)
        else:
            out[mo] = s
    return out


def env_scale_modint(alg: LieAlgebra, n: int, a: dict) -> dict:
    f = alg.field
    n %= alg.p
    if n == 0:
        return {}
    return {mo: f.scale(n, c) for mo, c in a.items()}


def env_mul(alg: LieAlgebra, a: dict, b: dict) -> dict:
    f, p = alg.field, alg.p
    degs_a = {mo: sum(alg.deg[i] for i in mo) for mo in a}
    degs_b = {mo: sum(alg.deg[i] for i in mo) for mo in b}
    out: dict = {}
    for ma, ca in a.items():
        da = degs_a[ma]
        for mb, cb in b.items():
            if da + degs_b[mb] >= p:
                continue
            cab = f.mul(ca, cb)
            if f.is_zero(cab):
                continue
            for mo, c in _mul_mono_mono(alg, ma, mb).items():
                s = f.add(out.get(mo, f.zero), f.scale(c, cab))
                if f.is_zero(s):
                    out.pop(mo, None)
                else:
                    out[mo] = s
    return out


def lie_to_env(alg: LieAlgebra, x: dict) -> dict:
    return {(i,): c for i, c in x.items()}


def exp_trunc(alg: LieAlgebra, x: dict) -> dict:
    """Truncated exponential sum_{i<p} x^i / i! of a Lie element."""
    f = alg.field
    xe = lie_to_env(alg, x)
    out = {(): f.one}
    term = {(): f.one}
    for i in range(1, alg.p):
        term = env_mul(alg, term, xe)
        if not term:
            break
        inv_fact = pow(_fact(i, alg.p), alg.p - 2, alg.p)
        out = env_add(alg, out, env_scale_modint(alg, inv_fact, term))
    return out


def _fact(i: int, p: int) -> int:
    out = 1
    for j in range(2, i + 1):
        out = (out * j) % p
    return out


def log_trunc(alg: LieAlgebra, u: dict) -> dict:
    """Truncated logarithm; input must be 1 + (augmentation ideal)."""
    f = alg.field
    const = u.get((), f.zero)
    if const != f.one:
        raise ValueError("log requires constant term 1")
    n = {mo: c for mo, c in u.items() if mo != ()}
    acc: dict = {}
    power = {(): f.one}
    for i in range(1, alg.p):
        power = env_mul(alg, power, n)
        if not power:
            break
        sign = 1 if i % 2 == 1 else -1
        coeff = (sign * pow(i, alg.p - 2, alg.p)) % alg.p
        acc = env_add(alg, acc, env_scale_modint(alg, coeff, power))
    bad = [mo for mo in acc if len(mo) != 1]
    if bad:
        raise ValueError("logarithm is not primitive (input not group-like)")
    return {mo[0]: c for mo, c in acc.items()}


def _ch_pbw(alg: LieAlgebra, x: dict, y: dict) -> dict:
    """log(exp(x) exp(y)) in the PBW basis: builds bch_table, and is the
    tests' oracle for ch_mul."""
    return log_trunc(alg, env_mul(alg, exp_trunc(alg, x), exp_trunc(alg, y)))


# -- Hall-word expansion of the CH product, reusable over any bracket ------------

_BCH_TABLES: dict = {}


def bch_table(p: int) -> list:
    """CH product on two generators as [(coeff mod p, tree)], tree being a
    nested pair structure over the leaves 'x' and 'y'.  Derived once per p
    from the PBW construction above."""
    cached = _BCH_TABLES.get(p)
    if cached is not None:
        return cached
    k = FieldCtx(p, 1)
    alg = LieAlgebra(k, synthetic_gens=[("x", 1), ("y", 1)])
    gx = alg.gen_elem(("s", "x"))
    gy = alg.gen_elem(("s", "y"))
    z = _ch_pbw(alg, gx, gy)
    table = [(z[i][0], _letter_tree(alg, i))
             for i in sorted(z, key=lambda i: (alg.deg[i], i))]
    _BCH_TABLES[p] = table
    return table


def _letter_tree(alg: LieAlgebra, i: int):
    if alg.deg[i] == 1:
        return alg.label[i][1]
    return (_letter_tree(alg, alg.left[i]), _letter_tree(alg, alg.right[i]))


def _eval_tree(ops, tree, x, y, memo):
    if tree == "x":
        return x
    if tree == "y":
        return y
    got = memo.get(tree)
    if got is None:
        got = ops.bracket(_eval_tree(ops, tree[0], x, y, memo),
                          _eval_tree(ops, tree[1], x, y, memo))
        memo[tree] = got
    return got


def ch_generic(ops, x, y):
    """Evaluate the CH Hall expansion with an arbitrary bracket backend."""
    out = ops.zero()
    memo: dict = {}
    for coeff, tree in bch_table(ops.p):
        term = _eval_tree(ops, tree, x, y, memo)
        out = ops.add(out, ops.scale_int(coeff, term))
    return out


# -- operation backends -----------------------------------------------------------

class ElemOps:
    """LieElem backend; ch evaluates the Hall expansion like every backend."""

    def __init__(self, alg: LieAlgebra):
        self.alg = alg
        self.p = alg.p

    def zero(self):
        return {}

    def add(self, a, b):
        return self.alg.el_add(a, b)

    def neg(self, a):
        return self.alg.el_neg(a)

    def scale_int(self, n, a):
        return self.alg.el_scale_int(n, a)

    def bracket(self, a, b):
        return self.alg.el_bracket(a, b)

    def is_zero(self, a):
        return not a

    def ch(self, a, b):
        return ch_generic(self, a, b)


def ch_mul(alg: LieAlgebra, x: dict, y: dict) -> dict:
    """Campbell-Hausdorff product x o y of Lie elements below degree p."""
    return ch_generic(ElemOps(alg), x, y)


class JetOps:
    """Pairs (value, derivative) over a base backend; models U with U^2 = 0."""

    def __init__(self, base):
        self.base = base
        self.p = base.p

    def zero(self):
        return (self.base.zero(), self.base.zero())

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def scale_int(self, n, a):
        return (self.base.scale_int(n, a[0]), self.base.scale_int(n, a[1]))

    def bracket(self, a, b):
        v = self.base.bracket(a[0], b[0])
        d = self.base.add(self.base.bracket(a[0], b[1]),
                          self.base.bracket(a[1], b[0]))
        return (v, d)

    def is_zero(self, a):
        return self.base.is_zero(a[0]) and self.base.is_zero(a[1])

    def ch(self, a, b):
        return ch_generic(self, a, b)


# -- adjoint operators -------------------------------------------------------------

def ad_apply(ops, x, y):
    """(ad x)(y) = [y, x] (the convention used throughout this package)."""
    return ops.bracket(y, x)


def adjoint_apply(ops, x, y):
    """(Ad x)(y) = exp(ad x)(y); equals (-x) o y o x exactly."""
    p = ops.p
    out = ops.zero()
    term = y
    for k in range(p):
        if ops.is_zero(term) and k > 0:
            break
        inv_fact = pow(_fact(k, p), p - 2, p)
        out = ops.add(out, ops.scale_int(inv_fact, term))
        term = ops.bracket(term, x)
    return out


def e0_apply(ops, x, y):
    """E0(ad x)(y) = sum_{k>=1} (1/k!) [..[y, x], .., x] with k-1 brackets."""
    p = ops.p
    out = ops.zero()
    term = y
    for k in range(1, p):
        if ops.is_zero(term) and k > 1:
            break
        inv_fact = pow(_fact(k, p), p - 2, p)
        out = ops.add(out, ops.scale_int(inv_fact, term))
        term = ops.bracket(term, x)
    return out


# -- Bernoulli numbers mod p ---------------------------------------------------------

def bernoulli_mod_p(p: int, m: int) -> int:
    """B_m mod p via the double sum over 0 <= v <= k <= m.

    Defined for m <= p-2 only: the k = p-1 term of B_{p-1} carries an
    uninvertible denominator p (von Staudt-Clausen), so B_{p-1} has no
    residue mod p.
    """
    if m < 0 or m >= p - 1:
        raise ValueError("bernoulli_mod_p needs 0 <= m <= p-2")
    total = 0
    for k in range(m + 1):
        inv = pow(k + 1, p - 2, p)
        for v in range(k + 1):
            vm = 1 if (v == 0 and m == 0) else pow(v, m, p)
            term = (_binom_mod(k, v, p) * vm) % p
            total = (total - term * inv) % p if v % 2 else (total + term * inv) % p
    return total % p


def _binom_mod(n: int, k: int, p: int) -> int:
    from math import comb
    return comb(n, k) % p


# -- power-sum polynomials -------------------------------------------------------------

_PSUM_CACHE: dict = {}


def power_sum_poly(p: int, indices: tuple) -> tuple:
    """Coefficients (ascending, mod p) of the polynomial F with
    F(n) = sum over 0 <= m_1 < ... < m_s < n of m_1^i_1 ... m_s^i_s,
    for index tuples with i_1 + ... + i_s + s < p."""
    indices = tuple(int(i) for i in indices)
    s = len(indices)
    if s < 1 or any(i < 0 for i in indices):
        raise ValueError("need a nonempty tuple of nonnegative indices")
    d = sum(indices) + s
    if d >= p:
        raise ValueError("total degree must stay below p")
    key = (p, indices)
    cached = _PSUM_CACHE.get(key)
    if cached is not None:
        return cached
    from math import comb
    if s == 1:
        i1 = indices[0]
        if i1 == 0:
            out = (0, 1)  # F_0 = U
        else:
            # (i1+1) f_{i1}(n) = n^{i1+1} - sum_{j<i1} C(i1+1, j) F_j(n)
            coeffs = [0] * (i1 + 2)
            coeffs[i1 + 1] = 1
            for j in range(i1):
                fj = power_sum_poly(p, (j,))
                cj = comb(i1 + 1, j) % p
                for t, v in enumerate(fj):
                    coeffs[t] = (coeffs[t] - cj * v) % p
            inv = pow(i1 + 1, p - 2, p)
            out = tuple((v * inv) % p for v in coeffs)
    else:
        head, i_s = indices[:-1], indices[-1]
        fh = power_sum_poly(p, head)
        coeffs = [0] * (d + 1)
        for j, cj in enumerate(fh):
            if cj == 0 or j == 0:
                continue
            fj = power_sum_poly(p, (j + i_s,))
            for t, v in enumerate(fj):
                coeffs[t] = (coeffs[t] + cj * v) % p
        out = tuple(coeffs)
    out = _trim_poly(out)
    _PSUM_CACHE[key] = out
    return out


def _trim_poly(c) -> tuple:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_eval_mod(coeffs, n: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * n + c) % p
    return acc


class GenDerivation:
    """Derivation of a LieAlgebra given by its images on generators."""

    def __init__(self, alg: LieAlgebra, images: dict):
        self.alg = alg
        self.images = images  # generator id -> LieElem
        self._word_memo: dict = {}

    def _on_word(self, i: int) -> dict:
        got = self._word_memo.get(i)
        if got is None:
            alg = self.alg
            if alg.deg[i] == 1:
                got = self.images.get(i, {})
            else:
                l, r = alg.left[i], alg.right[i]
                got = alg.el_add(
                    alg.el_bracket(self._on_word(l), {r: alg.field.one}),
                    alg.el_bracket({l: alg.field.one}, self._on_word(r)))
            self._word_memo[i] = got
        return got

    def apply(self, x: dict) -> dict:
        alg = self.alg
        acc = alg.zero()
        for i, c in x.items():
            acc = alg.el_add(acc, alg.el_scale(c, self._on_word(i)))
        return acc

    def exp(self):
        """exp of the derivation as a map (an automorphism when the
        derivation is nilpotent of order < p, e.g. filtration-raising on a
        weight-capped algebra)."""
        alg, p = self.alg, self.alg.p

        def b_op(x: dict) -> dict:
            out, term = alg.zero(), x
            for k in range(p):
                inv_fact = pow(_fact(k, p), p - 2, p)
                out = alg.el_add(out, alg.el_scale_int(inv_fact, term))
                term = self.apply(term)
                if not term:
                    break
            return out

        return b_op


# -- orbit products ------------------------------------------------------------------

def orbit_product(ops, l, b_op, n: int):
    """l o B(l) o B^2(l) o ... o B^(n-1)(l) in the CH group of the backend."""
    if n == 0:
        return ops.zero()
    prod = l
    term = l
    for _ in range(n - 1):
        term = b_op(term)
        prod = ops.ch(prod, term)
    return prod


def orbit_coefficients(ops, l, b_op, filt=None):
    """Coefficients l_1..l_{p-1} with l[n] = sum l_i n^i for all n.

    When `filt` (a filtration-degree function) is given, checks that B is
    unipotent for it: filt(B(l) - l) > filt(l), and that l_i sits in step i.
    """
    p = ops.p
    if filt is not None:
        drift = ops.add(b_op(l), ops.neg(l))
        if not ops.is_zero(drift) and filt(drift) <= filt(l):
            raise ValueError("operator is not unipotent for the declared filtration")
    vals = []
    prod = None
    term = l
    for n in range(1, p):
        if n == 1:
            prod = l
        else:
            term = b_op(term)
            prod = ops.ch(prod, term)
        vals.append(prod)
    vinv = invert_vandermonde_mod_p(p)
    coeffs = []
    for i in range(p - 1):
        acc = ops.zero()
        for n in range(p - 1):
            acc = ops.add(acc, ops.scale_int(vinv[i][n], vals[n]))
        coeffs.append(acc)
    if filt is not None:
        for i, li in enumerate(coeffs, start=1):
            if not ops.is_zero(li) and filt(li) < i:
                raise ValueError("orbit coefficient escapes its filtration step")
    return coeffs
