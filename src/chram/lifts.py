"""Degree-by-degree lift solvers and their derived quantities.

Two independent routes compute the same canonical lift data:

* solve_lift runs the conjugation recurrence on the seed series with the
  full CH products, accumulating the automorphism images A(D_{a,0}) and the
  correction series c; the adjoint derivation is recovered as log(A) and the
  first-order series c1 by polynomial interpolation of the twisted orbit
  products c(n).
* solve_linearized runs the first-order (jet) recurrence directly, producing
  c1 and the adjoint images degree by degree.

Both make the canonical choice at every degree through the splitting
b = r_op(b) + (sigma - id) s_op(b).  On top of these sit the closed-form
cross-checks, the positive-part formula, the relation equation for the
t^0 part, and the arithmeticality criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .freelie import (LieAlgebra, IdealBasis, RowSpace, D0,
                      invert_vandermonde_mod_p, solve_linear_mod_p)
from .series import SeriesCtx, AutSpec
from .bch import ch_generic, ch_mul, _fact
from .ramgen import ram_generator, ram_generator_family


class LiftError(RuntimeError):
    """A lift solver's recurrence broke an invariant it relies on."""


# -- backends ---------------------------------------------------------------------

class CappedSeriesOps:
    """Series backend that discards bracket results above a degree cap
    (congruences modulo the next commutator step)."""

    def __init__(self, sctx: SeriesCtx, cap: int):
        self.sctx = sctx
        self.cap = cap
        self.p = sctx.p

    def _cut(self, F):
        alg = self.sctx.alg
        out = {}
        for e, x in F.items():
            y = {i: c for i, c in x.items() if alg.deg[i] <= self.cap}
            if y:
                out[e] = y
        return out

    def zero(self):
        return {}

    def add(self, a, b):
        return self.sctx.add(a, b)

    def neg(self, a):
        return self.sctx.neg(a)

    def scale_int(self, n, a):
        return self.sctx.scale_int(n, a)

    def bracket(self, a, b):
        return self._cut(self.sctx.bracket(a, b))

    def is_zero(self, a):
        return not a

    def ch(self, a, b):
        return ch_generic(self, self._cut(a), self._cut(b))


def scalar_lie_mul(sctx: SeriesCtx, scalar: dict, F: dict) -> dict:
    """Multiply a Lie series by a scalar series (exponentwise convolution)."""
    alg = sctx.alg
    raw: dict = {}
    for e1, c in scalar.items():
        for e2, x in F.items():
            y = alg.el_scale(c, x)
            if y:
                e = e1 + e2
                raw[e] = alg.el_add(raw.get(e, {}), y)
    return sctx.truncate(raw)


# -- linearized solver ---------------------------------------------------------------

@dataclass
class LinearizedLift:
    c1: dict                      # series
    sigma_c1: dict                # series, sigma applied
    ad_images: dict               # a -> LieElem, total ad(D_{a,0})
    ad_d0: dict                   # LieElem, total ad(D0); V0 = alpha0 * ad_d0
    b_records: list = field(default_factory=list)   # per-degree RHS
    x_records: list = field(default_factory=list)   # per-degree c1 increments
    r_records: list = field(default_factory=list)   # per-degree R parts

    def v0(self, alg: LieAlgebra) -> dict:
        return alg.el_scale(alg.field.alpha0(), self.ad_d0)

    def c1_split(self, sctx: SeriesCtx) -> tuple:
        return sctx.split_signs(self.c1)


def differential_seed_term(sctx: SeriesCtx, aut: AutSpec) -> dict:
    """- sum_{a,i} A_i a t^(c0 + p i - a) D_{a,0}: the first-order motion of
    the seed under the one-parameter family of the automorphism."""
    alg = sctx.alg
    f = alg.field
    ea = {}
    for a in range(1, alg.a_max):
        if a % sctx.p == 0:
            continue
        x = alg.gen_elem(("g", a, 0), f.from_int(a))
        if x:
            ea[-a] = x
    eps = {sctx.c0 + sctx.p * i: c for i, c in enumerate(aut.eps_coeffs())
           if not f.is_zero(c)}
    return sctx.neg(scalar_lie_mul(sctx, eps, ea))


def solve_linearized(sctx: SeriesCtx, aut: AutSpec) -> LinearizedLift:
    alg = sctx.alg
    p = sctx.p
    e = sctx.seed()
    d1 = differential_seed_term(sctx, aut)
    inv_fact = [0] + [pow(_fact(k, p), p - 2, p) for k in range(1, p)]

    # iterated brackets with the seed, per accumulated part
    def ad_chain(x0):
        chain = [x0]
        for _ in range(p - 2):
            chain.append(sctx.bracket(chain[-1], e))
        return chain

    t_chain = ad_chain(d1)
    w_chains: list = []   # chains of the degree-d W increments, d = 1, 2, ..
    c_chains: list = []   # chains of the degree-d sigma(c1) increments

    out = LinearizedLift(c1={}, sigma_c1={}, ad_images={}, ad_d0={})
    for s in range(1, p):
        b = sctx.scale_int(inv_fact[s], t_chain[s - 1])
        for k in range(2, s + 1):
            part = w_chains[s - k][k - 1] if s - k < len(w_chains) else {}
            b = sctx.sub(b, sctx.scale_int(inv_fact[k], part))
        for k in range(1, s):
            part = c_chains[s - k - 1][k] if s - k - 1 < len(c_chains) else {}
            b = sctx.sub(b, sctx.scale_int(inv_fact[k], part))
        if any(alg.deg[i] != s for x in b.values() for i in x):
            raise LiftError(f"defect not of pure degree {s}")
        r = sctx.r_op(b)
        x_s = sctx.s_op(b)
        out.b_records.append(b)
        out.x_records.append(x_s)
        out.r_records.append(r)
        # bookkeeping of adjoint images: t^(-a) coefficients and the t^0 trace
        for eexp, coeff in r.items():
            if eexp == 0:
                continue
            a = -eexp
            out.ad_images[a] = alg.el_add(out.ad_images.get(a, {}), coeff)
        tau = alg.el_trace(b.get(0, {}))
        out.ad_d0 = alg.el_add(out.ad_d0, tau)
        out.c1 = sctx.add(out.c1, x_s)
        out.sigma_c1 = sctx.add(out.sigma_c1, sctx.sigma(x_s, 1))
        w_chains.append(ad_chain(r))
        c_chains.append(ad_chain(sctx.sigma(x_s, 1)))
    return out


# -- full solver ------------------------------------------------------------------------

@dataclass
class FullLift:
    c: dict                      # series
    a_images: dict               # a -> LieElem, total A(D_{a,0})
    a_d0: dict                   # LieElem, total A(D0)
    b_records: list = field(default_factory=list)   # per-degree defects
    x_records: list = field(default_factory=list)   # per-degree shifts
    _word_memo: dict = field(default_factory=dict)

    def a_word(self, alg: LieAlgebra, i: int) -> dict:
        """Image of a basis word, carried modulo the top weight ideal (the
        image of a weight-s word only ever adds weight, so the projection is
        stable under brackets and all consumers work modulo that ideal)."""
        got = self._word_memo.get(i)
        if got is None:
            if alg.deg[i] == 1:
                lab = alg.label[i]
                if lab == D0:
                    got = self.a_d0
                else:
                    got = alg.el_sigma(self.a_images[lab[1]], lab[2])
            else:
                got = alg.el_bracket(self.a_word(alg, alg.left[i]),
                                     self.a_word(alg, alg.right[i]))
            got = {w: c for w, c in got.items() if alg.wt[w] < alg.p}
            self._word_memo[i] = got
        return got

    def a_apply(self, alg: LieAlgebra, x: dict) -> dict:
        out = alg.zero()
        for i, c in x.items():
            if alg.wt[i] >= alg.p:
                continue
            out = alg.el_add(out, alg.el_scale(c, self.a_word(alg, i)))
        return out

    def ad_apply(self, alg: LieAlgebra, x: dict) -> dict:
        """log of the automorphism, modulo the top weight ideal:
        sum (-1)^(j+1) (A - id)^j / j."""
        p = alg.p
        out = alg.zero()
        term = {i: c for i, c in x.items() if alg.wt[i] < p}
        for j in range(1, p):
            term = alg.el_sub(self.a_apply(alg, term), term)
            term = {i: c for i, c in term.items() if alg.wt[i] < p}
            if not term:
                break
            coeff = (pow(j, p - 2, p) * (1 if j % 2 else -1)) % p
            out = alg.el_add(out, alg.el_scale_int(coeff, term))
        return out

    def ad_images(self, alg: LieAlgebra) -> dict:
        return {a: self.ad_apply(alg, {alg.gen_ids[("g", a, 0)]: alg.field.one})
                for a in self.a_images if ("g", a, 0) in alg.gen_ids}

    def ad_d0_elem(self, alg: LieAlgebra) -> dict:
        return self.ad_apply(alg, {alg.gen_ids[D0]: alg.field.one})


def automorphism_image_series(sctx: SeriesCtx, full: FullLift) -> dict:
    """sum_a t^(-a) A(D_{a,0}) + alpha0 A(D0): the seed pushed through A."""
    alg = sctx.alg
    f = alg.field
    out = {}
    for a, img in full.a_images.items():
        if img:
            out[-a] = alg.el_add(out.get(-a, {}), img)
    d0part = alg.el_scale(f.alpha0(), full.a_d0)
    if d0part:
        out[0] = alg.el_add(out.get(0, {}), d0part)
    return sctx.truncate(out)


def solve_lift(sctx: SeriesCtx, aut: AutSpec) -> FullLift:
    alg = sctx.alg
    p = sctx.p
    e = sctx.seed()
    he = sctx.substitute(e, aut)
    full = FullLift(c={}, a_images={}, a_d0={})
    for s in range(1, p):
        ops = CappedSeriesOps(sctx, s)
        lhs = ops.ch(he, full.c)
        rhs = ops.ch(sctx.sigma(full.c, 1), automorphism_image_series(sctx, full))
        b_all = sctx.sub(lhs, rhs)
        b = {}
        for eexp, x in b_all.items():
            if any(alg.deg[i] < s for i in x):
                raise LiftError(f"defect has terms below degree {s}")
            hi = {i: c for i, c in x.items() if alg.deg[i] == s}
            if hi:
                b[eexp] = hi
        r = sctx.r_op(b)
        x_s = sctx.s_op(b)
        full.b_records.append(b)
        full.x_records.append(x_s)
        for eexp, coeff in r.items():
            if eexp == 0:
                continue
            a = -eexp
            full.a_images[a] = alg.el_add(full.a_images.get(a, {}), coeff)
        tau = alg.el_trace(b.get(0, {}))
        full.a_d0 = alg.el_add(full.a_d0, tau)
        full.c = sctx.add(full.c, x_s)
        full._word_memo = {}
    # closing check: the conjugation equation holds modulo the policy
    lhs = sctx.ch(he, full.c)
    rhs = sctx.ch(sctx.sigma(full.c, 1), automorphism_image_series(sctx, full))
    if lhs != rhs:
        raise LiftError("conjugation equation fails after the last degree")
    return full


def orbit_c1(sctx: SeriesCtx, full: FullLift, aut: AutSpec) -> dict:
    """First-order coefficient of n -> c(n) by polynomial interpolation,
    where c(n) drives the n-th power of the lift."""
    alg = sctx.alg
    p = sctx.p
    aut_inv = aut.inverse()

    def b_op(F):
        mapped = {e: full.a_apply(alg, x) for e, x in F.items()}
        mapped = {e: x for e, x in mapped.items() if x}
        return sctx.substitute(sctx.truncate(mapped), aut_inv)

    vals = []
    prod = None
    term = full.c
    for n in range(1, p):
        if n == 1:
            prod = full.c
        else:
            term = b_op(term)
            prod = sctx.ch(prod, term)
        twisted = prod
        if n > 1:
            twisted = sctx.substitute(prod, aut.power(n - 1))
        vals.append(twisted)
    vinv = invert_vandermonde_mod_p(p)
    c1 = {}
    for n in range(p - 1):
        c1 = sctx.add(c1, sctx.scale_int(vinv[0][n], vals[n]))
    return c1


# -- closed forms ----------------------------------------------------------------------

def c1_plus_formula(sctx: SeriesCtx, aut: AutSpec, n_big: int) -> dict:
    """Positive part of c1 as the double sum over depths n < n_big and
    exponents gamma < c0 + p j of the ramification generators, twisted by
    sigma^n and placed at t^(p^n (c0 + p j - gamma))."""
    alg = sctx.alg
    f = alg.field
    p, c0 = sctx.p, sctx.c0
    eps = aut.eps_coeffs()
    out: dict = {}
    for n in range(n_big):
        scalepow = p ** n
        gmax = Fraction(c0 + p * (len(eps) - 1))
        # only gamma with p^n (c0 + pj - gamma) <= max ceiling contribute
        gmin = Fraction(c0) - Fraction(sctx.max_ceil, scalepow)
        fam = ram_generator_family(alg, n, gmax, weight_cap=p,
                                   gamma_min=gmin if gmin > 0 else None)
        for j, aj in enumerate(eps):
            if f.is_zero(aj):
                continue
            target = c0 + p * j
            for g, elem in fam.items():
                if g >= target:
                    continue
                expo = (target - g) * scalepow
                if expo.denominator != 1:
                    continue
                expo = int(expo)
                if expo > sctx.max_ceil:
                    continue
                piece = alg.el_sigma(alg.el_scale(aj, elem), n)
                got = sctx.mono(expo, piece)
                out = sctx.add(out, got)
    return out


def closed_form_ad_image(sctx: SeriesCtx, aut: AutSpec, a: int,
                         second_sum_twist: str = "sigma_minus_m") -> dict:
    """The two-sum expression for ad(D_{a,0}) modulo the weight-3 ideal.

    second_sum_twist selects the reading of the depth-0 sum: 'sigma_minus_m'
    applies sigma^(-m) to the m-th term, 'none' leaves it untwisted,
    'sigma_plus_m' applies sigma^(+m).
    """
    alg = sctx.alg
    f = alg.field
    p, c0 = sctx.p, sctx.c0
    eps = aut.eps_coeffs()
    acc = alg.zero()
    # sum over n >= 1 of sigma^n(A_i F(c0 + p i + a / p^n, depth n))
    n = 1
    while (c0 - 1) * (1 + Fraction(1, p ** n)) >= c0 or n <= alg.n0:
        contributed = False
        for i, ai in enumerate(eps):
            if f.is_zero(ai):
                continue
            gamma = Fraction(c0 + p * i) + Fraction(a, p ** n)
            el = ram_generator(alg, gamma, n, weight_cap=3)
            if el:
                acc = alg.el_add(acc, alg.el_sigma(alg.el_scale(ai, el), n))
                contributed = True
        n += 1
        if n > 8 and not contributed:
            break
    # sum over m >= 0 of twist_m(A_i F(c0 + p i + a p^m, depth 0))
    m = 0
    while a * p ** m <= 2 * (c0 - 1):
        for i, ai in enumerate(eps):
            if f.is_zero(ai):
                continue
            gamma = Fraction(c0 + p * i + a * p ** m)
            el = ram_generator(alg, gamma, 0, weight_cap=3)
            if not el:
                continue
            piece = alg.el_scale(ai, el)
            if second_sum_twist == "sigma_minus_m":
                piece = alg.el_sigma(piece, -m)
            elif second_sum_twist == "sigma_plus_m":
                piece = alg.el_sigma(piece, m)
            acc = alg.el_add(acc, piece)
        m += 1
    return alg.el_neg(acc)


def closed_form_ad_d0(sctx: SeriesCtx, aut: AutSpec) -> dict:
    """- sum over i and n < n0 of sigma^n(A_i F(c0 + p i, depth 0)), the
    weight-<3 shape of the trace part."""
    alg = sctx.alg
    f = alg.field
    eps = aut.eps_coeffs()
    acc = alg.zero()
    for i, ai in enumerate(eps):
        if f.is_zero(ai):
            continue
        el = ram_generator(alg, Fraction(sctx.c0 + sctx.p * i), 0, weight_cap=3)
        if not el:
            continue
        acc = alg.el_add(acc, alg.el_trace(alg.el_scale(ai, el)))
    return alg.el_neg(acc)


def project_below_weight(alg: LieAlgebra, x: dict, s: int) -> dict:
    return {i: c for i, c in x.items() if alg.wt[i] < s}


def first_order_residual(sctx: SeriesCtx, aut: AutSpec, c1: dict,
                         v_map: dict, v0: dict) -> tuple:
    """Residual of the first-order (jet) equation for a candidate solution
    (c1, {V_a}, V0): both components vanish iff the triple linearises an
    actual lift."""
    from .bch import JetOps
    alg = sctx.alg
    jops = JetOps(sctx)
    e = sctx.seed()
    d1 = differential_seed_term(sctx, aut)
    w = {}
    for a, x in v_map.items():
        if x:
            w[-a] = x
    if v0:
        w[0] = alg.el_add(w.get(0, {}), v0)
    w = sctx.truncate(w)
    lhs = jops.ch((e, d1), (sctx.zero(), c1))
    rhs = jops.ch((sctx.zero(), sctx.sigma(c1, 1)), (e, w))
    return (sctx.sub(lhs[0], rhs[0]), sctx.sub(lhs[1], rhs[1]))


def lin_first_order_residual(sctx: SeriesCtx, aut: AutSpec,
                             lin: LinearizedLift) -> tuple:
    return first_order_residual(sctx, aut, lin.c1, lin.ad_images,
                                lin.v0(sctx.alg))


def full_first_order_residual(sctx: SeriesCtx, aut: AutSpec,
                              full: FullLift) -> tuple:
    alg = sctx.alg
    p = sctx.p
    v_map = {a: project_below_weight(alg, x, p)
             for a, x in full.ad_images(alg).items()}
    v0 = alg.el_scale(alg.field.alpha0(),
                      project_below_weight(alg, full.ad_d0_elem(alg), p))
    return first_order_residual(sctx, aut, orbit_c1(sctx, full, aut), v_map, v0)


def lifts_agree(sctx: SeriesCtx, lin: LinearizedLift, full: FullLift,
                aut: AutSpec) -> bool:
    """Consistency of the two routes.

    Both must linearise to exact solutions of the first-order equation.  At
    n0 = 1 the canonical splittings coincide and the data must match
    exactly modulo the top weight ideal.  At n0 > 1 the two recurrences
    recenter differently (the one on the full correction also splits the
    invariant t^0 part of the seed, shifting c1 by a sigma-fixed element),
    so there agreement means: same residuals, and the c1 difference is
    sigma-fixed."""
    alg = sctx.alg
    p = sctx.p
    r0, r1 = lin_first_order_residual(sctx, aut, lin)
    if r0 or r1:
        return False
    f0, f1 = full_first_order_residual(sctx, aut, full)
    if f0 or f1:
        return False
    if alg.n0 == 1:
        full_v = full.ad_images(alg)
        for a in set(full_v) | set(lin.ad_images):
            va = project_below_weight(alg, full_v.get(a, {}), p)
            vb = project_below_weight(alg, lin.ad_images.get(a, {}), p)
            if va != vb:
                return False
        da = project_below_weight(alg, full.ad_d0_elem(alg), p)
        db = project_below_weight(alg, lin.ad_d0, p)
        if da != db:
            return False
        return orbit_c1(sctx, full, aut) == lin.c1
    diff = sctx.sub(orbit_c1(sctx, full, aut), lin.c1)
    return _sigma_fixed_series(sctx, diff)


def _sigma_fixed_series(sctx: SeriesCtx, F: dict) -> bool:
    """Termwise sigma-fixedness for series supported at t^0 (the only shape
    a recentering difference can take)."""
    alg = sctx.alg
    if any(e != 0 for e in F):
        return False
    x = F.get(0, {})
    return alg.el_sigma(x, 1) == x


# -- generator-shift congruence (adjoint action on generators) ---------------------------

def generator_shift_check(sctx: SeriesCtx, aut: AutSpec, full: FullLift) -> bool:
    """A(D_{a,0}) = D_{a,0} - sum_i alphas[i] a D_{a+c0+pi,0} modulo
    (weight s+2) + (weight s+1 intersect degree 2), for wt(D_{a,0}) = s <= p-2;
    and A(D0) = D0 modulo (weight 3) + (weight 2 intersect degree 2)."""
    alg = sctx.alg
    f = alg.field
    p, c0 = sctx.p, sctx.c0

    def ok_mod(x, s):
        return all(alg.wt[i] >= s + 2 or (alg.wt[i] >= s + 1 and alg.deg[i] >= 2)
                   for i in x)

    for a in range(1, alg.a_max):
        if a % p == 0:
            continue
        s = a // c0 + 1
        if s > p - 2:
            continue
        img = full.a_images.get(a, {})
        target = alg.gen_elem(("g", a, 0))
        for i, al in enumerate(aut.alphas):
            b = a + c0 + p * i
            if b < alg.a_max and not f.is_zero(al):
                target = alg.el_sub(
                    target, alg.gen_elem(("g", b, 0), f.scale(a % p, al)))
        if not ok_mod(alg.el_sub(img, target), s):
            return False
    d0_dev = alg.el_sub(full.a_d0, alg.gen_elem(D0))
    return ok_mod(d0_dev, 1)


def elimination_check(sctx: SeriesCtx, full: FullLift) -> bool:
    """Every generator D_{b + c0, 0} with b prime to p lies in the span of
    the adjoint image plus degree-2 plus weight-p parts."""
    alg = sctx.alg
    space = RowSpace(alg.p)
    # adjoint image on all materialised words, plus monomial parts
    for i in range(alg.num_words()):
        if alg.deg[i] >= 2 or alg.wt[i] >= alg.p:
            for j in range(alg.n0):
                space.add({i * alg.n0 + j: 1})
    for i in range(alg.num_words()):
        img = full.ad_apply(alg, {i: alg.field.one})
        if img:
            space.add(alg.flatten(img))
        for n in range(1, alg.n0):
            img_n = alg.el_sigma(img, n)
            if img_n:
                space.add(alg.flatten(img_n))
    for b in range(1, alg.a_max - sctx.c0):
        if b % alg.p == 0:
            continue
        gen = alg.gen_elem(("g", b + sctx.c0, 0))
        if not space.contains(alg.flatten(gen)):
            return False
    return True


# -- relation equation for the t^0 part ---------------------------------------------------

def g0_apply(alg: LieAlgebra, x: dict) -> dict:
    """exp(alpha0 ad D0) with (ad X)Y = [Y, X]."""
    f = alg.field
    a0 = f.alpha0()
    d0 = alg.gen_elem(D0)
    out = alg.zero()
    term = x
    for k in range(alg.p):
        inv_fact = pow(_fact(k, alg.p), alg.p - 2, alg.p)
        out = alg.el_add(out, alg.el_scale_int(inv_fact, term))
        term = alg.el_scale(a0, alg.el_bracket(term, d0))
        if not term:
            break
    return out


def f0_apply(alg: LieAlgebra, x: dict) -> dict:
    """E0(alpha0 ad D0): sum_{k>=1} alpha0^(k-1)/k! (k-1)-fold brackets."""
    f = alg.field
    a0 = f.alpha0()
    d0 = alg.gen_elem(D0)
    out = alg.zero()
    term = x
    for k in range(1, alg.p):
        inv_fact = pow(_fact(k, alg.p), alg.p - 2, alg.p)
        out = alg.el_add(out, alg.el_scale_int(inv_fact, term))
        term = alg.el_scale(a0, alg.el_bracket(term, d0))
        if not term:
            break
    return out


def sigma_fixed_basis(alg: LieAlgebra, rows: list | None = None) -> list:
    """Basis of the sigma-fixed F_p-points of the row space (default: all of
    the materialised algebra) as LieElems."""
    if rows is None:
        basis = []
        for i in range(alg.num_words()):
            for j in range(alg.n0):
                basis.append(alg.unflatten({i * alg.n0 + j: 1}))
    else:
        basis = [alg.unflatten(r) for r in rows]
    images = [alg.flatten(alg.el_sub(alg.el_sigma(b, 1), b)) for b in basis]
    lambdas = _kernel_mod_p(images, alg.p)
    out = []
    for lam in lambdas:
        x = alg.zero()
        for idx, c in lam.items():
            x = alg.el_add(x, alg.el_scale_int(c, basis[idx]))
        if x:
            out.append(x)
    return out


def _kernel_mod_p(vectors: list, p: int) -> list:
    """Kernel of the map lambda -> sum lambda_i vectors[i] over F_p."""
    n = len(vectors)
    pivots: dict = {}
    kernel = []
    for i in range(n):
        r = dict(vectors[i])
        combo = {i: 1}
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                break
            prow, pcombo = piv
            c = r[lead]
            for col, v in prow.items():
                nv = (r.get(col, 0) - c * v) % p
                if nv:
                    r[col] = nv
                else:
                    r.pop(col, None)
            for idx, v in pcombo.items():
                nv = (combo.get(idx, 0) - c * v) % p
                if nv:
                    combo[idx] = nv
                else:
                    combo.pop(idx, None)
        if not r:
            kernel.append(combo)
        else:
            lead = min(r)
            inv = pow(r[lead], p - 2, p)
            pivots[lead] = ({c: (v * inv) % p for c, v in r.items()},
                            {idx: (v * inv) % p for idx, v in combo.items()})
    return kernel


@dataclass
class RelationSolution:
    c0_elem: dict
    v0_elem: dict
    restricted: bool   # solved inside the ramification ideal

    def ad_d0(self, alg: LieAlgebra):
        """V0 = alpha0 * w with w sigma-fixed; recover w."""
        a0inv = alg.field.inv(alg.field.alpha0())
        return alg.el_scale(a0inv, self.v0_elem)


def solve_relation_equation(alg: LieAlgebra, omega0: dict, n_star: int,
                            ideal: IdealBasis | None = None,
                            pin_v0: dict | None = None) -> RelationSolution | None:
    """Solve (G0 sigma - id) c0 + F0(V0) = sigma^(N*) omega0 with V0 in
    alpha0 * (sigma-fixed subspace).  When `ideal` is given, c0 is searched
    inside its row space and V0 inside alpha0 * (sigma-fixed part of it);
    `pin_v0` forces V0 and solves for c0 only."""
    f = alg.field
    a0 = f.alpha0()
    if ideal is not None:
        c_basis = [alg.unflatten(r) for r in ideal.space.rows()]
        fixed = sigma_fixed_basis(alg, ideal.space.rows())
    else:
        c_basis = [alg.unflatten({i * alg.n0 + j: 1})
                   for i in range(alg.num_words()) for j in range(alg.n0)]
        fixed = sigma_fixed_basis(alg)
    columns = []
    for bvec in c_basis:
        img = alg.el_sub(g0_apply(alg, alg.el_sigma(bvec, 1)), bvec)
        columns.append(alg.flatten(img))
    nv = 0
    if pin_v0 is None:
        for w in fixed:
            img = f0_apply(alg, alg.el_scale(a0, w))
            columns.append(alg.flatten(img))
        nv = len(fixed)
    rhs_elem = alg.el_sigma(omega0, n_star % alg.n0)
    if pin_v0 is not None:
        rhs_elem = alg.el_sub(rhs_elem, f0_apply(alg, pin_v0))
    rhs_vec = alg.flatten(rhs_elem)
    # assemble coordinate equations
    coords = set(rhs_vec)
    for col in columns:
        coords.update(col)
    coords = sorted(coords)
    coord_pos = {c: i for i, c in enumerate(coords)}
    eq_rows = [dict() for _ in coords]
    for var, col in enumerate(columns):
        for c, v in col.items():
            eq_rows[coord_pos[c]][var] = v
    rhs_list = [rhs_vec.get(c, 0) for c in coords]
    sol = solve_linear_mod_p(eq_rows, rhs_list, alg.p)
    if sol is None:
        return None
    nc = len(c_basis)
    c0_elem = alg.zero()
    for var, v in sol.items():
        if var < nc:
            c0_elem = alg.el_add(c0_elem, alg.el_scale_int(v, c_basis[var]))
    if pin_v0 is not None:
        v0_elem = pin_v0
    else:
        v0_elem = alg.zero()
        for var, v in sol.items():
            if var >= nc:
                w = fixed[var - nc]
                v0_elem = alg.el_add(v0_elem,
                                     alg.el_scale_int(v, alg.el_scale(a0, w)))
    return RelationSolution(c0_elem=c0_elem, v0_elem=v0_elem,
                            restricted=ideal is not None)


def relation_residual(alg: LieAlgebra, sol: RelationSolution, omega0: dict,
                      n_star: int) -> dict:
    lhs = alg.el_add(
        alg.el_sub(g0_apply(alg, alg.el_sigma(sol.c0_elem, 1)), sol.c0_elem),
        f0_apply(alg, sol.v0_elem))
    return alg.el_sub(lhs, alg.el_sigma(omega0, n_star % alg.n0))


def omega0_element(alg: LieAlgebra, aut: AutSpec, depth: int) -> dict:
    """sum_j A_j * (generator element at c0 + p j, given depth)."""
    f = alg.field
    acc = alg.zero()
    for j, aj in enumerate(aut.eps_coeffs()):
        if f.is_zero(aj):
            continue
        el = ram_generator(alg, Fraction(alg.c0 + alg.p * j), depth)
        if el:
            acc = alg.el_add(acc, alg.el_scale(aj, el))
    return acc


def arithmetical_c1_zero(alg: LieAlgebra, aut: AutSpec, n_star: int,
                         c0_elem: dict) -> dict:
    """c1(0) = c0_elem + sum_{j, 0<=i<N*} sigma^i(A_j F(c0+pj, depth i))."""
    f = alg.field
    acc = dict(c0_elem)
    for i in range(n_star):
        for j, aj in enumerate(aut.eps_coeffs()):
            if f.is_zero(aj):
                continue
            el = ram_generator(alg, Fraction(alg.c0 + alg.p * j), i)
            if el:
                acc = alg.el_add(acc, alg.el_sigma(alg.el_scale(aj, el), i))
    return acc


def is_arithmetical(alg: LieAlgebra, ideal_c0: IdealBasis, c1_zero: dict,
                    aut: AutSpec, depth_n: int) -> bool:
    """Criterion on the t^0 part: c1(0) matches the depth sum of the
    ramification generators at the exponents c0 + p j, modulo the
    ramification ideal at c0."""
    f = alg.field
    rhs = alg.zero()
    for i in range(depth_n):
        for j, aj in enumerate(aut.eps_coeffs()):
            if f.is_zero(aj):
                continue
            el = ram_generator(alg, Fraction(alg.c0 + alg.p * j), i)
            if el:
                rhs = alg.el_add(rhs, alg.el_sigma(alg.el_scale(aj, el), i))
    diff = alg.el_sub(c1_zero, rhs)
    return ideal_c0.contains_elem(alg, diff)


# -- commutator filtration surrogate ------------------------------------------------------

def commutator_filtration_check(sctx: SeriesCtx, full: FullLift) -> bool:
    """The ideal generated by [L(s), L] together with the twisted-difference
    elements A(l) o (-l), l in L(s), reproduces the weight ideal at s+1 on
    the truncated algebra (checked for every s below p-1)."""
    from .freelie import minimal_sigma_ideal, monomial_ideal
    alg = sctx.alg
    for s in range(1, alg.p - 1):
        gens = []
        words_s = [i for i in range(alg.num_words()) if alg.wt[i] >= s]
        for i in words_s:
            if alg.wt[i] != s:
                continue
            l = {i: alg.field.one}
            gens.append(ch_mul(alg, full.a_apply(alg, l), alg.el_neg(l)))
        for i in words_s:
            for g in alg.gen_ids.values():
                br = alg.el_bracket({i: alg.field.one}, {g: alg.field.one})
                if br:
                    gens.append(br)
        ideal = minimal_sigma_ideal(alg, gens)
        target = monomial_ideal(alg, lambda i: alg.wt[i] >= s + 1)
        if not ideal.space.same_space(target.space):
            return False
    return True
