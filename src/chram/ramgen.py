"""Ramification generators, ramification ideals, the exponent grid, parameter
selection, Herbrand functions, and the mixed-characteristic summary.

A ramification generator for the exponent gamma at depth N is the sum over
all compositions gamma = a_1 p^{n_1} + ... + a_s p^{n_s} (a_i in Z^0(p),
0 = n_1 >= ... >= n_s >= -N, s < p) of

    a_1 * profile_coefficient(n_1..n_s) * [..[D_{a_1 n_1}, D_{a_2 n_2}], .., D_{a_s n_s}]

with indices read mod n0 and D_{0,n} = sigma^n(alpha0) D0.  The minimal
sigma-stable ideal containing the generators with gamma >= v is the
ramification ideal at v (within the generator truncation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .freelie import LieAlgebra, IdealBasis, minimal_sigma_ideal, D0


# -- profile coefficient ---------------------------------------------------------

def profile_coefficient(p: int, ns: tuple) -> int:
    """Product of inverse factorials of the run lengths of the depth profile
    n_1 >= n_2 >= ... (mod p); zero unless the profile starts at 0 and is
    nonincreasing."""
    if len(ns) >= p:
        raise ValueError("profile length must stay below p")
    if not ns or ns[0] != 0:
        return 0
    if any(ns[i] < ns[i + 1] for i in range(len(ns) - 1)):
        return 0
    out = 1
    run = 1
    for i in range(1, len(ns)):
        if ns[i] == ns[i - 1]:
            run += 1
        else:
            out = (out * _inv_fact(run, p)) % p
            run = 1
    out = (out * _inv_fact(run, p)) % p
    return out


def _inv_fact(r: int, p: int) -> int:
    f = 1
    for j in range(2, r + 1):
        f = (f * j) % p
    return pow(f, p - 2, p)


# -- ramification generators -------------------------------------------------------

def ram_generator(alg: LieAlgebra, gamma: Fraction | int, depth: int,
                  weight_cap: int | None = None) -> dict:
    """The generator element for `gamma` at the given depth (0 means only
    depth-0 indices).  Returns 0 when gamma has no admissible composition.
    `weight_cap` drops all terms of weight >= cap early (projection mod the
    corresponding weight ideal)."""
    fam = ram_generator_family(alg, depth, Fraction(gamma), weight_cap,
                               only=Fraction(gamma))
    return fam.get(Fraction(gamma), {})


def ram_generator_family(alg: LieAlgebra, depth: int, gamma_max: Fraction,
                         weight_cap: int | None = None,
                         only: Fraction | None = None,
                         gamma_min: Fraction | None = None) -> dict:
    """All generator elements with 0 < gamma <= gamma_max at once, as a map
    Fraction -> LieElem.  One recursive sweep over compositions; `gamma_min`
    prunes branches that cannot reach it."""
    f = alg.field
    p = alg.p
    scale = p ** depth
    target_num = None if only is None else only * scale
    if target_num is not None and target_num.denominator != 1:
        return {}
    max_num = int(gamma_max * scale)
    min_num = None
    if gamma_min is not None and gamma_min > 0:
        mn = gamma_min * scale
        min_num = int(mn) if mn.denominator == 1 else int(mn) + 1
    a_top = max((a for a in range(1, alg.a_max) if a % p), default=0)
    a_vals = [a for a in range(1, alg.a_max) if a % p]
    out: dict = {}

    def emit(gamma_num: int, elem: dict, lead_a: int):
        g = Fraction(gamma_num, scale)
        coeff = f.from_int(lead_a)
        piece = alg.el_scale(coeff, elem)
        if piece:
            out[g] = alg.el_add(out.get(g, {}), piece)

    def extend(elem: dict, gamma_num: int, s: int, level: int, run_len: int,
               lead_a: int, profile_inv: int):
        # elem: bracket built so far; level: current depth n_s <= 0; run_len:
        # length of the current equal-depth run (for the profile coefficient)
        emit_coeff = (profile_inv * _inv_fact(run_len, p)) % p
        if emit_coeff and (target_num is None or gamma_num == target_num) \
                and (min_num is None or gamma_num >= min_num):
            emit(gamma_num, alg.el_scale_int(emit_coeff, elem), lead_a)
        if s >= p - 1:
            return
        if min_num is not None:
            reach = gamma_num + (p - 1 - s) * a_top * p ** (depth + level)
            if reach < min_num:
                return
        # continue at the same depth or move deeper
        for nxt_level in range(level, -depth - 1, -1):
            if nxt_level == level:
                nxt_profile = profile_inv
                nxt_run = run_len + 1
            else:
                nxt_profile = (profile_inv * _inv_fact(run_len, p)) % p
                nxt_run = 1
            pw = p ** (depth + nxt_level)  # p^{n} * scale
            nbar = nxt_level % alg.n0
            # a = 0 factor
            d0_elem = alg.gen_elem(D0, f.frob(f.alpha0(), nbar))
            nxt = alg.el_bracket(elem, d0_elem)
            if weight_cap is not None:
                nxt = {i: c for i, c in nxt.items() if alg.wt[i] < weight_cap}
            if nxt:
                extend(nxt, gamma_num, s + 1, nxt_level, nxt_run, lead_a, nxt_profile)
            for a in a_vals:
                add = a * pw
                if gamma_num + add > max_num:
                    break
                if target_num is not None and gamma_num + add > target_num:
                    break
                gen = alg.gen_elem(("g", a, nbar))
                nxt = alg.el_bracket(elem, gen)
                if weight_cap is not None:
                    nxt = {i: c for i, c in nxt.items() if alg.wt[i] < weight_cap}
                if not nxt:
                    continue
                extend(nxt, gamma_num + add, s + 1, nxt_level, nxt_run,
                       lead_a, nxt_profile)

    for a1 in a_vals:
        start = a1 * scale
        if start > max_num:
            break
        if target_num is not None and start > target_num:
            break
        extend({alg.gen_ids[("g", a1, 0)]: f.one}, start, 1, 0, 1, a1, 1)
    del extend  # a self-referencing closure would keep alg alive until gc
    return {g: x for g, x in out.items() if x}


# -- the exponent grid ---------------------------------------------------------------

def gamma_grid(p: int, a_max: int, depth: int, gamma_max: Fraction,
               a_bound: int | None = None) -> list[Fraction]:
    """All values a_1 p^{n_1} + ... + a_s p^{n_s} <= gamma_max with s < p,
    a_i in the zero-extended prime-to-p range below a_bound (default a_max),
    0 = n_1 >= ... >= -depth.  Zero parts contribute no value but a leading
    zero releases the depth anchor (at the cost of one slot), so sums of up
    to p-2 parts may start below level 0."""
    bound = a_bound or a_max
    a_vals = [a for a in range(1, bound) if a % p]
    scale = p ** depth
    max_num = int(gamma_max * scale)
    seen: set = set()

    def extend(gamma_num: int, s: int, level: int, budget: int):
        seen.add(gamma_num)
        if s >= budget:
            return
        for nxt in range(level, -depth - 1, -1):
            pw = p ** (depth + nxt)
            for a in a_vals:
                add = a * pw
                if gamma_num + add > max_num:
                    break
                extend(gamma_num + add, s + 1, nxt, budget)

    for a1 in a_vals:
        if a1 * scale <= max_num:
            extend(a1 * scale, 1, 0, p - 1)
    if p >= 3:
        for start in range(-1, -depth - 1, -1):
            pw = p ** (depth + start)
            for a1 in a_vals:
                if a1 * pw <= max_num:
                    extend(a1 * pw, 1, start, p - 2)
    return sorted(Fraction(g, scale) for g in seen)


def gamma_witness(p: int, a_max: int, depth: int, gamma: Fraction,
                  a_bound: int | None = None):
    """One composition [(a_i, n_i), ...] realising gamma on the grid, or
    None.  Leading zero parts are materialised explicitly."""
    bound = a_bound or a_max
    a_vals = [a for a in range(1, bound) if a % p]
    scale = p ** depth
    target = gamma * scale
    if target.denominator != 1:
        return None
    target = int(target)

    def search(remaining: int, s: int, level: int, acc: tuple):
        if remaining == 0:
            return acc
        if s >= p - 1:
            return None
        for nxt in range(level, -depth - 1, -1):
            pw = p ** (depth + nxt)
            for a in a_vals:
                add = a * pw
                if add > remaining:
                    break
                got = search(remaining - add, s + 1, nxt, acc + ((a, nxt),))
                if got is not None:
                    return got
        return None

    # anchored: first part at level 0
    for a1 in a_vals:
        if a1 * scale > target:
            break
        got = search(target - a1 * scale, 1, 0, ((a1, 0),))
        if got is not None:
            return got
    # zero-led: the zero consumes the anchor slot
    for start in range(-1, -depth - 1, -1):
        got = search(target, 1, start, ((0, 0),))
        if got is not None:
            return got
    return None


# -- ramification ideals ---------------------------------------------------------------

def ramification_ideal(alg: LieAlgebra, v: Fraction | int, depth: int) -> IdealBasis:
    """Minimal sigma-stable ideal whose scalar extension contains every
    generator element with gamma >= v, within the a < a_max truncation.
    Every gamma with a potentially nonzero generator element is swept:
    a composition of s < p parts below a_max is bounded by (p-1)(a_max-1)."""
    v = Fraction(v)
    gamma_max = Fraction((alg.p - 1) * (alg.a_max - 1))
    fam = ram_generator_family(alg, depth, gamma_max)
    gens = [x for g, x in sorted(fam.items()) if g >= v]
    return minimal_sigma_ideal(alg, gens)


def ideal_in_weight_ideal(alg: LieAlgebra, v: Fraction | int, depth: int,
                          s: int) -> bool:
    """Whether the ramification ideal at v sits inside the weight ideal at
    s.  The weight ideal is stable under every closure operation, so this
    holds iff every generator element lies in it; no row reduction needed.
    A term over gamma has weight >= gamma/c0, so generators above (s-1) c0
    lie inside automatically and the sweep stops there."""
    v = Fraction(v)
    gamma_max = Fraction((s - 1) * alg.c0)
    if v > gamma_max:
        return True
    fam = ram_generator_family(alg, depth, gamma_max)
    for g, x in fam.items():
        if g >= v and any(alg.wt[i] < s for i in x):
            return False
    return True


def max_ram_number(alg: LieAlgebra, s: int, depth: int) -> Fraction:
    """Largest v on the exponent grid whose ramification ideal is NOT inside
    the weight ideal at s+1.  Since the ideal at v is generated by the
    elements with gamma >= v and the weight ideal absorbs every closure
    step, this is the largest gamma whose generator element keeps a term of
    weight <= s; one sweep of the family suffices (terms over gamma have
    weight >= gamma/c0, so the sweep stops at s*c0)."""
    gamma_max = Fraction(s * alg.c0)
    fam = ram_generator_family(alg, depth, gamma_max)
    best = None
    for g, x in fam.items():
        if any(alg.wt[i] <= s for i in x) and (best is None or g > best):
            best = g
    if best is None:
        raise RuntimeError("no generator element escapes the weight ideal")
    return best


def top_weight_containment(alg: LieAlgebra, depth: int) -> bool:
    """Every generator of weight s lies in (ramification ideal at c0) +
    (degree >= s commutators), within the truncation.  Needs the generator
    range extended to p*c0 to exercise the top weights."""
    from .freelie import member_mod_monomial
    ideal = ramification_ideal(alg, Fraction(alg.c0), depth)
    for a in range(1, alg.a_max):
        if a % alg.p == 0:
            continue
        for n in range(alg.n0):
            s = a // alg.c0 + 1
            gen = alg.gen_elem(("g", a, n))
            if not member_mod_monomial(alg, gen, ideal,
                                       lambda i: alg.deg[i] < s):
                return False
    return True


def stabilization_depth(alg: LieAlgebra, v: Fraction | int, start: int = 0,
                        max_depth: int = 8) -> int:
    """Smallest depth at which the ramification ideal at v stops changing
    (checked against the next two depths)."""
    prev = ramification_ideal(alg, v, start)
    depth = start
    stable_for = 0
    while depth < max_depth:
        nxt = ramification_ideal(alg, v, depth + 1)
        if nxt.space.same_space(prev.space):
            stable_for += 1
            if stable_for >= 2:
                return depth - stable_for + 1
        else:
            stable_for = 0
        prev = nxt
        depth += 1
    return depth


# -- parameter selection -----------------------------------------------------------------

@dataclass
class ParamChoice:
    v0: Fraction
    delta: Fraction
    r_star: Fraction
    n_star: int
    q: int
    b_star: int
    a_star: int
    n_tilde: int
    phi_bound: Fraction  # computable upper bound used in the last inequality


def choose_parameters(alg: LieAlgebra, v0: Fraction | int,
                      depth_hint: int | None = None) -> ParamChoice:
    """Deterministic smallest admissible (delta, r*, N*, q, b*, a*):

    * v0 - delta exceeds every grid value below v0, p*delta < 2*v0, and
      v0 - delta has p-power denominator (smallest such denominator, then
      smallest delta);
    * r* = b*/(q-1) with v0 - delta < r* < v0 and b* prime to p;
    * q = p^N* with N* > stabilization depth and q (v0 - delta) in pN;
    * the two closing inequalities hold, with the Herbrand value of the
      fixed field bounded through the index of the ramification ideal.
    """
    p = alg.p
    v0 = Fraction(v0)
    n_tilde = depth_hint if depth_hint is not None else \
        stabilization_depth(alg, v0)
    a_bound = int(p * v0) + 1  # the exponent set is [0, p v0), untruncated
    grid = gamma_grid(p, alg.a_max, max(n_tilde, 2) + 2, v0, a_bound=a_bound)
    below = [g for g in grid if g < v0]
    gamma_below = max(below) if below else Fraction(0)

    # delta: scan denominators p^j, then numerators downward from v0
    delta = None
    for j in range(0, 24):
        den = p ** j
        lo = max(gamma_below, v0 - Fraction(2 * v0, p))
        m_hi = (v0 * den - 1) if (v0 * den).denominator == 1 else (v0 * den)
        m_hi = int(m_hi)
        m_lo_frac = lo * den
        m_lo = int(m_lo_frac) + 1
        if m_hi >= m_lo:
            target = Fraction(m_hi, den)  # largest v0 - delta, so smallest delta
            delta = v0 - target
            break
    if delta is None:
        raise RuntimeError("no admissible delta found")

    # bound for the Herbrand value: index of the ramification ideal at v0
    ideal = ramification_ideal(alg, v0, max(n_tilde, 1))
    codim = alg.num_words() * alg.n0 - ideal.dim
    phi_bound = Fraction(p ** codim * alg.c0 * (p - 1))

    vd = v0 - delta
    n_star = max(n_tilde + 1, 1)
    while True:
        q = p ** n_star
        a_star_frac = q * vd
        if a_star_frac.denominator == 1 and int(a_star_frac) % p == 0:
            lo = vd * (q - 1)
            hi = v0 * (q - 1)
            b = int(lo) + 1
            while Fraction(b) < hi:
                if b % p and vd < Fraction(b, q - 1) < v0:
                    r_star = Fraction(b, q - 1)
                    ineq1 = (r_star - vd) > Fraction(r_star + p * vd, q)
                    ineq2 = (v0 - r_star) > Fraction(-r_star + phi_bound, q)
                    if ineq1 and ineq2:
                        return ParamChoice(v0=v0, delta=delta, r_star=r_star,
                                           n_star=n_star, q=q, b_star=b,
                                           a_star=int(a_star_frac),
                                           n_tilde=n_tilde, phi_bound=phi_bound)
                b += 1
        n_star += 1
        if n_star > 60:
            raise RuntimeError("parameter search exceeded N* = 60")


def parameters_still_valid(alg: LieAlgebra, pc: ParamChoice, n_star: int) -> bool:
    """Replay the constraints for the same delta with a different N*."""
    p = alg.p
    q = p ** n_star
    vd = pc.v0 - pc.delta
    a_star = q * vd
    if a_star.denominator != 1 or int(a_star) % p:
        return False
    b_star = pc.r_star * (q - 1)
    if b_star.denominator != 1 or int(b_star) % p == 0:
        return False
    if not (vd < pc.r_star < pc.v0):
        return False
    ineq1 = (pc.r_star - vd) > Fraction(pc.r_star + p * vd, q)
    ineq2 = (pc.v0 - pc.r_star) > Fraction(-pc.r_star + pc.phi_bound, q)
    return ineq1 and ineq2


# -- Herbrand functions ---------------------------------------------------------------

@dataclass(frozen=True)
class HerbrandFn:
    """Piecewise-linear continuous strictly increasing function through
    (0,0): vertices [(x_i, y_i)] with increasing coordinates, plus the slope
    after the last vertex.  Extension functions have nonincreasing slopes
    (`has_extension_slopes`); their inverses, which this class must also
    represent, have nondecreasing ones."""
    vertices: tuple
    final_slope: Fraction

    def __post_init__(self):
        pts = [(Fraction(0), Fraction(0))] + [tuple(map(Fraction, v))
                                              for v in self.vertices]
        if self.final_slope <= 0:
            raise ValueError("final slope must be positive")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x1 <= x0 or y1 <= y0:
                raise ValueError("vertices must strictly increase")

    def has_extension_slopes(self) -> bool:
        pts = [(Fraction(0), Fraction(0))] + list(self.vertices)
        slopes = [(y1 - y0) / (x1 - x0)
                  for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
        slopes.append(Fraction(self.final_slope))
        return all(s1 >= s2 for s1, s2 in zip(slopes, slopes[1:]))

    @staticmethod
    def identity() -> "HerbrandFn":
        return HerbrandFn(vertices=(), final_slope=Fraction(1))

    def eval_at(self, x: Fraction | int) -> Fraction:
        x = Fraction(x)
        pts = [(Fraction(0), Fraction(0))] + list(self.vertices)
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x <= x1:
                return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
        x0, y0 = pts[-1]
        return y0 + (x - x0) * self.final_slope

    def inverse(self) -> "HerbrandFn":
        return HerbrandFn(vertices=tuple((y, x) for x, y in self.vertices),
                          final_slope=1 / self.final_slope)

    def compose(self, inner: "HerbrandFn") -> "HerbrandFn":
        """(self o inner)(x) = self(inner(x))."""
        xs = {Fraction(x) for x, _ in inner.vertices}
        for x, _ in self.vertices:
            xs.add(inner.inverse().eval_at(x))
        out = []
        for x in sorted(xs):
            if x > 0:
                out.append((x, self.eval_at(inner.eval_at(x))))
        probe = (max((x for x, _ in out), default=Fraction(0))) + 1
        y_probe = self.eval_at(inner.eval_at(probe))
        last = out[-1] if out else (Fraction(0), Fraction(0))
        final = (y_probe - last[1]) / (probe - last[0])
        return HerbrandFn(vertices=tuple(out), final_slope=final)

    def to_json(self) -> dict:
        return {"vertices": [[str(x), str(y)] for x, y in self.vertices],
                "final_slope": str(self.final_slope)}


def cyclotomic_translation(c0: int, v: Fraction | int, p: int) -> Fraction:
    """Upper-numbering translation across the degree-p base step: values
    above c0 move by v* = c0 + p(v - c0); at or below c0 they are fixed."""
    v = Fraction(v)
    if v <= c0:
        return v
    return c0 + p * (v - c0)


def base_step_herbrand(c0: int, p: int) -> HerbrandFn:
    """Herbrand function with single vertex (c0, c0) and final slope 1/p."""
    return HerbrandFn(vertices=((Fraction(c0), Fraction(c0)),),
                      final_slope=Fraction(1, p))


# -- mixed-characteristic summary --------------------------------------------------------

def mixed_char_summary(p: int, e_k: int, n0: int) -> dict:
    """Largest upper ramification numbers of the class-bounded extensions of
    a p-adic base field with ramification index e_k and residue degree n0,
    plus the generator count of its class-<p period-p Galois group."""
    if p <= 2:
        raise ValueError("p must be an odd prime > 2")
    if e_k <= 0 or e_k % (p - 1):
        raise ValueError(
            "e_K must be a positive multiple of p-1 (the base field must "
            "contain a primitive p-th root of unity)")
    c0 = Fraction(e_k * p, p - 1)
    assert c0.denominator == 1
    c0 = int(c0)
    v = {1: Fraction(c0)}
    for s in range(2, p):
        v[s] = Fraction(e_k) * (1 + Fraction(s, p - 1)) - Fraction(1, p)
    return {
        "p": p, "e_K": e_k, "N0": n0,
        "c0": c0,
        "generators": e_k * n0 + 2,
        "v": v,
    }
