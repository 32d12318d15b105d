"""The three p = 5 workloads: set-up, input drawing, the timed op and its
correctness oracle.

Each workload is a closed loop with one client: the next op starts only
when the previous one has finished.  `chram` is imported inside the set-up
so that its import time counts in `setup_s`.
"""

from __future__ import annotations

import math
import os
import random
import sys
import time
from fractions import Fraction

SRC = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   "..", "src"))

# Dimension of the ramification ideal at each threshold of the ideal_p5
# grid (p = 5, c0 = 5, a_max = 10, n0 = 1, depth 0), recorded at the commit
# that introduced this benchmark.
IDEAL_DIMS = {5: 1741, 6: 1711, 7: 1573, 8: 1378, 9: 1112, 10: 705,
              11: 631, 12: 556, 13: 480, 14: 405, 15: 328, 16: 250,
              17: 171, 18: 90, 19: 81, 20: 72}


def _import_chram():
    if not os.path.isdir(os.path.join(SRC, "chram")):
        raise SystemExit(f"no chram sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from chram import bch, gf, freelie, lifts, ramgen, series
    return bch, gf, freelie, lifts, ramgen, series


class Workload:
    """One workload bound to a seed.  `cycle` ops form one balanced draw of
    the input space; a run always measures whole cycles."""

    name = ""
    config: dict = {}
    cycle = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.bch, self.gf, self.freelie, self.lifts, self.ramgen, \
            self.series = _import_chram()
        t0 = time.perf_counter()
        self.bch.bch_table(5)
        self.bch_table_s = time.perf_counter() - t0

    def draw(self):
        raise NotImplementedError

    def op(self, inputs):
        raise NotImplementedError

    def check(self, inputs, out) -> bool:
        raise NotImplementedError

    def algebra(self, out):
        """The LieAlgebra the op worked in (for the memo and basis gauges)."""
        raise NotImplementedError


class ChLaw(Workload):
    """Acceptance criterion 01's algebra.  One long-lived algebra; each op
    takes a triple and computes (x o y) o z, x o (y o z), x o (-x).  The
    triples are a seeded pool of POOL, cycled, so the memos fill during the
    first pass and then mostly hit, and memory stops growing with run
    length.  The oracle works in an algebra of its own, so the timed
    algebra holds only what bch.ch_mul puts in it."""

    name = "ch_law_p5"
    config = {"p": 5, "c0": 5, "a_max": 19, "n0": 1, "depth": None}
    POOL = 32

    def __init__(self, seed: int):
        super().__init__(seed)
        field = self.gf.FieldCtx(5, 1)
        self.alg = self.freelie.LieAlgebra(field, c0=5, a_max=19)
        self.oracle = self.freelie.LieAlgebra(field, c0=5, a_max=19)
        gens = sorted(self.alg.gen_ids.values())
        self.pool = [self._triple(gens) for _ in range(self.POOL)]
        self.cycle = self.POOL
        self.next = 0
        self.op(self.pool[0])  # untimed warm-up

    def _triple(self, gens):
        # Each element is c g + c' [g', g''] over nine distinct generators
        # and nonzero coefficients.  Relabelling generators and rescaling
        # them are automorphisms of the free algebra, so every triple does
        # the same work up to memo warmth; free draws (rand_elem) differ
        # 100-fold in cost with the number of distinct letters.
        alg, rng = self.alg, self.rng
        g = rng.sample(gens, 9)
        one = alg.field.one
        out = []
        for i in range(3):
            a, b, c = g[3 * i: 3 * i + 3]
            br = alg.el_bracket({b: one}, {c: one})
            x = alg.el_add(alg.el_scale((rng.randrange(1, 5),), {a: one}),
                           alg.el_scale((rng.randrange(1, 5),), br))
            out.append(x)
        return tuple(out)

    def draw(self):
        triple = self.pool[self.next % self.POOL]
        self.next += 1
        return triple

    def op(self, inputs):
        alg, ch = self.alg, self.bch.ch_mul
        x, y, z = inputs
        left = ch(alg, ch(alg, x, y), z)
        right = ch(alg, x, ch(alg, y, z))
        inv = ch(alg, x, alg.el_neg(x))
        return left, right, inv

    def _mirror(self, x):
        """x rebuilt in the oracle's algebra from its Hall trees."""
        return self.oracle.elem_from_json(self.alg.elem_to_json(x))

    def _ch_order4(self, x, y):
        # x + y + 1/2[x,y] + 1/12[x,[x,y]] - 1/12[y,[x,y]] - 1/24[y,[x,[x,y]]],
        # exact at p = 5: every bracket of five elements vanishes.
        alg = self.oracle
        br = alg.el_bracket
        xy = br(x, y)
        xxy = br(x, xy)
        terms = ((2, xy), (12, xxy), (-12, br(y, xy)), (-24, br(y, xxy)))
        out = alg.el_add(x, y)
        for den, t in terms:
            out = alg.el_add(out, alg.el_scale_int(pow(den, -1, 5), t))
        return out

    def check(self, inputs, out) -> bool:
        x, y, z = (self._mirror(e) for e in inputs)
        left, right, inv = out
        want = self._ch_order4(self._ch_order4(x, y), z)
        return left == right and inv == {} and self._mirror(left) == want

    def algebra(self, out):
        return self.alg


class Ideal(Workload):
    """ramification_ideal(alg, v, 0) on a fresh algebra per op, as a CLI
    `ideal` run pays it.  One cycle is the whole threshold grid in
    [c0, 4 c0], in a seeded order."""

    name = "ideal_p5"
    config = {"p": 5, "c0": 5, "a_max": 10, "n0": 1, "depth": 0}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.field = self.gf.FieldCtx(5, 1)
        grid = self.ramgen.gamma_grid(5, 10, 0, Fraction(20))
        self.grid = [v for v in grid if v >= 5]
        self.cycle = len(self.grid)
        self.pending: list = []

    def draw(self):
        if not self.pending:
            self.pending = list(self.grid)
            self.rng.shuffle(self.pending)
        return self.pending.pop()

    def op(self, v):
        alg = self.freelie.LieAlgebra(self.field, c0=5, a_max=10)
        return alg, self.ramgen.ramification_ideal(alg, v, 0)

    def check(self, v, out) -> bool:
        alg, ideal = out
        if ideal.dim != IDEAL_DIMS.get(int(v)):
            return False
        if not all(ideal.contains_elem(alg, x)
                   for x in self._generators(alg, v)):
            return False
        f = alg.field
        scalars = [tuple(int(i == j) for i in range(f.n0))
                   for j in range(1, f.n0)]
        gens = [alg.gen_elem(lab) for lab in alg.gen_ids]
        for row in ideal.space.rows():
            x = alg.unflatten(row)
            images = [alg.el_sigma(x, 1)]
            images += [alg.el_scale(w, x) for w in scalars]
            images += [alg.el_bracket(x, g) for g in gens]
            if not all(ideal.contains_elem(alg, y) for y in images):
                return False
        return True

    def _generators(self, alg, v):
        """The generator elements with gamma >= v at depth 0, rebuilt term
        by term without ram_generator_family: the sum over compositions
        gamma = a_1 + ... + a_s (s < p; a_1 prime to p and below a_max, the
        later a_i also 0) of a_1 / s! [..[D_a1, D_a2], .., D_as], where
        D_a = g_(a,0) and D_0 = alpha0 D0."""
        f, p = alg.field, alg.p
        letters = {a: alg.gen_elem(("g", a, 0))
                   for a in range(1, alg.a_max) if a % p}
        level = [((a,), x) for a, x in letters.items()]
        letters[0] = alg.gen_elem(self.freelie.D0, f.alpha0())
        out: dict = {}
        for s in range(1, p):
            coeff = pow(math.factorial(s), -1, p)
            nxt = []
            for seq, x in level:
                gamma = sum(seq)
                if gamma >= v:
                    out[gamma] = alg.el_add(
                        out.get(gamma, {}),
                        alg.el_scale_int(seq[0] * coeff, x))
                if s < p - 1:
                    for a, d in letters.items():
                        y = alg.el_bracket(x, d)
                        if y:
                            nxt.append((seq + (a,), y))
            level = nxt
        return [x for x in out.values() if x]

    def algebra(self, out):
        return out[0]


class Lift(Workload):
    """solve_linearized then solve_lift on a fresh algebra per op, for a
    seeded automorphism h(t) = t(1 + a0 t^c0 + a1 t^(c0+p))."""

    name = "lift_p5_n2"
    config = {"p": 5, "c0": 5, "a_max": 6, "n0": 2, "depth": None}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.field = self.gf.FieldCtx(5, 2)

    def draw(self):
        f, rng = self.field, self.rng
        a0 = f.zero
        while a0 == f.zero:
            a0 = f.rand(rng)
        return (a0, f.rand(rng))

    def op(self, alphas):
        alg = self.freelie.LieAlgebra(self.field, c0=5, a_max=6)
        sctx = self.series.SeriesCtx(alg)
        aut = self.series.AutSpec(self.field, 5, alphas)
        lin = self.lifts.solve_linearized(sctx, aut)
        full = self.lifts.solve_lift(sctx, aut)
        return sctx, aut, lin, full

    def check(self, alphas, out) -> bool:
        sctx, aut, lin, full = out
        lifts = self.lifts
        he = sctx.substitute(sctx.seed(), aut)
        lhs = sctx.ch(he, full.c)
        rhs = sctx.ch(sctx.sigma(full.c, 1),
                      lifts.automorphism_image_series(sctx, full))
        r0, r1 = lifts.lin_first_order_residual(sctx, aut, lin)
        return (lhs == rhs and not r0 and not r1
                and lifts.generator_shift_check(sctx, aut, full))

    def routes_agree(self, out) -> bool:
        sctx, aut, lin, full = out
        return self.lifts.lifts_agree(sctx, lin, full, aut)

    def algebra(self, out):
        return out[0].alg


WORKLOADS = {w.name: w for w in (ChLaw, Ideal, Lift)}
