"""Named verification suites.

Each suite replays one family of desk-scale-checkable statements and
returns (passed, detail lines).  The CLI `verify` command and the
acceptance tests share these implementations.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .gf import FieldCtx
from .freelie import LieAlgebra, witt_dimension
from . import bch
from .series import SeriesCtx, AutSpec
from . import ramgen
from . import lifts
from .config import RunConfig, build_field, build_algebra, build_series, build_aut


def _rand_aut(fieldctx: FieldCtx, c0: int, rng, n_terms: int = 2) -> AutSpec:
    while True:
        alphas = [fieldctx.rand(rng) for _ in range(n_terms)]
        if not fieldctx.is_zero(alphas[0]):
            return AutSpec(fieldctx, c0, tuple(alphas))


# -- suites ---------------------------------------------------------------------


def check_witt_dims(cfg: RunConfig) -> tuple:
    lines = []
    ok = True
    for q in range(1, 7):
        k = FieldCtx(7, 1)
        alg = LieAlgebra(k, synthetic_gens=[(str(i), 1) for i in range(q)])
        dims = alg.eager_build(6)
        want = [witt_dimension(q, n) for n in range(1, 7)]
        good = dims == want
        ok = ok and good
        lines.append(f"q={q}: dims {dims} vs witt {want}: {good}")
    return ok, lines


def check_ch_laws(cfg: RunConfig, trials: int = 200) -> tuple:
    """Associativity and inverses of the CH product, plus its Hall-table
    evaluation agreeing with log(exp x exp y) in the PBW basis."""
    rng = random.Random(cfg.seed)
    alg = build_algebra(cfg)
    t0 = time.time()
    ok = True
    for t in range(trials):
        x, y, z = (alg.rand_elem(rng, 3) for _ in range(3))
        lhs = bch.ch_mul(alg, bch.ch_mul(alg, x, y), z)
        rhs = bch.ch_mul(alg, x, bch.ch_mul(alg, y, z))
        if lhs != rhs or bch.ch_mul(alg, x, alg.el_neg(x)) != {}:
            ok = False
            break
    for t in range(min(trials, 50)):
        x, y = alg.rand_elem(rng, 2), alg.rand_elem(rng, 2)
        if bch.ch_mul(alg, x, y) != bch._ch_pbw(alg, x, y):
            ok = False
            break
    dt = time.time() - t0
    return ok, [f"{trials} associativity/inverse trials at p={cfg.p}, "
                f"a_max={cfg.a_max_eff} in {dt:.1f}s"]


def check_rs_split(cfg: RunConfig, trials: int = 500) -> tuple:
    """b = r(b) + (sigma - id) s(b) exactly within the policy window."""
    rng = random.Random(cfg.seed)
    sctx = build_series(cfg)
    for t in range(trials):
        b = sctx.rand_series(rng, 4)
        r, s = sctx.r_op(b), sctx.s_op(b)
        if sctx.add(r, sctx.sub(sctx.sigma(s, 1), s)) != b:
            return False, [f"splitting identity failed at trial {t}"]
    return True, [f"{trials} random series at p={cfg.p}, n0={cfg.n0}"]


def check_ram_numbers(cfg: RunConfig, depth: int = 2) -> tuple:
    lines = []
    ok = True
    alg = build_algebra(cfg)
    for s in (1, 2):
        got = ramgen.max_ram_number(alg, s, depth)
        want = Fraction(cfg.c0 * s - 1)
        good = got == want
        ok = ok and good
        lines.append(f"p={cfg.p}: v[{s}] = {got} (expect {want}): {good}")
    return ok, lines


def check_closed_form_ad(cfg: RunConfig) -> tuple:
    """Adjoint images from the degree solver against the generator-element
    closed forms, below weight 3."""
    f = build_field(cfg)
    alg = build_algebra(cfg, f)
    sctx = SeriesCtx(alg, cfg.policy)
    aut = build_aut(cfg, f)
    lin = lifts.solve_linearized(sctx, aut)
    lines = []
    ok = True
    for a in range(1, alg.a_max):
        if a % cfg.p == 0:
            continue
        got = lifts.project_below_weight(alg, lin.ad_images.get(a, {}), 3)
        want = lifts.project_below_weight(
            alg, lifts.closed_form_ad_image(sctx, aut, a), 3)
        if got != want:
            ok = False
            lines.append(f"a={a}: closed form mismatch")
    d_got = lifts.project_below_weight(alg, lin.ad_d0, 3)
    d_want = lifts.project_below_weight(alg, lifts.closed_form_ad_d0(sctx, aut), 3)
    if d_got != d_want:
        ok = False
        lines.append("ad(D0) closed form mismatch")
    lines.append(f"p={cfg.p}, n0={cfg.n0}: all adjoint images match below weight 3: {ok}")
    return ok, lines


def check_gen_shift(cfg: RunConfig, trials: int = 3) -> tuple:
    """Congruence for the automorphism images of the generators, random
    coefficient data with alphas[0] != 0."""
    rng = random.Random(cfg.seed)
    f = build_field(cfg)
    alg = build_algebra(cfg, f)
    sctx = SeriesCtx(alg, cfg.policy)
    for t in range(trials):
        aut = _rand_aut(f, cfg.c0, rng)
        full = lifts.solve_lift(sctx, aut)
        if not lifts.generator_shift_check(sctx, aut, full):
            return False, [f"trial {t}: congruence failed"]
    return True, [f"{trials} random automorphisms at p={cfg.p}"]


def check_c1_plus(cfg: RunConfig, n_big: int = 4) -> tuple:
    f = build_field(cfg)
    alg = build_algebra(cfg, f)
    sctx = SeriesCtx(alg, cfg.policy)
    aut = build_aut(cfg, f)
    lin = lifts.solve_linearized(sctx, aut)
    _, _, plus = lin.c1_split(sctx)
    formula = lifts.c1_plus_formula(sctx, aut, n_big)
    ok = formula == plus
    return ok, [f"p={cfg.p}: positive part matches the depth-{n_big} formula: {ok}"]


def check_relation_equation(cfg: RunConfig, depth: int = 2) -> tuple:
    """Restricted solution of the relation equation passes the
    arithmeticality criterion; a perturbed t^0 part fails it.  Row-space
    work over the eager basis keeps this suite at desk scale: p and c0 are
    pinned to 3 whenever the requested configuration is larger."""
    if cfg.p > 3 or cfg.c0 > 6:
        cfg = RunConfig(p=3, n0=cfg.n0 if cfg.n0 <= 2 else 1, c0=3, a_max=6,
                        alphas=[[1] * min(cfg.n0, 2), [2] * min(cfg.n0, 2)],
                        seed=cfg.seed)
    f = build_field(cfg)
    alg = build_algebra(cfg, f)
    alg.eager_build()
    aut = build_aut(cfg, f)
    ideal = ramgen.ramification_ideal(alg, Fraction(cfg.c0), depth)
    n_star = depth + 1
    om = lifts.omega0_element(alg, aut, n_star - 1)
    lines = []
    if not ideal.contains_elem(alg, om):
        return False, ["omega0 escapes the ramification ideal"]
    sol = lifts.solve_relation_equation(alg, om, n_star, ideal=ideal)
    if sol is None:
        return False, ["restricted relation equation inconsistent"]
    if lifts.relation_residual(alg, sol, om, n_star):
        return False, ["relation residual nonzero"]
    lines.append("restricted solve: residual zero, parts inside the ideal")
    c1z = lifts.arithmetical_c1_zero(alg, aut, n_star, sol.c0_elem)
    ok1 = lifts.is_arithmetical(alg, ideal, c1z, aut, n_star)
    gen = alg.gen_elem(("g", 1, 0))
    outside = not ideal.contains_elem(alg, gen)
    ok2 = outside and not lifts.is_arithmetical(
        alg, ideal, alg.el_add(c1z, gen), aut, n_star)
    lines.append(f"criterion passes on the constructed part: {ok1}")
    lines.append(f"criterion rejects a generator perturbation: {ok2}")
    return ok1 and ok2, lines


def check_top_weight(cfg: RunConfig, depth: int = 2) -> tuple:
    """Desk-scale suite (extended generator range, row-space membership);
    pinned to p = 3 when the requested configuration is larger."""
    if cfg.p > 3 or cfg.c0 > 6:
        cfg = RunConfig(p=3, n0=1, c0=3)
    alg = build_algebra(cfg, a_max=cfg.p * cfg.c0)
    ok = ramgen.top_weight_containment(alg, depth)
    return ok, [f"p={cfg.p}, a_max={cfg.p * cfg.c0}: containment holds: {ok}"]


def check_power_sums(cfg: RunConfig, n_max: int = 50) -> tuple:
    import itertools
    p = cfg.p
    ok = True
    count = 0
    for d in range(1, p):
        for s in range(1, d + 1):
            for idx in itertools.product(range(d), repeat=s):
                if sum(idx) + s != d:
                    continue
                poly = bch.power_sum_poly(p, idx)
                brute = _power_sum_table(idx, n_max, p)
                for n in range(n_max + 1):
                    if bch.poly_eval_mod(poly, n, p) != brute[n]:
                        return False, [f"mismatch at idx={idx}, n={n}"]
                count += 1
    return ok, [f"p={p}: {count} index tuples checked up to n={n_max}"]


def _power_sum_table(idx, n_max, p):
    """Values of the defining nested sum over 0 <= m_1 < ... < m_s < n for
    n = 0..n_max, evaluated directly by running prefix sums (independent of
    the polynomial construction)."""
    prev = [1] * (n_max + 1)   # empty product: sum over zero indices
    for i in idx:
        cur = [0] * (n_max + 1)
        acc = 0
        for n in range(1, n_max + 1):
            m = n - 1
            acc = (acc + pow(m, i, p) * prev[m]) % p
            cur[n] = acc
        prev = cur
    return prev


def check_bernoulli(cfg: RunConfig) -> tuple:
    """x = (1 - exp(-x)) * sum_{m<=p-2} B_m (-x)^m / m! in F_p[x]/x^p,
    plus the inverse-series comparison below degree p-1."""
    p = cfg.p
    bern = [bch.bernoulli_mod_p(p, m) for m in range(p - 1)]
    fact = [1] * p
    for i in range(2, p):
        fact[i] = (fact[i - 1] * i) % p
    one_minus_exp = [0] * p   # 1 - exp(-x) truncated
    for j in range(1, p):
        one_minus_exp[j] = (-pow(-1, j) * pow(fact[j], p - 2, p)) % p
    series_b = [0] * p        # sum B_m (-x)^m / m!
    for m in range(p - 1):
        series_b[m] = (bern[m] * pow(-1, m) * pow(fact[m], p - 2, p)) % p
    prod = [0] * p
    for i in range(p):
        for j in range(p - i):
            prod[i + j] = (prod[i + j] + one_minus_exp[i] * series_b[j]) % p
    want = [0] * p
    want[1] = 1
    ok = prod == want
    # inverse-series route: x / (1 - exp(-x)) coefficientwise below p-1
    inv = _series_inverse([one_minus_exp[j + 1] for j in range(p - 1)], p)
    ok2 = all(inv[m] == series_b[m] for m in range(p - 1))
    return ok and ok2, [f"p={p}: product identity {ok}, inverse route {ok2}"]


def _series_inverse(unit: list, p: int) -> list:
    """Inverse of a power series with constant term 1, same length."""
    n = len(unit)
    out = [0] * n
    out[0] = pow(unit[0], p - 2, p)
    for k in range(1, n):
        acc = 0
        for j in range(1, k + 1):
            acc = (acc + unit[j] * out[k - j]) % p
        out[k] = (-acc * out[0]) % p
    return out


def check_orbit_filtration(cfg: RunConfig, trials: int = 100) -> tuple:
    """p-fold orbit products of step-1 elements land in step p, on a
    synthetic weight-filtered quotient with a random exp(derivation)."""
    rng = random.Random(cfg.seed)
    p = cfg.p
    k = FieldCtx(p, 1)
    alg = LieAlgebra(k, synthetic_gens=[("u", 1), ("v", 1), ("w", 2)],
                     weight_cap=p)
    alg.eager_build()
    ops = bch.ElemOps(alg)
    done = 0
    while done < trials:
        images = {}
        for g in alg.gen_ids.values():
            targets = [i for i in range(alg.num_words()) if alg.wt[i] > alg.wt[g]]
            if targets and rng.random() < 0.8:
                images[g] = {rng.choice(targets): k.rand(rng)}
        b_op = bch.GenDerivation(alg, images).exp()
        m = alg.rand_elem(rng, 2, max_weight=1)
        if not m:
            continue
        prod = bch.orbit_product(ops, m, b_op, p)
        if prod != {}:   # weight cap at p: landing in step p means vanishing
            return False, [f"trial {done}: orbit product escapes step {p}"]
        coeffs = bch.orbit_coefficients(ops, m, b_op,
                                        filt=lambda x: alg.el_weight(x))
        for n in range(p):
            want = bch.orbit_product(ops, m, b_op, n)
            got = alg.zero()
            for i, li in enumerate(coeffs, start=1):
                got = alg.el_add(got, alg.el_scale_int(pow(n, i, p), li))
            if got != want:
                return False, [f"trial {done}: coefficient reconstruction fails"]
        done += 1
    return True, [f"{trials} random filtered orbits at p={p}"]


def check_mixed_char(cfg: RunConfig) -> tuple:
    rep = ramgen.mixed_char_summary(3, 2, 1)
    ok = (rep["c0"] == 3 and rep["generators"] == 4
          and rep["v"][1] == Fraction(3) and rep["v"][2] == Fraction(11, 3))
    return ok, [f"c0={rep['c0']}, generators={rep['generators']}, "
                f"v={{1: {rep['v'][1]}, 2: {rep['v'][2]}}}"]


def check_lift_consistency(cfg: RunConfig, trials: int = 2) -> tuple:
    """The two solver routes linearise the same first-order data (exactly at
    n0 = 1; up to the sigma-fixed recentering otherwise)."""
    rng = random.Random(cfg.seed)
    f = build_field(cfg)
    alg = build_algebra(cfg, f)
    sctx = SeriesCtx(alg, cfg.policy)
    for t in range(trials):
        aut = _rand_aut(f, cfg.c0, rng)
        lin = lifts.solve_linearized(sctx, aut)
        full = lifts.solve_lift(sctx, aut)
        if not lifts.lifts_agree(sctx, lin, full, aut):
            return False, [f"trial {t}: routes disagree"]
    return True, [f"{trials} random automorphisms at p={cfg.p}, n0={cfg.n0}"]


SUITES = {
    "witt_dims": check_witt_dims,
    "ch_laws": check_ch_laws,
    "rs_split": check_rs_split,
    "ram_numbers": check_ram_numbers,
    "closed_form_ad": check_closed_form_ad,
    "gen_shift": check_gen_shift,
    "c1_plus": check_c1_plus,
    "relation_equation": check_relation_equation,
    "top_weight": check_top_weight,
    "power_sums": check_power_sums,
    "bernoulli": check_bernoulli,
    "orbit_filtration": check_orbit_filtration,
    "mixed_char": check_mixed_char,
    "lift_consistency": check_lift_consistency,
}


def run_suite(name: str, cfg: RunConfig) -> tuple:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    return SUITES[name](cfg)
