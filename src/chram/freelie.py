"""Free nilpotent Lie k-algebra of class < p on D0 and the D_{a,n}.

The Hall basis is grown on demand: a bracket of two basis words is either a
basis word itself or gets rewritten through the Jacobi identity, so structure
constants exist only for the part of the algebra a computation actually
touches.  Everything heavier (ideal closures, membership) happens on
F_p-flattened coordinates via sparse row reduction.

Generators are labelled ("d0",) and ("g", a, n); synthetic algebras for
property tests may instead declare an arbitrary list of weighted generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf import FieldCtx, Felt

D0 = ("d0",)


def witt_dimension(q: int, n: int) -> int:
    """Number of Hall words of degree n on q generators (necklace count)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(d) * q ** (n // d)
    return total // n


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    m, cnt = n, 0
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            cnt += 1
        d += 1
    if m > 1:
        cnt += 1
    return -1 if cnt % 2 else 1


class BasisSizeError(RuntimeError):
    pass


class LieAlgebra:
    """Hall-basis table plus element operations.

    Arithmetic mode (default): generators are D0 (weight 1) and D_{a,n} for
    a in Z^+(p), a < a_max, n in Z/n0, with weight s when (s-1)c0 <= a < s c0.
    Synthetic mode: pass `synthetic_gens` as a list of (name, weight) pairs.
    `weight_cap`, when set, kills every word of weight >= cap (used for
    filtered quotients in property tests); the main algebra keeps them.
    """

    def __init__(self, fieldctx: FieldCtx, c0: int | None = None,
                 a_max: int | None = None, include_d0: bool = True,
                 synthetic_gens: list | None = None,
                 weight_cap: int | None = None, word_cap: int = 2_000_000):
        self.field = fieldctx
        self.p = fieldctx.p
        self.n0 = fieldctx.n0
        self.weight_cap = weight_cap
        self.word_cap = word_cap
        self.max_deg = self.p - 1

        self.deg: list[int] = []
        self.wt: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.label: list[tuple] = []   # generator labels for degree-1 words
        self.pair_id: dict = {}
        self.gen_ids: dict = {}
        self._nf_memo: dict = {}
        self._sigma_word_memo: dict = {}
        self._pbw_mw: dict = {}
        self._pbw_mm: dict = {}

        if synthetic_gens is not None:
            self.c0 = c0 or 1
            self.a_max = None
            for name, w in synthetic_gens:
                self._new_gen(("s", name), w)
        else:
            if c0 is None or a_max is None:
                raise ValueError("arithmetic mode needs c0 and a_max")
            if c0 % self.p != 0 or c0 <= 0:
                raise ValueError("c0 must be a positive multiple of p")
            self.c0 = c0
            self.a_max = a_max
            if include_d0:
                self._new_gen(D0, 1)
            for a in range(1, a_max):
                if a % self.p == 0:
                    continue
                for n in range(self.n0):
                    self._new_gen(("g", a, n), a // c0 + 1)

    # -- word table -----------------------------------------------------------

    def _new_gen(self, lab: tuple, weight: int) -> int:
        i = len(self.deg)
        self.deg.append(1)
        self.wt.append(weight)
        self.left.append(-1)
        self.right.append(-1)
        self.label.append(lab)
        self.gen_ids[lab] = i
        return i

    def _new_pair(self, u: int, v: int) -> int:
        if len(self.deg) >= self.word_cap:
            raise BasisSizeError(f"basis exceeds cap of {self.word_cap} words")
        i = len(self.deg)
        self.deg.append(self.deg[u] + self.deg[v])
        self.wt.append(self.wt[u] + self.wt[v])
        self.left.append(u)
        self.right.append(v)
        self.label.append(())
        self.pair_id[(u, v)] = i
        return i

    def num_words(self) -> int:
        return len(self.deg)

    def num_gens(self) -> int:
        return len(self.gen_ids)

    def nf(self, u: int, v: int) -> dict:
        """Normal form of [u, v] as {word_id: coeff mod p}."""
        p = self.p
        # pairs that vanish by degree or weight stay out of the memo, where
        # the CH table route would make them most of its entries
        if u == v or self.deg[u] + self.deg[v] >= p or (
                self.weight_cap is not None
                and self.wt[u] + self.wt[v] >= self.weight_cap):
            return {}
        if u < v:
            return {i: (-c) % p for i, c in self.nf(v, u).items()}
        key = (u, v)
        cached = self._nf_memo.get(key)
        if cached is not None:
            return cached
        if self.deg[u] == 1 or self.right[u] <= v:
            w = self.pair_id.get(key)
            if w is None:
                w = self._new_pair(u, v)
            out = {w: 1}
        else:
            # u = [l, r] with r > v: [[l,r],v] = [[l,v],r] + [l,[r,v]]
            l, r = self.left[u], self.right[u]
            out: dict = {}
            for m, c in self.nf(l, v).items():
                for w, c2 in self.nf(m, r).items():
                    out[w] = (out.get(w, 0) + c * c2) % p
            for m, c in self.nf(r, v).items():
                for w, c2 in self.nf(l, m).items():
                    out[w] = (out.get(w, 0) + c * c2) % p
            out = {w: c for w, c in out.items() if c}
        self._nf_memo[key] = out
        return out

    def eager_build(self, max_deg: int | None = None) -> list[int]:
        """Materialise every Hall word of degree <= max_deg; return dims."""
        max_deg = max_deg or self.max_deg
        if max_deg >= self.p:
            raise ValueError("degree must stay below p")
        by_deg: dict[int, list[int]] = {1: list(range(self.num_gens()))}
        for d in range(2, max_deg + 1):
            created = []
            for v in range(self.num_words()):
                if self.deg[v] >= d:
                    continue
                du = d - self.deg[v]
                for u in range(self.num_words()):
                    if self.deg[u] != du or u <= v:
                        continue
                    if self.deg[u] > 1 and self.right[u] > v:
                        continue
                    if self.weight_cap is not None and \
                            self.wt[u] + self.wt[v] >= self.weight_cap:
                        continue
                    w = self.pair_id.get((u, v))
                    if w is None:
                        w = self._new_pair(u, v)
                    created.append(w)
            by_deg[d] = sorted(created)
        return [len(by_deg.get(d, [])) for d in range(1, max_deg + 1)]

    def word_tree(self, i: int):
        """Nested descriptor of a word: generator label or [left, right]."""
        if self.deg[i] == 1:
            lab = self.label[i]
            if lab == D0:
                return {"d0": True}
            if lab[0] == "g":
                return {"a": lab[1], "n": lab[2]}
            return {"s": lab[1]}
        return [self.word_tree(self.left[i]), self.word_tree(self.right[i])]

    def word_from_tree(self, t) -> dict:
        """Inverse of word_tree, as a normal-form element {id: coeff}."""
        if isinstance(t, dict):
            if t.get("d0"):
                return {self.gen_ids[D0]: 1}
            if "a" in t:
                return {self.gen_ids[("g", t["a"], t["n"] % self.n0)]: 1}
            return {self.gen_ids[("s", t["s"])]: 1}
        lt, rt = t
        out: dict = {}
        for u, cu in self.word_from_tree(lt).items():
            for v, cv in self.word_from_tree(rt).items():
                for w, c in self.nf(u, v).items():
                    out[w] = (out.get(w, 0) + cu * cv * c) % self.p
        return {w: c for w, c in out.items() if c}

    # -- element operations (LieElem = {word_id: Felt}) -----------------------

    def zero(self) -> dict:
        return {}

    def gen_elem(self, lab: tuple, coeff: Felt | None = None) -> dict:
        c = coeff if coeff is not None else self.field.one
        if self.field.is_zero(c):
            return {}
        return {self.gen_ids[lab]: c}

    def el_add(self, x: dict, y: dict) -> dict:
        f = self.field
        out = dict(x)
        for i, c in y.items():
            s = f.add(out.get(i, f.zero), c)
            if f.is_zero(s):
                out.pop(i, None)
            else:
                out[i] = s
        return out

    def el_neg(self, x: dict) -> dict:
        f = self.field
        return {i: f.neg(c) for i, c in x.items()}

    def el_sub(self, x: dict, y: dict) -> dict:
        return self.el_add(x, self.el_neg(y))

    def el_scale(self, c: Felt, x: dict) -> dict:
        f = self.field
        if f.is_zero(c):
            return {}
        out = {}
        for i, ci in x.items():
            v = f.mul(c, ci)
            if not f.is_zero(v):
                out[i] = v
        return out

    def el_scale_int(self, n: int, x: dict) -> dict:
        f = self.field
        n %= self.p
        if n == 0:
            return {}
        return {i: f.scale(n, c) for i, c in x.items()}

    def el_bracket(self, x: dict, y: dict) -> dict:
        f = self.field
        out: dict = {}
        for i, ci in x.items():
            for j, cj in y.items():
                cij = f.mul(ci, cj)
                if f.is_zero(cij):
                    continue
                for w, c in self.nf(i, j).items():
                    s = f.add(out.get(w, f.zero), f.scale(c, cij))
                    if f.is_zero(s):
                        out.pop(w, None)
                    else:
                        out[w] = s
        return out

    def _sigma_word(self, i: int) -> dict:
        """sigma of a basis word as {word_id: coeff mod p} (index shift only)."""
        cached = self._sigma_word_memo.get(i)
        if cached is not None:
            return cached
        if self.deg[i] == 1:
            lab = self.label[i]
            if lab[0] == "g":
                j = self.gen_ids[("g", lab[1], (lab[2] + 1) % self.n0)]
                out = {j: 1}
            else:
                out = {i: 1}  # D0 and synthetic generators are fixed
        else:
            out = {}
            for u, cu in self._sigma_word(self.left[i]).items():
                for v, cv in self._sigma_word(self.right[i]).items():
                    for w, c in self.nf(u, v).items():
                        out[w] = (out.get(w, 0) + cu * cv * c) % self.p
            out = {w: c for w, c in out.items() if c}
        self._sigma_word_memo[i] = out
        return out

    def el_sigma(self, x: dict, e: int = 1) -> dict:
        """sigma^e, semilinear: coefficients through Frobenius, indices shifted."""
        f = self.field
        e %= self.n0
        for _ in range(e):
            out: dict = {}
            for i, c in x.items():
                fc = f.frob(c, 1)
                for w, cw in self._sigma_word(i).items():
                    s = f.add(out.get(w, f.zero), f.scale(cw, fc))
                    if f.is_zero(s):
                        out.pop(w, None)
                    else:
                        out[w] = s
            x = out
        return x

    def el_trace(self, x: dict) -> dict:
        """Sum of sigma^e(x) over e mod n0 (lands in the sigma-fixed part)."""
        acc = self.zero()
        for e in range(self.n0):
            acc = self.el_add(acc, self.el_sigma(x, e))
        return acc

    def el_weight(self, x: dict) -> int:
        """Largest s with x in L(s); p is the 'lies in L(p)' sentinel."""
        if not x:
            return self.p
        return min(min(self.wt[i] for i in x), self.p)

    def wt_split(self, x: dict) -> dict:
        out: dict = {}
        for i, c in x.items():
            out.setdefault(self.wt[i], {})[i] = c
        return out

    def deg_split(self, x: dict) -> dict:
        out: dict = {}
        for i, c in x.items():
            out.setdefault(self.deg[i], {})[i] = c
        return out

    def deg_part(self, x: dict, d: int) -> dict:
        return {i: c for i, c in x.items() if self.deg[i] == d}

    def el_project(self, x: dict, keep) -> dict:
        return {i: c for i, c in x.items() if keep(i)}

    def rand_elem(self, rng, terms: int = 3, max_weight: int | None = None) -> dict:
        """Sparse random element supported on generators and small brackets."""
        out = self.zero()
        gens = list(self.gen_ids.values())
        if max_weight is not None:
            gens = [g for g in gens if self.wt[g] <= max_weight]
        for _ in range(terms):
            i = rng.choice(gens)
            if rng.random() < 0.4:
                j = rng.choice(gens)
                piece = self.el_bracket({i: self.field.one}, {j: self.field.one})
            else:
                piece = {i: self.field.one}
            c = self.field.rand(rng)
            out = self.el_add(out, self.el_scale(c, piece))
        return out

    # -- F_p flattening --------------------------------------------------------

    def flatten(self, x: dict) -> dict:
        n0 = self.n0
        out = {}
        for i, c in x.items():
            for j, cj in enumerate(c):
                if cj:
                    out[i * n0 + j] = cj
        return out

    def unflatten(self, row: dict) -> dict:
        n0 = self.n0
        acc: dict = {}
        for col, v in row.items():
            i, j = divmod(col, n0)
            cur = list(acc.get(i, self.field.zero))
            cur[j] = v % self.p
            acc[i] = tuple(cur)
        return {i: c for i, c in acc.items() if not self.field.is_zero(c)}

    # -- serialization ---------------------------------------------------------

    def elem_to_json(self, x: dict) -> list:
        items = sorted(x.items())
        return [{"hall": self.word_tree(i), "coeff": list(c)} for i, c in items]

    def elem_from_json(self, data: list) -> dict:
        out = self.zero()
        for entry in data:
            base = self.word_from_tree(entry["hall"])
            coeff = tuple(int(v) % self.p for v in entry["coeff"])
            piece = {i: self.field.scale(c, coeff) for i, c in base.items()}
            out = self.el_add(out, piece)
        return out

    def table_to_json(self) -> dict:
        return {
            "p": self.p, "N0": self.n0, "c0": self.c0, "a_max": self.a_max,
            "pairs": [[self.left[i], self.right[i]]
                      for i in range(len(self.deg)) if self.deg[i] > 1],
        }

    def load_table(self, data: dict) -> None:
        if (data.get("p"), data.get("N0"), data.get("c0"), data.get("a_max")) != \
                (self.p, self.n0, self.c0, self.a_max):
            raise ValueError("cached basis table does not match configuration")
        for u, v in data["pairs"]:
            if (u, v) not in self.pair_id:
                self._new_pair(u, v)


# -- sparse row reduction over F_p ---------------------------------------------

class RowSpace:
    """Reduced row-echelon span of sparse F_p vectors (dict col -> value)."""

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict = {}  # pivot col -> normalized row

    def reduce(self, vec: dict) -> dict:
        p = self.p
        r = {c: v % p for c, v in vec.items() if v % p}
        while r:
            lead = min(r)
            piv = self.pivots.get(lead)
            if piv is None:
                return r
            c = r[lead]
            for col, v in piv.items():
                nv = (r.get(col, 0) - c * v) % p
                if nv:
                    r[col] = nv
                else:
                    r.pop(col, None)
        return r

    def add(self, vec: dict) -> bool:
        r = self.reduce(vec)
        if not r:
            return False
        p = self.p
        lead = min(r)
        inv = pow(r[lead], p - 2, p)
        row = {c: (v * inv) % p for c, v in r.items()}
        # keep full reduction: eliminate the new pivot from stored rows
        for pc, prow in self.pivots.items():
            c = prow.get(lead, 0)
            if c:
                for col, v in row.items():
                    nv = (prow.get(col, 0) - c * v) % p
                    if nv:
                        prow[col] = nv
                    else:
                        prow.pop(col, None)
        self.pivots[lead] = row
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def rows(self) -> list[dict]:
        return [dict(self.pivots[c]) for c in sorted(self.pivots)]

    def copy(self) -> "RowSpace":
        out = RowSpace(self.p)
        out.pivots = {c: dict(r) for c, r in self.pivots.items()}
        return out

    def same_space(self, other: "RowSpace") -> bool:
        if self.rank != other.rank:
            return False
        return all(other.contains(r) for r in self.rows())


@dataclass
class IdealBasis:
    """Row-reduced F_p spanning set of a sigma-stable bracket-closed subspace."""
    space: RowSpace
    sigma_stable: bool = True
    bracket_closed: bool = True
    generators_used: int = 0

    @property
    def dim(self) -> int:
        return self.space.rank

    def contains_elem(self, alg: LieAlgebra, x: dict) -> bool:
        return self.space.contains(alg.flatten(x))

    def rows_json(self, alg: LieAlgebra) -> list:
        return [alg.elem_to_json(alg.unflatten(r)) for r in self.space.rows()]


def _k_basis(fieldctx: FieldCtx) -> list[Felt]:
    out = []
    for j in range(fieldctx.n0):
        v = [0] * fieldctx.n0
        v[j] = 1
        out.append(tuple(v))
    return out


def _ad_gen_labels(alg: LieAlgebra) -> list[tuple]:
    """One ad-generator per sigma-orbit suffices once the space is sigma-stable."""
    labs = []
    for lab in alg.gen_ids:
        if lab == D0 or lab[0] == "s" or lab[2] == 0:
            labs.append(lab)
    return labs


def minimal_sigma_ideal(alg: LieAlgebra, elems: list[dict]) -> IdealBasis:
    """Smallest sigma-stable k-subspace of L_k containing `elems` and closed
    under bracket with every generator, as an F_p row space on flattened
    coordinates.  By descent this is the scalar extension of the minimal
    ideal of the F_p-algebra whose extension contains the inputs."""
    space = RowSpace(alg.p)
    kbasis = _k_basis(alg.field)
    ad_labs = _ad_gen_labels(alg)
    used = 0
    for x in elems:
        if x:
            used += 1
        space.add(alg.flatten(x))
    changed = True
    while changed:
        changed = False
        for row in space.rows():
            x = alg.unflatten(row)
            candidates = [alg.el_sigma(x, 1)]
            for w in kbasis[1:]:
                candidates.append(alg.el_scale(w, x))
            for lab in ad_labs:
                candidates.append(alg.el_bracket(x, alg.gen_elem(lab)))
            for cand in candidates:
                if cand and space.add(alg.flatten(cand)):
                    changed = True
    return IdealBasis(space=space, generators_used=used)


def member(alg: LieAlgebra, x: dict, ideal: IdealBasis | None,
           modulo: IdealBasis | None = None) -> bool:
    """x in ideal + modulo as F_p spaces."""
    if ideal is not None and modulo is None:
        return ideal.contains_elem(alg, x)
    space = ideal.space.copy() if ideal is not None else RowSpace(alg.p)
    if modulo is not None:
        for r in modulo.space.rows():
            space.add(r)
    return space.contains(alg.flatten(x))


def member_mod_monomial(alg: LieAlgebra, x: dict, ideal: IdealBasis, keep) -> bool:
    """x in ideal + (monomial span of words with keep(i) False):
    project both onto the kept coordinates and reduce."""
    n0 = alg.n0
    vec = {col: v for col, v in alg.flatten(x).items() if keep(col // n0)}
    space = RowSpace(alg.p)
    for r in ideal.space.rows():
        space.add({col: v for col, v in r.items() if keep(col // n0)})
    return space.contains(vec)


def monomial_ideal(alg: LieAlgebra, pred) -> IdealBasis:
    """Span of all materialised words with pred(i) True, as an IdealBasis."""
    space = RowSpace(alg.p)
    for i in range(alg.num_words()):
        if pred(i):
            for j in range(alg.n0):
                space.add({i * alg.n0 + j: 1})
    return IdealBasis(space=space)


# -- small dense solvers over F_p ------------------------------------------------

def solve_linear_mod_p(rows: list[dict], rhs: list[int], p: int):
    """One solution of the sparse system rows[i] . x = rhs[i] mod p (free
    variables set to 0), or None if inconsistent."""
    aug = [({c: v % p for c, v in row.items() if v % p}, rhs[i] % p)
           for i, row in enumerate(rows)]
    pivots: dict = {}
    for row, b in aug:
        r, rb = dict(row), b
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                break
            c = r[lead]
            prow, pb = piv
            for col, v in prow.items():
                nv = (r.get(col, 0) - c * v) % p
                if nv:
                    r[col] = nv
                else:
                    r.pop(col, None)
            rb = (rb - c * pb) % p
        if not r:
            if rb % p:
                return None
            continue
        lead = min(r)
        inv = pow(r[lead], p - 2, p)
        pivots[lead] = ({c: (v * inv) % p for c, v in r.items()}, (rb * inv) % p)
    # back-substitute (free vars = 0)
    sol: dict = {}
    for lead in sorted(pivots, reverse=True):
        row, b = pivots[lead]
        acc = b
        for col, v in row.items():
            if col != lead and col in sol:
                acc = (acc - v * sol[col]) % p
        sol[lead] = acc
    return sol


def invert_vandermonde_mod_p(p: int) -> list[list[int]]:
    """Inverse of the (p-1)x(p-1) matrix M[n][i] = n^(i+1) mod p, rows n=1..p-1."""
    n = p - 1
    m = [[pow(r + 1, c + 1, p) for c in range(n)] for r in range(n)]
    aug = [m[i] + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] % p)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [(v * inv) % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [(aug[r][k] - c * aug[col][k]) % p for k in range(2 * n)]
    return [row[n:] for row in aug]
