"""Per-layer tracing installed from outside the program.

Wrappers replace public functions of `chram` modules while a traced run is
in progress.  Coarse boundaries record one span each (name, start, end,
parent); hot leaves (field arithmetic, `nf`, `el_bracket`, row-space and
series brackets) aggregate calls and time per (name, parent) instead, so
the trace stays small.  Self time is a call's duration minus the time of
the wrapped calls it made; both are corrected for the wrappers' own cost,
measured by `calibrate`, so hot leaves and their callers do not absorb the
tracing cost.  Wrappers record only while `active` is set, so
set-up and the correctness oracles are not counted.
"""

from __future__ import annotations

import time

# (module, owner class or None, attribute, metric name, coarse)
TARGETS = [
    ("gf", "FieldCtx", "mul", "gf.mul", False),
    ("gf", "FieldCtx", "add", "gf.addscale", False),
    ("gf", "FieldCtx", "sub", "gf.addscale", False),
    ("gf", "FieldCtx", "neg", "gf.addscale", False),
    ("gf", "FieldCtx", "scale", "gf.addscale", False),
    ("gf", "FieldCtx", "frob", "gf.frob", False),
    ("freelie", "LieAlgebra", "nf", "freelie.nf", False),
    ("freelie", "LieAlgebra", "el_bracket", "freelie.el_bracket", False),
    ("freelie", "RowSpace", "add", "freelie.rowspace.add", False),
    ("freelie", "RowSpace", "reduce", "freelie.rowspace.reduce", False),
    ("freelie", None, "minimal_sigma_ideal", "freelie.minimal_sigma_ideal",
     True),
    ("bch", None, "ch_mul", "bch.ch_mul", True),
    ("bch", None, "env_mul", "bch.env_mul", False),
    ("bch", None, "ch_generic", "bch.ch_generic", True),
    ("series", "SeriesCtx", "bracket", "series.bracket", False),
    ("series", "SeriesCtx", "sigma", "series.sigma", False),
    ("series", "SeriesCtx", "substitute", "series.substitute", True),
    ("series", "SeriesCtx", "r_op", "series.split", True),
    ("series", "SeriesCtx", "s_op", "series.split", True),
    ("ramgen", None, "ram_generator_family", "ramgen.family", True),
    ("lifts", None, "solve_linearized", "lifts.solve_linearized", True),
    ("lifts", None, "solve_lift", "lifts.solve_lift", True),
    ("lifts", "CappedSeriesOps", "ch", "lifts.capped_ch", True),
]


class Tracer:
    """Frames on the stack are [callee seconds, name, span id, wrapped calls
    beneath].  Times are corrected for the wrappers' own cost: `outer` is
    what a wrapped call adds for its caller, `inner` what it adds inside its
    own measured interval (both from `calibrate`)."""

    def __init__(self, chram_modules: dict):
        self.mods = chram_modules  # short name ("gf", ...) -> module
        self.active = False
        self.stack: list = []
        # (name, parent name) -> [calls, incl_s, self_s]
        self.agg: dict = {}
        # (name, start, end, id, parent id, incl_s, self_s)
        self.spans: list = []
        self.counts: dict = {}   # extra counters (pairs, yields, accepted ...)
        self.next_id = 0
        self.outer = 0.0
        self.inner = 0.0
        self._saved: list = []

    # -- installation ---------------------------------------------------------

    def install(self):
        for mod_name, owner, attr, name, coarse in TARGETS:
            mod = self.mods[mod_name]
            holder = getattr(mod, owner) if owner else mod
            fn = getattr(holder, attr)
            wrapped = self._wrap(fn, name, coarse, _POST.get(name))
            self._saved.append((holder, attr, fn))
            setattr(holder, attr, wrapped)
            if owner is None:
                # modules that imported the function by name
                for other in self.mods.values():
                    if other is not mod and getattr(other, attr, None) is fn:
                        self._saved.append((other, attr, fn))
                        setattr(other, attr, wrapped)

    def uninstall(self):
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved = []

    def calibrate(self, calls: int = 20000, repeats: int = 5):
        """Measure the wrapper's cost on a no-op (the least of a few
        repeats); later calls are charged with it."""
        def noop():
            return None

        wrapped = self._wrap(noop, "calibrate", False, None)
        clock = time.perf_counter
        best = None
        for _ in range(repeats):
            root = [0.0, "calibrate", -1, 0]
            self.stack = [root]
            self.active = True
            t0 = clock()
            for _ in range(calls):
                wrapped()
            t1 = clock()
            self.active = False
            for _ in range(calls):
                noop()
            t2 = clock()
            bare = (t2 - t1) / calls
            inner = root[0] / calls - bare
            outer = (t1 - t0) / calls - bare - inner
            if best is None or inner + outer < sum(best):
                best = (inner, outer)
        self.agg.clear()
        self.inner, self.outer = (max(0.0, x) for x in best)

    def _wrap(self, fn, name, coarse, post):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1]
            frame = [0.0, name, tracer.next_id, 0]
            tracer.next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                parent[0] += dt + tracer.outer
                parent[3] += frame[3] + 1
                self_s = dt - frame[0] - tracer.inner
                incl_s = dt - tracer.inner - frame[3] * (tracer.inner
                                                         + tracer.outer)
                if coarse:
                    tracer.spans.append((name, t0, t1, frame[2], parent[2],
                                         incl_s, self_s))
                else:
                    key = (name, parent[1])
                    rec = tracer.agg.get(key)
                    if rec is None:
                        rec = tracer.agg[key] = [0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += incl_s
                    rec[2] += self_s
            if post is not None:
                post(tracer.counts, args, out)
            return out

        return wrapper

    # -- one traced op --------------------------------------------------------

    def run_op(self, fn, *args):
        """Run fn(*args) traced, under an "op" root span."""
        root = [0.0, "op", self.next_id, 0]
        self.next_id += 1
        self.stack = [root]
        self.active = True
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            t1 = time.perf_counter()
            self.active = False
            incl_s = t1 - t0 - root[3] * (self.inner + self.outer)
            self.spans.append(("op", t0, t1, root[2], None, incl_s,
                               t1 - t0 - root[0]))
        return out

    # -- summaries ------------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, inclusive_s, self_s], corrected for the wrappers'
        cost; inclusive time counts only the outermost call of a name, so
        recursion is not counted twice."""
        out: dict = {}
        for (name, parent), (calls, incl_s, self_s) in self.agg.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl_s if parent != name else 0.0
            rec[2] += self_s
        for name, _, _, _, _, incl_s, self_s in self.spans:
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += incl_s
            rec[2] += self_s
        return out


def _count_bracket(counts, args, out):
    x, y = args[1], args[2]
    counts["freelie.el_bracket.pairs"] = \
        counts.get("freelie.el_bracket.pairs", 0) + len(x) * len(y)
    counts["freelie.el_bracket.terms"] = \
        counts.get("freelie.el_bracket.terms", 0) + len(out)


def _count_add(counts, args, out):
    if out:
        counts["freelie.rowspace.add.accepted"] = \
            counts.get("freelie.rowspace.add.accepted", 0) + 1


def _count_family(counts, args, out):
    counts["ramgen.family.elements"] = \
        counts.get("ramgen.family.elements", 0) + len(out)
    counts["ramgen.family.terms"] = counts.get("ramgen.family.terms", 0) \
        + sum(len(x) for x in out.values())


_POST = {
    "freelie.el_bracket": _count_bracket,
    "freelie.rowspace.add": _count_add,
    "ramgen.family": _count_family,
}


# -- per-layer metrics --------------------------------------------------------
# (name, unit).  The traced loop runs for a fixed time, so totals over it
# would grow with the number of ops that fit; counts and times are given
# per traced op instead, with `trace.ops` as their base.  trace.op_s is the
# mean traced op time less the wrappers' cost.  Self and inclusive times of
# layers that some workload never calls are given as shares of the traced
# op time, so an idle layer reads 0 as a share, not a time.

LAYER_METRICS = [
    ("trace.ops", "count"),
    ("trace.op_s", "s/op"),
    ("trace.overhead", "ratio"),
    ("gf.mul.calls", "count/op"),
    ("gf.mul.self_s", "s/op"),
    ("gf.addscale.calls", "count/op"),
    ("gf.frob.calls", "count/op"),
    ("gf.self_s", "s/op"),
    ("freelie.nf.calls", "count/op"),
    ("freelie.nf.self_share", "share"),
    ("freelie.nf_memo_entries", "count"),
    ("freelie.words", "count"),
    ("freelie.el_bracket.calls", "count/op"),
    ("freelie.el_bracket.self_share", "share"),
    ("freelie.el_bracket.pairs", "count/op"),
    ("freelie.el_bracket.yield", "ratio"),
    ("freelie.rowspace.add.calls", "count/op"),
    ("freelie.rowspace.add_yield", "ratio"),
    ("freelie.rowspace.self_share", "share"),
    ("freelie.minimal_sigma_ideal.share", "share"),
    ("freelie.minimal_sigma_ideal.self_share", "share"),
    ("bch.ch_mul.calls", "count/op"),
    ("bch.ch_mul.share", "share"),
    ("bch.env_mul.calls", "count/op"),
    ("bch.env_mul.self_share", "share"),
    ("bch.ch_generic.calls", "count/op"),
    ("bch.ch_generic.self_share", "share"),
    ("bch.bch_table.s", "s"),
    ("series.bracket.calls", "count/op"),
    ("series.bracket.self_share", "share"),
    ("series.substitute.share", "share"),
    ("series.sigma.calls", "count/op"),
    ("series.split.share", "share"),
    ("ramgen.family.share", "share"),
    ("ramgen.family.elements", "count/op"),
    ("ramgen.family.terms", "count/op"),
    ("lifts.solve_linearized.share", "share"),
    ("lifts.solve_lift.share", "share"),
    ("lifts.capped_ch.calls", "count/op"),
    ("lifts.capped_ch.self_share", "share"),
    ("lifts.routes_agree", "count/op"),
    ("lifts.routes_checked", "count/op"),
]

# Self-time components compared by the layer predictions.
COMPONENTS = {
    "gf": ("gf.mul", "gf.addscale", "gf.frob"),
    "freelie.nf": ("freelie.nf",),
    "freelie.el_bracket": ("freelie.el_bracket",),
    "freelie.rowspace": ("freelie.rowspace.add", "freelie.rowspace.reduce"),
    "freelie.minimal_sigma_ideal": ("freelie.minimal_sigma_ideal",),
    "bch.env_mul": ("bch.env_mul",),
    "bch.ch_mul": ("bch.ch_mul",),
    "bch.ch_generic": ("bch.ch_generic",),
    "series": ("series.bracket", "series.sigma", "series.substitute",
               "series.split"),
    "ramgen.family": ("ramgen.family",),
    "lifts": ("lifts.solve_linearized", "lifts.solve_lift",
              "lifts.capped_ch"),
    "op (untraced callees)": ("op",),
}

# workload -> components whose summed self time should exceed every other
# component, and the wrapped calls that should not happen inside its ops.
PREDICTIONS = {
    "ch_law_p5": (("bch.env_mul",), ("freelie.rowspace.add",)),
    "ideal_p5": (("freelie.rowspace", "freelie.minimal_sigma_ideal"),
                 ("bch.env_mul",)),
    "lift_p5_n2": (("freelie.el_bracket", "gf"),
                   ("bch.env_mul", "freelie.rowspace.add")),
}


def layer_metrics(tracer: Tracer, gauges: list, overhead: float,
                  bch_table_s: float, agree: int, checked: int) -> dict:
    """Values of LAYER_METRICS by name."""
    tot = tracer.totals()
    cnt = tracer.counts
    ops = tot.get("op", (0,))[0]

    def per_op(x):
        return x / ops if ops else 0.0

    def calls(n):
        return per_op(tot.get(n, (0, 0.0, 0.0))[0])

    def incl(n):
        return tot.get(n, (0, 0.0, 0.0))[1]

    def self_s(*names):
        return sum(tot.get(n, (0, 0.0, 0.0))[2] for n in names)

    op_s = incl("op")

    def share(x):
        return x / op_s if op_s else 0.0

    pairs = cnt.get("freelie.el_bracket.pairs", 0)
    adds = tot.get("freelie.rowspace.add", (0,))[0]
    n = len(gauges)
    return {
        "trace.ops": ops,
        "trace.op_s": per_op(op_s),
        "trace.overhead": overhead,
        "gf.mul.calls": calls("gf.mul"),
        "gf.mul.self_s": per_op(self_s("gf.mul")),
        "gf.addscale.calls": calls("gf.addscale"),
        "gf.frob.calls": calls("gf.frob"),
        "gf.self_s": per_op(self_s(*COMPONENTS["gf"])),
        "freelie.nf.calls": calls("freelie.nf"),
        "freelie.nf.self_share": share(self_s("freelie.nf")),
        "freelie.nf_memo_entries": sum(g[0] for g in gauges) / n if n else 0,
        "freelie.words": sum(g[1] for g in gauges) / n if n else 0,
        "freelie.el_bracket.calls": calls("freelie.el_bracket"),
        "freelie.el_bracket.self_share":
            share(self_s("freelie.el_bracket")),
        "freelie.el_bracket.pairs": per_op(pairs),
        "freelie.el_bracket.yield":
            cnt.get("freelie.el_bracket.terms", 0) / pairs if pairs else 0.0,
        "freelie.rowspace.add.calls": per_op(adds),
        "freelie.rowspace.add_yield": (
            cnt.get("freelie.rowspace.add.accepted", 0) / adds if adds
            else 0.0),
        "freelie.rowspace.self_share":
            share(self_s(*COMPONENTS["freelie.rowspace"])),
        "freelie.minimal_sigma_ideal.share":
            share(incl("freelie.minimal_sigma_ideal")),
        "freelie.minimal_sigma_ideal.self_share":
            share(self_s("freelie.minimal_sigma_ideal")),
        "bch.ch_mul.calls": calls("bch.ch_mul"),
        "bch.ch_mul.share": share(incl("bch.ch_mul")),
        "bch.env_mul.calls": calls("bch.env_mul"),
        "bch.env_mul.self_share": share(self_s("bch.env_mul")),
        "bch.ch_generic.calls": calls("bch.ch_generic"),
        "bch.ch_generic.self_share": share(self_s("bch.ch_generic")),
        "bch.bch_table.s": bch_table_s,
        "series.bracket.calls": calls("series.bracket"),
        "series.bracket.self_share": share(self_s("series.bracket")),
        "series.substitute.share": share(incl("series.substitute")),
        "series.sigma.calls": calls("series.sigma"),
        "series.split.share": share(incl("series.split")),
        "ramgen.family.share": share(incl("ramgen.family")),
        "ramgen.family.elements":
            per_op(cnt.get("ramgen.family.elements", 0)),
        "ramgen.family.terms": per_op(cnt.get("ramgen.family.terms", 0)),
        "lifts.solve_linearized.share": share(incl("lifts.solve_linearized")),
        "lifts.solve_lift.share": share(incl("lifts.solve_lift")),
        "lifts.capped_ch.calls": calls("lifts.capped_ch"),
        "lifts.capped_ch.self_share": share(self_s("lifts.capped_ch")),
        "lifts.routes_agree": per_op(agree),
        "lifts.routes_checked": per_op(checked),
    }


def prediction_lines(tracer: Tracer, workload: str) -> list:
    """One line per prediction of PREDICTIONS[workload]: holds or FAILS."""
    tot = tracer.totals()
    comp = {c: sum(tot.get(n, (0, 0.0, 0.0))[2] for n in names)
            for c, names in COMPONENTS.items()}
    group, no_calls = PREDICTIONS[workload]
    lines = []
    mine = sum(comp[c] for c in group)
    rival = max((c for c in comp if c not in group), key=comp.get)
    ok = mine > comp[rival]
    lines.append(f"prediction {' + '.join(group)} self time {mine:.3f} s is "
                 f"the largest (next: {rival} {comp[rival]:.3f} s): "
                 f"{'holds' if ok else 'FAILS'}")
    for n in no_calls:
        c = tot.get(n, (0,))[0]
        lines.append(f"prediction {n}.calls = 0 inside the ops (got {c}): "
                     f"{'holds' if c == 0 else 'FAILS'}")
    return lines
