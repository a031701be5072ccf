"""Seeded random instance generation for the cross-validation harness.

Size caps are deliberately small: the expensive constructions (powerset
simulation, subset-enumeration oracles) are exponential and every suite is
meant to run in seconds.
"""
from __future__ import annotations

import random

from . import lts as L
from . import mucalc as mc
from . import onestep as o


def rand_lts(rng: random.Random, props=("p", "q"), max_states: int = 6,
             edge_prob: float = 0.35) -> L.LTS:
    n = rng.randint(1, max_states)
    edges = set()
    for a in range(n):
        for b in range(n):
            if rng.random() < edge_prob:
                edges.add((a, b))
    cols = {s: [p for p in props if rng.random() < 0.4] for s in range(n)}
    return L.make_lts(props, n, edges, cols, init=rng.randrange(n))


def rand_tree(rng: random.Random, props=("p", "q"), depth: int = 3,
              max_branch: int = 2) -> L.LTS:
    """Random finite tree of bounded depth and branching."""
    edges = []
    cols = {}
    counter = [0]

    def grow(node: int, d: int):
        cols[node] = [p for p in props if rng.random() < 0.4]
        if d == 0:
            return
        for _ in range(rng.randint(0, max_branch)):
            counter[0] += 1
            child = counter[0]
            edges.append((node, child))
            grow(child, d - 1)

    grow(0, depth)
    return L.make_lts(props, counter[0] + 1, edges, cols, init=0)


def rand_onestep(rng: random.Random, preds=("a", "b"), depth: int = 2,
                 dialect: str = o.FOE1INF, positive: bool = True) -> o.OneStepFormula:
    """Random sentence of bounded quantifier depth in the given dialect."""

    def go(bound_vars: list[str], d: int) -> o.Formula:
        atoms = []
        if bound_vars:
            atoms.append(lambda: o.Pred(rng.choice(preds), rng.choice(bound_vars)))
            if not positive:
                atoms.append(lambda: o.NegPred(rng.choice(preds), rng.choice(bound_vars)))
        if len(bound_vars) >= 2 and dialect != o.FO1:
            def eq():
                x, y = rng.sample(bound_vars, 2)
                return o.Eq(x, y) if rng.random() < 0.5 else o.Neq(x, y)
            atoms.append(eq)
        kinds = []
        if atoms:
            kinds += ["atom"] * 3
        if d > 0:
            kinds += ["quant"] * 3 + ["bool"] * 2
        if not kinds:
            kinds = ["quant"]
        kind = rng.choice(kinds)
        if kind == "atom":
            return rng.choice(atoms)()
        if kind == "bool":
            args = tuple(go(bound_vars, d - 1) for _ in range(rng.choice([2, 2, 3])))
            return o.And(args) if rng.random() < 0.5 else o.Or(args)
        v = "v%d" % (len(bound_vars) + 1)
        quants = [o.Exists, o.Forall]
        if dialect == o.FOE1INF:
            quants += [o.ExistsInf, o.ForallInf]
            if rng.random() < 0.1 and d >= 1:
                return o.W(v, go(bound_vars + [v], d - 1), go(bound_vars + [v], d - 1))
        return rng.choice(quants)(v, go(bound_vars + [v], d - 1))

    ast = go([], depth)
    return o.sentence(ast, dialect, preds)


def enumerate_sentences(preds=("a", "b"), max_rank: int = 2, dialect: str = o.FOE1INF):
    """Deterministic family of sentences of quantifier depth <= max_rank.

    Exhaustive over a structured template space: matrices are literals,
    equalities and their two-way conjunctions/disjunctions over the bound
    variables; prefixes run over all quantifier sequences.  This is the
    "all sentences" family used by the exhaustive acceptance suites.
    """
    quants = [o.Exists, o.Forall]
    if dialect == o.FOE1INF:
        quants += [o.ExistsInf, o.ForallInf]

    def matrices(bound_vars):
        atoms = []
        for a in preds:
            for x in bound_vars:
                atoms.append(o.Pred(a, x))
                atoms.append(o.NegPred(a, x))
        if dialect != o.FO1 and len(bound_vars) >= 2:
            for i in range(len(bound_vars)):
                for j in range(i + 1, len(bound_vars)):
                    atoms.append(o.Eq(bound_vars[i], bound_vars[j]))
                    atoms.append(o.Neq(bound_vars[i], bound_vars[j]))
        yield from atoms
        for i, f in enumerate(atoms):
            for g in atoms[i + 1:]:
                yield o.And((f, g))
                yield o.Or((f, g))

    def build(prefix_len):
        if prefix_len == 0:
            yield o.And(())
            yield o.Or(())
            return
        vars_ = ["v%d" % (i + 1) for i in range(prefix_len)]
        from itertools import product
        for combo in product(quants, repeat=prefix_len):
            for mat in matrices(vars_):
                f = mat
                for q, v in zip(reversed(combo), reversed(vars_)):
                    f = q(v, f)
                yield f

    for k in range(max_rank + 1):
        for ast in build(k):
            yield o.sentence(ast, dialect, preds)


# ---------------------------------------------------------------------------
# fixpoint formulas

def _cont_modal_pool(rng, dialect, n_active, n_free):
    """Small pool of one-step formulas continuous in the first n_active
    argument predicates (a1..a{n_active}), over n_active+n_free args."""
    names = list(mc.arg_names(n_active + n_free))
    act, fre = names[:n_active], names[n_active:]
    pool = []
    if act:
        pick = rng.sample(act, rng.randint(1, len(act)))
        pool.append(o.Exists("x", o.conj(o.Pred(a, "x") for a in pick)))
        if fre:
            pool.append(o.Exists("x", o.And((o.Pred(rng.choice(act), "x"),
                                             o.Forall("y", o.Pred(rng.choice(fre), "y"))))))
        if dialect == o.FOE1INF and fre:
            pool.append(o.W("x", o.Pred(rng.choice(act), "x"), o.Pred(rng.choice(fre), "x")))
    return pool


def rand_mu(rng: random.Random, props=("p", "q"), depth: int = 3, mode: str = "any",
            modalities: str = "plain"):
    """Random well-formed fixpoint formula.

    mode: 'any' (unrestricted), 'af' (alternation-free by construction) or
    'cont' (continuous calculus by construction).  modalities: 'plain'
    (diamond/box only) or a one-step dialect name to also emit general
    modalities on letter-free subtrees (plus continuous-shaped ones on
    active paths in 'cont' mode).
    """
    counter = [0]

    def fresh():
        counter[0] += 1
        return "z%d" % counter[0]

    def literal(active):
        pool = [mc.Prop(p) for p in props] + [mc.NegProp(p) for p in props]
        pool += [mc.Prop(v) for v in active] * 2
        return rng.choice(pool)

    def general_modal(d, active, kind):
        n = rng.randint(1, 2)
        dialect = modalities
        alpha = rand_onestep(rng, mc.arg_names(n), 1, dialect, positive=True).ast
        args = tuple(go(d - 1, (), "free") for _ in range(n))
        return mc.Modal(alpha, args)

    def cont_modal(d, active, kind):
        n_act = rng.randint(1, 2)
        n_free = rng.randint(0, 1)
        pool = _cont_modal_pool(rng, modalities, n_act, n_free)
        if not pool:
            return mc.dia(go(d - 1, active, kind))
        alpha = rng.choice(pool)
        args = tuple(go(d - 1, active, kind) for _ in range(n_act))
        args += tuple(go(d - 1, (), "free") for _ in range(n_free))
        a = mc.Modal(alpha, args)
        if kind == "cocont":
            a = mc.negate(a)
            # dualize back to keep active letters positive
            a = mc.Modal(a.alpha, tuple(mc.negate(x) for x in a.args))
        return a

    def go(d, active, kind):
        opts = ["lit"] * 2
        if d > 0:
            opts += ["bool"] * 2 + ["modal"] * 3 + ["binder"] * 2
        k = rng.choice(opts)
        if k == "lit" or d == 0:
            return literal(active)
        if k == "bool":
            args = tuple(go(d - 1, active, kind) for _ in range(2))
            return mc.MAnd(args) if rng.random() < 0.5 else mc.MOr(args)
        if k == "modal":
            if modalities != "plain" and rng.random() < 0.35:
                if kind in ("cont", "cocont") and active:
                    return cont_modal(d, active, kind)
                if kind in ("free",) or not active:
                    return general_modal(d, active, kind)
            if kind == "cont" and active:
                if rng.random() < 0.7:
                    return mc.dia(go(d - 1, active, kind))
                return mc.box(go(d - 1, (), "free"))
            if kind == "cocont" and active:
                if rng.random() < 0.7:
                    return mc.box(go(d - 1, active, kind))
                return mc.dia(go(d - 1, (), "free"))
            f = go(d - 1, active, kind)
            return mc.dia(f) if rng.random() < 0.5 else mc.box(f)
        v = fresh()
        if mode == "any":
            body = go(d - 1, active + (v,), "free")
            return mc.Mu(v, body) if rng.random() < 0.5 else mc.Nu(v, body)
        if mode == "af":
            if kind in ("free", "noe") and rng.random() < (0.5 if kind == "free" else 0.8):
                return mc.Mu(v, go(d - 1, (active if kind == "noe" else ()) + (v,), "noe"))
            if kind in ("free", "conoe"):
                return mc.Nu(v, go(d - 1, (active if kind == "conoe" else ()) + (v,), "conoe"))
            return mc.Mu(v, go(d - 1, (v,), "noe"))  # kind noe, nu not allowed on active path
        # mode == 'cont'
        if kind in ("free", "cont") and rng.random() < (0.5 if kind == "free" else 0.8):
            return mc.Mu(v, go(d - 1, (active if kind == "cont" else ()) + (v,), "cont"))
        if kind in ("free", "cocont"):
            return mc.Nu(v, go(d - 1, (active if kind == "cocont" else ()) + (v,), "cocont"))
        return mc.Mu(v, go(d - 1, (v,), "cont"))

    f = go(depth, (), "free")
    mc.check_wf(f)
    return f


# ---------------------------------------------------------------------------
# automata

def _rand_entry_pool(rng, dialect, state_preds, parity=None):
    """Builders of candidate transition entries mentioning one to three
    state predicates; the caller draws one and builds only that entry.

    With parity 1 only continuity-friendly shapes are offered (existential
    over the mentioned states), with parity 0 co-continuous ones; the
    classifier still has the final word.
    """
    pool = [lambda: o.TOP, lambda: o.BOT]
    if not state_preds:
        return pool
    k = min(len(state_preds), 3)
    mention = rng.sample(list(state_preds), rng.randint(1, k))
    tp = frozenset(rng.sample(mention, rng.randint(1, len(mention))))
    a = rng.choice(mention)
    if parity in (None, 1):
        pool.append(lambda: o.Exists("x", o.type_atom(tp, "x")))
        pool.append(lambda: o.disj([o.Exists("x", o.Pred(m, "x")) for m in mention]))
        if dialect != o.FO1:
            pool.append(lambda: o.Exists("x", o.Exists("y", o.conj(
                [o.Neq("x", "y"), o.Pred(a, "x"), o.Pred(a, "y")]))))
    if parity in (None, 0):
        pool.append(lambda: o.Forall("x", o.type_atom(tp, "x")))
        pool.append(lambda: o.conj([o.Forall("x", o.Pred(m, "x")) for m in mention]))
        if dialect != o.FO1:
            pool.append(lambda: o.Forall("x", o.Forall("y", o.disj(
                [o.Eq("x", "y"), o.Pred(a, "x"), o.Pred(a, "y")]))))
    if parity is None:
        pool.append(lambda: o.Exists("x", o.And((o.type_atom(tp, "x"),
                                                 o.Forall("y", o.Pred(a, "y"))))))
    if dialect == o.FOE1INF:
        if parity is None:
            pool.append(lambda: o.ExistsInf("x", o.Pred(a, "x")))
            pool.append(lambda: o.ForallInf("x", o.Pred(a, "x")))
        if len(mention) >= 2 and parity in (None, 1):
            b = rng.choice([m for m in mention if m != a])
            pool.append(lambda: o.W("x", o.Pred(a, "x"), o.Pred(b, "x")))
    return pool


def rand_automaton(rng: random.Random, props=("p",), n_states: int = 2,
                   dialect: str = o.FOE1INF, want: str = "any"):
    """Random parity automaton; `want` in {'any','weak','cw'} filters by the
    classifier (up to 200 draws), so weak/continuous-weak requests hold."""
    from . import automata as au

    ps = L.PropSet(tuple(props))
    preds = [au.pred_name(a) for a in range(n_states)]
    for _ in range(200):
        omega = tuple(rng.choice([0, 1]) for _ in range(n_states))
        delta = {}
        for a in range(n_states):
            parity = omega[a] % 2 if want == "cw" else None
            for c in ps.colours():
                pool = _rand_entry_pool(rng, dialect, preds, parity)
                delta[(a, c)] = rng.choice(pool)()
        aut = au.ParityAutomaton(dialect, ps, n_states, 0, omega, delta)
        if want == "any":
            return aut
        rep = au.classify_automaton(aut)
        if want == "weak" and rep.weak:
            return aut
        if want == "cw" and rep.continuous_weak:
            return aut
    raise RuntimeError("no %s automaton found in 200 tries" % want)
