"""Translating restricted fixpoint calculi into second-order logic.

The least-binder clause quantifies a restriction set q (finite for the
weak logic, noetherian for the noetherian one) and says v lies in every
prefixpoint of the q-restricted functional; greatest binders go through
the dual least binder.  Modalities translate by relativizing their
one-step sentence to the successors of the current individual variable.
"""
from __future__ import annotations

from functools import reduce

from .. import mucalc as mc
from .. import onestep as o
from .ast import (KEYWORDS, EqVar, ExistsSet, ExistsVar, Mso2, Not2, Or2, PredApp,
                  RelApp, and2, conj2, forall_set, forall_var, implies2,
                  substitute_atom, FINITE, NOETHERIAN)


class FragmentError(ValueError):
    pass


def onestep_dagger(alpha: o.Formula, v: str, fresh) -> Mso2:
    """Relativize a one-step sentence to the successors of v.

    Predicate atoms stay atoms (to be substituted later); the infinity
    quantifier becomes "outside every finite set there is a witness".
    """
    alpha = o.expand_sugar(alpha)

    def go(g: o.Formula) -> Mso2:
        match g:
            case o.Pred(a, x):
                return PredApp(a, x)
            case o.NegPred(a, x):
                return Not2(PredApp(a, x))
            case o.Eq(x, y):
                return EqVar(x, y)
            case o.Neq(x, y):
                return Not2(EqVar(x, y))
            case o.And(args) | o.Or(args):
                return _junction2(g, map(go, args), v)
            case o.Exists(x, b):
                return ExistsVar(x, and2(RelApp(v, x), go(b)))
            case o.Forall(x, b):
                return forall_var(x, implies2(RelApp(v, x), go(b)))
            case o.ExistsInf(x, b):
                p = fresh("fin")
                return forall_set(
                    p,
                    ExistsVar(x, conj2([RelApp(v, x), Not2(PredApp(p, x)), go(b)])),
                    FINITE,
                )
            case o.ForallInf(x, b):
                p = fresh("fin")
                return Not2(forall_set(
                    p,
                    ExistsVar(x, conj2([RelApp(v, x), Not2(PredApp(p, x)), Not2(go(b))])),
                    FINITE,
                ))
        raise TypeError(g)

    return go(alpha)


def _false(v: str) -> Mso2:
    return Not2(EqVar(v, v))


def _junction2(g, parts, v: str) -> Mso2:
    """The n-ary conjunction or disjunction g (one-step or fixpoint) over
    its translated parts, built in order: `conj2`, or left-nested `Or2`;
    truth or falsity at v when there are no parts."""
    parts = list(parts)
    conjunction = isinstance(g, (o.And, mc.MAnd))
    if not parts:
        return Not2(_false(v)) if conjunction else _false(v)
    return conj2(parts) if conjunction else reduce(Or2, parts)


def _freshen_vars(alpha: o.Formula, fresh) -> o.Formula:
    """alpha without sugar, every quantified variable renamed fresh("w")."""

    def go(g: o.Formula, ren: dict[str, str]) -> o.Formula:
        match g:
            case o.Pred(a, x) | o.NegPred(a, x):
                return type(g)(a, ren[x])
            case o.Eq(x, y) | o.Neq(x, y):
                return type(g)(ren[x], ren[y])
            case o.And() | o.Or():
                return g.rebuild(lambda a: go(a, ren))
        w = fresh("w")
        return type(g)(w, go(g.body, {**ren, g.var: w}))

    return go(o.expand_sugar(alpha), {})


def mu_to_mso(f: mc.MuFormula, logic: str) -> Mso2:
    """The translation into the two-sorted language, with v free.

    The weak target needs the continuous calculus, the noetherian target
    the alternation-free one (over the matching one-step dialect); the
    classifier enforces both.
    """
    logic = logic.lower()
    if logic not in ("wmso", "nmso"):
        raise FragmentError("translation targets the wmso and nmso logics")
    mode = FINITE if logic == "wmso" else NOETHERIAN
    rep = mc.classify(f)
    dialect = mc.modal_dialect(f)
    if logic == "wmso":
        if not rep.continuous_calculus:
            raise FragmentError("weak target needs the continuous calculus")
        if dialect not in (o.FO1, o.FOE1, o.FOE1INF):
            raise FragmentError("unknown dialect")
    else:
        if not rep.alternation_free:
            raise FragmentError("noetherian target needs the alternation-free calculus")
        if dialect == o.FOE1INF:
            raise FragmentError("noetherian target cannot host infinity modalities")

    free = mc.free_letters(f)
    if free & KEYWORDS:
        raise FragmentError("letter %r is a keyword of the two-sorted syntax"
                            % min(free & KEYWORDS))
    # a modality's argument atoms are named stem1, stem2, ... apart from the
    # free letters, so substituting one argument captures no letter of another
    stem = "a"
    while any(p.startswith(stem) and p[len(stem):].isdigit() for p in free):
        stem = "_" + stem
    counter = [0]

    def fresh(base: str) -> str:
        """base<n> for the next n whose name is no free letter of f."""
        counter[0] += 1
        while "%s%d" % (base, counter[0]) in free:
            counter[0] += 1
        return "%s%d" % (base, counter[0])

    def tr(g: mc.MuFormula, v: str, ren: dict[str, str]) -> Mso2:
        """g at the individual variable v, each bound letter p read as the
        set variable ren[p]."""
        match g:
            case mc.Prop(p):
                return PredApp(ren.get(p, p), v)
            case mc.NegProp(p):
                return Not2(PredApp(p, v))
            case mc.MAnd(args) | mc.MOr(args):
                return _junction2(g, (tr(a, v, ren) for a in args), v)
            case mc.Modal(alpha, args):
                # globally fresh quantified variables rule out shadowing
                # when argument translations are substituted for atoms
                atoms = ["%s%d" % (stem, i + 1) for i in range(len(args))]
                alpha = o.rename_pred(alpha, dict(zip(g.pred_names(), atoms)))
                body = onestep_dagger(_freshen_vars(alpha, fresh), v, fresh)
                for atom, arg in zip(atoms, args):
                    body = substitute_atom(body, atom, lambda x, arg=arg: tr(arg, x, ren))
                return body
            case mc.Mu(p, b):
                return _mu_clause(p, b, v, ren)
            case mc.Nu(p, b):
                return Not2(_mu_clause(p, mc.negate(b, frozenset({p})), v, ren))
        raise TypeError(g)

    def _mu_clause(p: str, body: mc.MuFormula, v: str, ren: dict[str, str]) -> Mso2:
        q = fresh("set")
        r = fresh("set")  # p as a set variable, named in its sort
        w = fresh("w")
        subset = forall_var(w, implies2(PredApp(r, w), PredApp(q, w)))
        prefix = forall_var(
            w, implies2(and2(PredApp(q, w), tr(body, w, {**ren, p: r})), PredApp(r, w)))
        # p quantified in the logic's own mode, restricted to q
        inner = forall_set(r, implies2(and2(subset, prefix), PredApp(r, v)), mode)
        return ExistsSet(q, inner, mode)

    return tr(f, "v", {})


def mu_holds_via_mso(f: mc.MuFormula, lts, logic: str) -> bool:
    from .eval import holds_at_init2

    return holds_at_init2(mu_to_mso(f, logic), lts)
