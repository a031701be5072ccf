"""Translating restricted fixpoint calculi into second-order logic.

The least-binder clause quantifies a restriction set q (finite for the
weak logic, noetherian for the noetherian one) and says v lies in every
prefixpoint of the q-restricted functional; greatest binders go through
the dual least binder.  Modalities relativize their one-step sentence to
the successors of the current individual variable.  Individual variables
are reused level by level, as in the finite-variable standard translation
(Blackburn, de Rijke & Venema, Modal Logic, 2001, 2.4), so a translation
at v has only v free and each subformula is translated once per variable.
"""
from __future__ import annotations

from functools import reduce
from itertools import count

from .. import mucalc as mc
from .. import onestep as o
from ..syntax import each, scoped
from .ast import (KEYWORDS, EqVar, ExistsSet, ExistsVar, Mso2, Not, Or, PredApp,
                  RelApp, conj, forall_set, forall_var, implies,
                  FINITE, NOETHERIAN)


class FragmentError(ValueError):
    pass


def _point(j: int, v: str) -> str:
    """The j-th (from 1) of w1, w2, ... that is not v."""
    return "w%d" % (j + 1) if v in ["w%d" % i for i in range(1, j + 1)] else "w%d" % j


def onestep_dagger(alpha: o.Formula, v: str, fresh, atom) -> Mso2:
    """`_dagger` of alpha, each predicate atom a(x) translated as atom(a, y)."""
    steps, value = _dagger(alpha, v, fresh, {a: a for a in o.predicates(alpha)}), None
    while True:
        try:
            value = atom(*steps.send(value))
        except StopIteration as done:
            return done.value


def _dagger(alpha: o.Formula, v: str, fresh, arg: dict):
    """Relativize a one-step sentence to the successors of v, as a `scoped`
    step: a predicate atom a(x) yields (arg[a], y), y the individual variable
    of x, and is sent its translation; the infinity quantifier becomes
    "outside every finite set there is a witness".  Every infinity quantifier
    of one call binds the same set name, drawn at the first: an inner one
    shadows an outer one only in its own body, where the outer set is not
    referred to, and equal sub-translations then share their nodes.
    """
    fin: list[str] = []

    def go(g: o.Formula, names: dict[str, str], depth: int) -> Mso2:
        match g:
            case o.Pred(a, x):
                return (yield arg[a], names[x])
            case o.NegPred(a, x):
                return Not((yield arg[a], names[x]))
            case o.Eq(x, y):
                return EqVar(names[x], names[y])
            case o.Neq(x, y):
                return Not(EqVar(names[x], names[y]))
            case o.And(args) | o.Or(args):
                parts = []
                for a in args:
                    parts.append((yield from go(a, names, depth)))
                return _junction2(g, parts, v)
        y = _point(depth + 1, v)
        body = yield from go(g.body, {**names, g.var: y}, depth + 1)
        match g:
            case o.Exists():
                return ExistsVar(y, conj((RelApp(v, y), body)))
            case o.Forall():
                return forall_var(y, implies(RelApp(v, y), body))
            case o.ExistsInf() | o.ForallInf():
                if not fin:
                    fin.append(fresh("fin"))
                p = fin[0]
                dual = isinstance(g, o.ForallInf)  # a finite set holds every counterexample
                out = forall_set(p, ExistsVar(y, conj(
                    [RelApp(v, y), Not(PredApp(p, y)), Not(body) if dual else body])), FINITE)
                return Not(out) if dual else out
        raise TypeError(g)

    return (yield from go(o.expand_sugar(alpha), {}, 0))


def _false(v: str) -> Mso2:
    return Not(EqVar(v, v))


def _junction2(g, parts, v: str) -> Mso2:
    """The n-ary conjunction or disjunction g (one-step or fixpoint) over
    its translated parts, built in order: `conj`, or left-nested `Or`;
    truth or falsity at v when there are no parts."""
    parts = list(parts)
    conjunction = isinstance(g, (o.And, mc.MAnd))
    if not parts:
        return Not(_false(v)) if conjunction else _false(v)
    return conj(parts) if conjunction else reduce(Or, parts)


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
    # each bound letter names one binder node and is not free
    mc.check_wf(f)
    numbers = count(1)

    def fresh(base: str) -> str:
        """base<n> for the next n whose name is no free letter of f."""
        return next(q for q in map((base + "%d").__mod__, numbers) if q not in free)

    sets: dict[str, tuple[str, str]] = {}  # bound letter -> (restriction q, itself as r)

    @scoped
    def tr(g: mc.MuFormula, v: str) -> Mso2:
        """g at the individual variable v, translated once per pair."""
        match g:
            case mc.Prop(p):
                return PredApp(p if p in free else sets[p][1], v)
            case mc.NegProp(p):
                return Not(PredApp(p, v))
            case mc.MAnd(args) | mc.MOr(args):
                return _junction2(g, (yield from each((a, v) for a in args)), v)
            case mc.Modal(alpha, args):
                return (yield from _dagger(alpha, v, fresh, dict(zip(g.pred_names(), args))))
            case mc.Mu(p, body) | mc.Nu(p, body):
                if isinstance(g, mc.Nu):  # through the dual least binder
                    body = mc.negate(body, frozenset({p}))
                if p not in sets:
                    sets[p] = fresh("set"), fresh("set")
                q, r = sets[p]
                w = _point(1, v)
                subset = forall_var(w, implies(PredApp(r, w), PredApp(q, w)))
                prefix = forall_var(w, implies(conj((PredApp(q, w), (yield body, w))), PredApp(r, w)))
                # p quantified in the logic's own mode, restricted to q
                inner = forall_set(r, implies(conj((subset, prefix)), PredApp(r, v)), mode)
                out = ExistsSet(q, inner, mode)
                return Not(out) if isinstance(g, mc.Nu) else out
        raise TypeError(g)

    return tr(f, "v")


def mu_holds_via_mso(f: mc.MuFormula, lts, logic: str) -> bool:
    from .eval import holds_at_init

    return holds_at_init(mu_to_mso(f, logic), lts)
