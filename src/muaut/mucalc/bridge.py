"""Rewriting plain-FO1 modalities into diamonds and boxes.

Each modality is normalized to a witness/cover form and rewritten as
"one diamond per witness type, one box over the cover disjunction".
Inside the scope of a least binder the continuous form is used, which
keeps box arguments free of the active letters; dually inside greatest
binders, so membership in the restricted calculi survives the rewrite.
"""
from __future__ import annotations

from .. import onestep as o
from ..syntax import each, rebuilt, scoped
from .ast import (MAnd, MBOT, MTOP, Modal, MOr, Mu, MuFormula, Nu, arg_names, box, check_wf,
                  dia, free_letters, is_box, is_dia, mand, mor)


class NotFO1Error(ValueError):
    pass


def _rewrite(bf: o.BasicForm, args, dual: bool = False) -> MuFormula:
    """One diamond per witness type and one box over the cover disjunction
    per record, disjoined; with dual, the complement of that rewrite of the
    dual modality (diamonds and boxes, conjunctions and disjunctions
    swapped)."""
    dia_, box_, and_, or_ = (box, dia, mor, mand) if dual else (dia, box, mand, mor)
    arg = dict(zip(arg_names(len(args)), args))
    disjuncts = []
    for d in bf.disjuncts:
        parts: list[MuFormula] = []
        for tp in d.witnesses:
            parts.append(dia_(and_(arg[a] for a in sorted(tp))))
        parts.append(box_(or_(
            and_(arg[a] for a in sorted(s))
            for s in sorted(d.cover, key=sorted)
        )))
        disjuncts.append(and_(parts))
    return or_(disjuncts)


def fo1_modal_bridge(f: MuFormula) -> MuFormula:
    """Equivalent formula whose every modality is a diamond or a box, of a
    well-formed f (else `IllFormedError`).

    Rewriting repeats argument subformulas across disjuncts.  Each repeat is
    one shared node, rewritten once, so a binder in it stays one binder node
    under its own letter and the result is well-formed as it stands.
    """

    @scoped
    def go(g: MuFormula, active: dict[str, type]) -> MuFormula:  # letter -> its binder's class
        match g:
            case MAnd(args):  # no argument after a false one (a true one in MOr) is rewritten
                return mand((yield from each(((a, active) for a in args), MBOT)))
            case MOr(args):
                return mor((yield from each(((a, active) for a in args), MTOP)))
            case Mu(p, _) | Nu(p, _):
                active = {**active, p: type(g)}
            case Modal(alpha, margs):
                if o.min_dialect(alpha) != o.FO1:
                    raise NotFO1Error("modality is not plain FO1: %s" % o.pretty(alpha))
                new_args = tuple((yield from each((a, active) for a in margs)))
                if is_dia(g) or is_box(g):
                    return Modal(alpha, new_args)
                preds = g.pred_names()
                sent = o.sentence(alpha, o.FO1, preds)
                kinds = [{active.get(q) for q in free_letters(a)} for a in margs]
                b_cont = frozenset(n for n, k in zip(preds, kinds) if Mu in k)
                b_cocont = frozenset(n for n, k in zip(preds, kinds) if Nu in k)
                if b_cont and o.in_continuous_fragment(alpha, b_cont):
                    bf = o.to_continuous_basic_form(sent, b_cont)
                    return _rewrite(bf, new_args)
                if b_cocont and o.in_cocontinuous_fragment(alpha, b_cocont):
                    bf = o.to_continuous_basic_form(
                        o.sentence(o.dual(alpha), o.FO1, preds), b_cocont)
                    return _rewrite(bf, new_args, dual=True)
                return _rewrite(o.to_basic_form(sent), new_args)
        return (yield from rebuilt(g, active))

    check_wf(f)  # so each bound letter has one binder, whose class `active` keeps
    return go(f, {})
