"""Grammar-based fragment classification of fixpoint formulas.

The noetherian fragments restrict which binder may see a letter again
(vertical recursion); the continuous fragments additionally restrict the
modalities through which a letter may recur to continuous positions
(horizontal finiteness).  Alternation freedom restricts least binders to
noetherian bodies and greatest binders to co-noetherian ones; the
continuous calculus does the same with the continuous grammars.
"""
from __future__ import annotations

from dataclasses import dataclass

from .. import onestep as o
from .ast import (Modal, Mu, MuFormula, NegProp, Nu, Prop, is_box, is_dia,
                  free_letters, subformulas)
from .guard import _unguarded_occurs


def in_grammar(f: MuFormula, q: frozenset[str], binder: type, fragment=None) -> bool:
    """Membership in the grammar where the letters q occur only positively,
    only below binders of class `binder`, and, when `fragment` is given,
    only in argument positions B of a modality alpha with fragment(alpha, B)."""
    if not free_letters(f) & q:
        return True
    match f:
        case Prop(p):
            return p in q
        case NegProp():
            return False
        case Mu(p, b) | Nu(p, b):
            return isinstance(f, binder) and in_grammar(b, q | {p}, binder, fragment)
        case Modal(alpha, args) if fragment is not None:
            touching = frozenset(
                name for name, a in zip(f.pred_names(), args) if free_letters(a) & q
            )
            if not fragment(alpha, touching):
                return False
    return all(in_grammar(a, q, binder, fragment) for a in f.children())


def in_continuous(f: MuFormula, q: frozenset[str]) -> bool:
    return in_grammar(f, q, Mu, o.in_continuous_fragment)


def _body_in_grammar(g: Mu | Nu, continuous: bool) -> bool:
    """Is the binder's body in the grammar for its letter: (co)noetherian,
    or (co)continuous when `continuous`?"""
    fragment = None
    if continuous:
        fragment = o.in_continuous_fragment if isinstance(g, Mu) else o.in_cocontinuous_fragment
    return in_grammar(g.body, frozenset({g.var}), type(g), fragment)


def is_guarded(f: MuFormula) -> bool:
    """Every bound-letter occurrence has a modality between it and its binder."""
    return not any(_unguarded_occurs(g.body, g.var)
                   for g in subformulas(f) if isinstance(g, (Mu, Nu)))


def is_plain_modal(f: MuFormula) -> bool:
    """All modalities are the diamond/box instances."""
    return all(is_dia(g) or is_box(g) for g in subformulas(f) if isinstance(g, Modal))


@dataclass(frozen=True)
class FragmentReport:
    plain_modal: bool
    alternation_free: bool
    continuous_calculus: bool
    guarded: bool
    binders: tuple[tuple[str, str, bool, bool], ...]
    # (letter, binder kind, noetherian-grammar body, continuous-grammar body)


def classify(f: MuFormula) -> FragmentReport:
    binders = tuple((g.var, "mu" if isinstance(g, Mu) else "nu",
                     _body_in_grammar(g, False), _body_in_grammar(g, True))
                    for g in subformulas(f) if isinstance(g, (Mu, Nu)))
    return FragmentReport(
        plain_modal=is_plain_modal(f),
        alternation_free=all(b[2] for b in binders),
        continuous_calculus=all(b[3] for b in binders),
        guarded=is_guarded(f),
        binders=binders,
    )
