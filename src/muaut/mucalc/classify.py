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
from ..syntax import stored, union
from .ast import (Modal, Mu, MuFormula, NegProp, Nu, Prop, binders, is_box, is_dia,
                  free_letters, subformulas)
from .guard import _unguarded


@stored
def _leaving(f: MuFormula) -> tuple[frozenset[str], ...]:
    """For each of four grammars, the free letters p for which f is outside
    it: p only positive, below least (grammars 0, 2) or greatest (1, 3) binders
    and, in 2 and 3, only in positions B of modalities (co)continuous in B,
    which holds when it holds for each member of B, so p is tested alone."""
    match f:
        case Prop():
            return (frozenset(),) * 4
        case NegProp(p):
            return (frozenset({p}),) * 4
        case Mu(p, b) | Nu(p, b):
            return tuple(s if k % 2 == isinstance(f, Nu) and p not in s else free_letters(f)
                         for k, s in enumerate(_leaving(b)))
    out = [union(sets) for sets in zip(*map(_leaving, f.children()))] or [frozenset()] * 4
    if isinstance(f, Modal):
        for k, fragment in ((2, o.in_continuous_fragment), (3, o.in_cocontinuous_fragment)):
            out[k] = union([out[k], *(free_letters(a) for name, a in zip(f.pred_names(), f.args)
                                      if not fragment(f.alpha, {name}))])
    return tuple(out)


def in_continuous(f: MuFormula, q: frozenset[str]) -> bool:
    """Do the letters q occur in f only positively, below least binders
    and in continuous modality positions?"""
    return _leaving(f)[2].isdisjoint(q)


def is_guarded(f: MuFormula) -> bool:
    """Every bound-letter occurrence has a modality between it and its binder."""
    return not any(g.var in _unguarded(g.body)[0] for g, _ in binders(f))


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
    # is the binder's body in the (co)noetherian and the (co)continuous grammar for its letter?
    table = tuple((g.var, "mu" if isinstance(g, Mu) else "nu",
                   *(g.var not in _leaving(g.body)[isinstance(g, Nu) + k] for k in (0, 2)))
                  for g, _ in binders(f))
    return FragmentReport(
        plain_modal=is_plain_modal(f),
        alternation_free=all(b[2] for b in table),
        continuous_calculus=all(b[3] for b in table),
        guarded=is_guarded(f),
        binders=table,
    )
