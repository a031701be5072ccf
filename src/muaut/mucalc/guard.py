"""Guarded transformation.

Two semantic facts drive the rewrite, both applied bottom-up per binder:

* an inner binder containing an unguarded occurrence of the outer letter
  can be unfolded once; since its own letter is already guarded, the
  copies substituted into guarded positions become guarded;
* once every unguarded occurrence of the letter sits at the boolean level,
  replacing those occurrences by bottom (for a least binder; top for a
  greatest) preserves the fixpoint: entering through an un-modalized
  occurrence requires already being in the approximant.

Worst-case exponential; fine at the scale this workbench targets.
"""
from __future__ import annotations

from .ast import (MAnd, MBOT, MTOP, Modal, MOr, Mu, MuFormula, Nu, Prop,
                  free_letters, refresh, simplify, substitute)


def _has_unguarded_under_binder(f: MuFormula, p: str) -> bool:
    """Is some unguarded occurrence of p strictly inside an inner binder?"""

    def go(g: MuFormula, inside: bool) -> bool:
        match g:
            case Prop(q):
                return inside and q == p
            case Modal():
                return False
            case Mu() | Nu():
                inside = True
        return any(go(a, inside) for a in g.children())

    return go(f, False)


def _unfold_offending_binder(f: MuFormula, p: str) -> MuFormula:
    """Unfold one innermost binder that hides an unguarded occurrence of p."""
    done = False  # set once a binder is unfolded; the rest is kept as it is

    def go(g: MuFormula) -> MuFormula:
        nonlocal done
        match g:
            case MAnd() | MOr():
                return g.rebuild(lambda a: a if done else go(a))
            case Mu(q, b) | Nu(q, b):
                inner = go(b)
                if done:
                    return type(g)(q, inner)
                if _unguarded_occurs(b, p):
                    done = True
                    return substitute(b, {q: g})
        return g

    new = go(f)
    if not done:
        raise AssertionError("no offending binder found")
    return new


def _unguarded_occurs(f: MuFormula, p: str) -> bool:
    match f:
        case Prop(q):
            return q == p
        case Modal():
            return False
    return any(_unguarded_occurs(a, p) for a in f.children())


def _drop_boolean_level(f: MuFormula, p: str, repl: MuFormula) -> MuFormula:
    """Replace boolean-level (not under any modality or binder) p by repl."""
    match f:
        case Prop(q) if q == p:
            return repl
        case MAnd() | MOr():
            return f.rebuild(lambda a: _drop_boolean_level(a, p, repl))
    return f


def guard_transform(f: MuFormula) -> MuFormula:
    """Equivalent guarded formula; guarded inputs come back unchanged.

    Preserves membership in the alternation-free and continuous calculi
    (checked by the classifier in the tests, alongside semantic agreement
    on random systems).
    """

    def go(g: MuFormula) -> MuFormula:
        if not isinstance(g, (Mu, Nu)):
            return g.rebuild(go)
        p, b = g.var, go(g.body)
        while _has_unguarded_under_binder(b, p):
            b = _unfold_offending_binder(b, p)
        if _unguarded_occurs(b, p):
            b = simplify(_drop_boolean_level(b, p, MBOT if isinstance(g, Mu) else MTOP))
        return type(g)(p, b) if p in free_letters(b) else b

    out = go(f)
    if out != f:
        out = refresh(simplify(out))
    return out
