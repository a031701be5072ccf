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

from ..syntax import rebuilt, scoped, stored, union
from .ast import (MAnd, MBOT, MTOP, Modal, MOr, Mu, MuFormula, NegProp, Nu, Prop,
                  free_letters, has_binder, refresh, simplify)


@stored
def _unguarded(f: MuFormula) -> tuple[frozenset[str], frozenset[str]]:
    """The letters with an occurrence in f under no modality, and those with
    such an occurrence strictly inside a binder of f, f itself included.
    A binder's own letter counts as any other."""
    match f:
        case Prop(p):
            return frozenset({p}), frozenset()
        case NegProp() | Modal():
            return frozenset(), frozenset()
        case Mu(_, b) | Nu(_, b):
            return _unguarded(b)[0], _unguarded(b)[0]
    return tuple(map(union, zip(*map(_unguarded, f.children())))) or (frozenset(),) * 2


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
                if p in _unguarded(b)[0]:
                    done = True
                    return _plug(b, {q: g})
        return g

    new = go(f)
    if not done:
        raise AssertionError("no offending binder found")
    return new


@scoped
def _plug(f: MuFormula, sigma: dict[str, MuFormula]) -> MuFormula:
    """f with each free letter p in sigma replaced by sigma[p], renaming no
    binder: here each image binds every letter that f binds, so none is free."""
    if isinstance(f, Prop):
        return sigma.get(f.name, f)
    return f if sigma.keys().isdisjoint(free_letters(f)) else (yield from rebuilt(f, sigma))


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

    @scoped
    def go(g: MuFormula, ctx: frozenset) -> MuFormula:  # ctx is empty: one value per node
        if not isinstance(g, (Mu, Nu)):
            return (yield from rebuilt(g, ctx)) if has_binder(g) else g
        p, b = g.var, (yield g.body, ctx)
        while p in _unguarded(b)[1]:
            b = _unfold_offending_binder(b, p)
        if p in _unguarded(b)[0]:
            b = simplify(_drop_boolean_level(b, p, MBOT if isinstance(g, Mu) else MTOP))
        return type(g)(p, b) if p in free_letters(b) else b

    out = go(f)
    if out != f:
        out = refresh(simplify(out))
    return out
