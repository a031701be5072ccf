"""Evaluation games for fixpoint formulas.

Positions pair subformulas with states; the modality move lets Exists pick
a witness set Z of (argument, successor) pairs whose induced valuation
satisfies the one-step formula, and Forall then picks one pair.  Priorities
sit on variable-unfolding positions: binder type gives the parity, binder
depth the order (outermost highest), which encodes the dominant-unfolding
winning condition under the max-even convention.
"""
from __future__ import annotations

from dataclasses import dataclass

from .. import onestep as o
from ..lts import LTS
from ..paritygame import EXISTS, FORALL, ParityGame, build_arena, solve
from .ast import (MAnd, Modal, MOr, Mu, MuFormula, NegProp, Nu, Prop,
                  check_wf, free_letters, subformulas)


def binder_priorities(f: MuFormula) -> dict[str, int]:
    """Priority per bound letter: nu even, mu odd, outer above inner."""
    depths: dict[str, tuple[int, bool]] = {}

    def walk(g: MuFormula, d: int):
        if isinstance(g, (Mu, Nu)):
            depths[g.var] = (d, isinstance(g, Mu))
            d += 1
        for a in g.children():
            walk(a, d)

    walk(f, 0)
    maxd = max((d for d, _ in depths.values()), default=0)
    out = {}
    for p, (d, is_mu) in depths.items():
        base = 2 * (maxd - d)
        out[p] = base + 1 if is_mu else base
    return out


@dataclass(frozen=True)
class EvalGame:
    game: ParityGame
    positions: tuple  # parallel description of each position
    root: int


def modality_moves(g: Modal, lts: LTS, s: int, full_enumeration: bool = False):
    """Witness sets available to Exists at a modality position.

    By monotonicity, subset-minimal witness sets suffice: any satisfying
    set extends a minimal one and only offers Forall more options.  They
    come from minimal valuations over range(k) for out-degree k, relabelled
    onto the successors, and a bounded process-wide memo
    (`onestep.min_valuations_memo`) keeps those per (one-step formula,
    out-degree).  The full enumeration (`onestep.all_valuations`) is kept
    as a regression oracle.
    """
    succ = lts.successors(s)
    if full_enumeration:
        arg = {a: i for i, a in enumerate(g.pred_names())}
        return [frozenset((arg[a], t) for (a, t) in v)
                for v in o.all_valuations(g.alpha, succ, g.pred_names())]
    return _minimal_witness_sets(g, succ)


def _minimal_witness_sets(g: Modal, succ: tuple[int, ...]):
    """Minimal witness sets over succ as (argument index, successor) pairs,
    read off the memoized minimal valuations (see min_valuations_memo)."""
    arg = {a: i for i, a in enumerate(g.pred_names())}
    out = {frozenset((arg[a], t) for (a, t) in v)
           for v in o.min_valuations_memo(g.alpha, succ)}
    return sorted(out, key=lambda z: (len(z), sorted(z)))


def build_eval_game(f: MuFormula, lts: LTS) -> EvalGame:
    """The evaluation game of f on lts, rooted at (f, initial state)."""
    check_wf(f)
    missing = free_letters(f) - set(lts.props.names)
    if missing:
        raise ValueError("letters not in the alphabet: %r" % sorted(missing))
    prio = binder_priorities(f)
    binder_body: dict[str, MuFormula] = {}
    for g in subformulas(f):
        if isinstance(g, (Mu, Nu)):
            binder_body[g.var] = g.body
    succ = lts.successor_table()

    def expand(pos):
        if pos[0] == "z":
            return FORALL, 0, [("f", g, t) for (g, t) in sorted(pos[1], key=lambda p: (p[1], str(p[0])))]
        _, g, s = pos
        match g:
            case Prop(p) if p not in binder_body:
                return (FORALL if p in lts.colours[s] else EXISTS), 0, ()
            case NegProp(p):
                return (EXISTS if p in lts.colours[s] else FORALL), 0, ()
            case Prop(p):  # forced unfolding move
                return EXISTS, prio[p], [("f", binder_body[p], s)]
            case MOr(args):
                return EXISTS, 0, [("f", a, s) for a in args]
            case MAnd(args):
                return FORALL, 0, [("f", a, s) for a in args]
            case Modal(_, args):
                return EXISTS, 0, [("z", frozenset((args[ai], t) for (ai, t) in z))
                                   for z in _minimal_witness_sets(g, succ[s])]
            case Mu(_, b) | Nu(_, b):  # forced move
                return EXISTS, 0, [("f", b, s)]
        raise TypeError(g)

    game, positions = build_arena([("f", f, lts.init)], expand)
    return EvalGame(game, positions, 0)


def game_value(f: MuFormula, lts: LTS) -> bool:
    """Does Exists win the evaluation game from the root?"""
    eg = build_eval_game(f, lts)
    return eg.root in solve(eg.game).win_exists
