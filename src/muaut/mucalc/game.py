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
from functools import cached_property

from ..lts import LTS
from ..onestep.models import _min_valuations_range
from ..paritygame import EXISTS, FORALL, ParityGame, build_arena, solve
from .ast import (MAnd, Modal, MOr, Mu, MuFormula, NegProp, Nu, Prop, binders,
                  check_wf, free_letters, subformulas)


def binder_priorities(f: MuFormula) -> dict[str, int]:
    """Priority per bound letter: nu even, mu odd, outer above inner."""
    depths = {g.var: (d, isinstance(g, Mu)) for g, d in binders(f)}
    maxd = max((d for d, _ in depths.values()), default=0)
    return {p: 2 * (maxd - d) + is_mu for p, (d, is_mu) in depths.items()}


@dataclass(frozen=True)
class EvalGame:
    game: ParityGame
    codes: tuple  # the positions as built, indexed like the game
    subs: tuple   # the distinct subformulas, in pre-order of first occurrence
    root: int

    @cached_property
    def positions(self) -> tuple:
        """The codes decoded to ("f", subformula, state) and ("z", frozenset
        of (subformula, state) pairs)."""
        subs, m = self.subs, len(self.subs)
        return tuple(("z", frozenset((subs[c % m], c // m) for c in code))
                     if type(code) is tuple else ("f", subs[code % m], code // m)
                     for code in self.codes)


def build_eval_game(f: MuFormula, lts: LTS) -> EvalGame:
    """The evaluation game of f on lts, rooted at (f, initial state).

    The arena is built over integer codes: with the m distinct subformulas
    numbered in `subformulas(f)` order, the position (g, s) is s * m + index[g],
    and a witness set is the sorted tuple of the codes Forall picks from,
    which `build_arena` makes his choice.  By monotonicity, subset-minimal
    witness sets suffice: any satisfying set extends a minimal one and only
    offers Forall more options.  They are the minimal valuations over
    range(k) for out-degree k, read from the `onestep.models._min_valuations_range`
    memo and relabelled onto the successors.
    """
    check_wf(f)
    lts.props.require(free_letters(f))
    prio = binder_priorities(f)
    succ = lts.successor_table()
    subs = tuple(subformulas(f))
    binder_body = {g.var: g.body for g, _ in binders(f)}
    m = len(subs)
    index = {g: i for i, g in enumerate(subs)}
    arg_index = {g: dict(zip(g.pred_names(), map(index.__getitem__, g.args)))
                 for g in subs if isinstance(g, Modal)}

    def expand(pos):
        s, g = divmod(pos, m)
        base, g = s * m, subs[g]
        match g:
            case Prop(p) if p not in binder_body:
                return (FORALL if p in lts.colours[s] else EXISTS), 0, ()
            case NegProp(p):
                return (EXISTS if p in lts.colours[s] else FORALL), 0, ()
            case Prop(p):  # forced unfolding move
                return EXISTS, prio[p], [base + index[binder_body[p]]]
            case MOr(args):
                return EXISTS, 0, [base + index[a] for a in args]
            case MAnd(args):
                return FORALL, 0, [base + index[a] for a in args]
            case Modal(alpha, _):
                ss, arg = succ[s], arg_index[g]
                return EXISTS, 0, [tuple(sorted({ss[d] * m + arg[a] for a, d in mv}))
                                   for mv in _min_valuations_range(alpha, len(ss))]
            case Mu(_, b) | Nu(_, b):  # forced move
                return EXISTS, 0, [base + index[b]]
        raise TypeError(g)

    game, codes = build_arena([lts.init * m + index[f]], expand)
    return EvalGame(game, codes, subs, 0)


def game_value(f: MuFormula, lts: LTS) -> bool:
    """Does Exists win the evaluation game from the root?"""
    eg = build_eval_game(f, lts)
    return eg.root in solve(eg.game).win_exists
