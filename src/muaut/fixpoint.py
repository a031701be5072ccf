"""Monotone functionals on finite powerset lattices.

Least fixpoints with approximant traces, restrictions, the unfolding game
characterization, descending strategies along the approximants, strategy
trees, and the finite/noetherian witness constructions for restricted
fixpoints.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

from .lts import LTS, noetherian_subset, reach
from .mucalc import MuFormula, open_eval
from .onestep.models import _subsets_by_size
from .paritygame import EXISTS, ParityGame, _sccs, build_arena, solve

UNFOLDING_CARRIER_LIMIT = 12


@dataclass(frozen=True, eq=False)
class MonotoneFunctional:
    """A map on subsets of a finite carrier, assumed monotone.

    Monotonicity is spot-checked on random pairs by the tests; formula
    functionals are monotone by positivity.  Each image is computed once:
    calls store it keyed by the argument, for the life of the functional.
    """

    carrier: frozenset[int]
    apply: Callable[[frozenset[int]], frozenset[int]]
    lts: Optional[LTS] = None  # provenance for noetherian filtering
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, xs: frozenset[int]) -> frozenset[int]:
        xs = frozenset(xs)
        out = self._images.get(xs)
        if out is None:
            out = self.apply(xs)
            if not out <= self.carrier:
                raise ValueError("functional left the carrier")
            self._images[xs] = out
        return out


def formula_functional(body: MuFormula, var: str, lts: LTS) -> MonotoneFunctional:
    """The functional X -> meaning of the body with the letter set to X."""

    def apply(xs: frozenset[int]) -> frozenset[int]:
        return open_eval(body, lts, {var: xs})

    return MonotoneFunctional(frozenset(lts.states()), apply, lts)


def monotone_on_samples(f: MonotoneFunctional, pairs) -> bool:
    for lo, hi in pairs:
        if lo <= hi and not f(lo) <= f(hi):
            return False
    return True


def lfp(f: MonotoneFunctional) -> tuple[frozenset[int], list[frozenset[int]]]:
    """Least fixpoint with the full approximant trace (empty set first)."""
    stages = [frozenset()]
    while True:
        nxt = f(stages[-1])
        if nxt == stages[-1]:
            return stages[-1], stages
        if not stages[-1] <= nxt:
            raise ValueError("functional is not monotone along the trace")
        stages.append(nxt)


def restrict(f: MonotoneFunctional, xs: frozenset[int]) -> MonotoneFunctional:
    """The restricted functional: apply, then intersect with xs."""
    xs = frozenset(xs)
    if not xs <= f.carrier:
        raise ValueError("restriction set outside the carrier")
    return MonotoneFunctional(f.carrier, lambda ys: f(ys) & xs, f.lts)


def _playable_sets(f: MonotoneFunctional) -> list[frozenset[int]]:
    """Every subset of the carrier, smallest first."""
    if len(f.carrier) > UNFOLDING_CARRIER_LIMIT:
        raise ValueError("carrier too large for the unfolding game (limit %d)"
                         % UNFOLDING_CARRIER_LIMIT)
    return [frozenset(c) for c in _subsets_by_size(sorted(f.carrier))]


def _shrink(f: MonotoneFunctional, s: int, xs: frozenset[int]) -> frozenset[int]:
    """Drop the members of xs in ascending order while s stays in the image."""
    for t in sorted(xs):
        if s in f(xs - {t}):
            xs = xs - {t}
    return xs


@dataclass(frozen=True)
class UnfoldingGame:
    game: ParityGame
    positions: tuple  # a state is its int, a set the sorted tuple of its members


def unfolding_game(f: MonotoneFunctional) -> UnfoldingGame:
    """Exists picks a set her state belongs to the image of; Forall picks a
    member of it.  Every infinite play passes her positions of priority 1
    infinitely often and is lost by her, so her winning region on the
    carrier, the roots of the arena, is exactly the least fixpoint."""
    images = {tuple(sorted(xs)): f(xs) for xs in _playable_sets(f)}

    def expand(v):
        return EXISTS, 1, [xs for xs, image in images.items() if v in image]

    game, positions = build_arena(sorted(f.carrier), expand)
    return UnfoldingGame(game, positions)


def unfolding_region(f: MonotoneFunctional) -> frozenset[int]:
    ug = unfolding_game(f)
    sol = solve(ug.game)
    return frozenset(ug.positions[i] for i in range(len(f.carrier)) if i in sol.win_exists)


def descending_strategy(f: MonotoneFunctional) -> dict[int, frozenset[int]]:
    """Exists's move at each fixpoint member: the approximant stage just
    below its entry stage.  Descending by construction and winning because
    stages strictly decrease along any play."""
    fix, stages = lfp(f)
    strat = {}
    for s in sorted(fix):
        beta = next(i for i, st in enumerate(stages[1:], start=1) if s in st) - 1
        strat[s] = stages[beta]
    return strat


def is_descending(f: MonotoneFunctional, strat: dict[int, frozenset[int]]) -> bool:
    _, stages = lfp(f)
    for alpha in range(len(stages) - 1):
        for s in stages[alpha + 1]:
            if s in strat and not strat[s] <= stages[alpha]:
                return False
    return True


def strategy_wins(f: MonotoneFunctional, strat: dict[int, frozenset[int]], start: int) -> bool:
    """Check the positional strategy beats every Forall behaviour from start:
    every state reached under it has a legal move, and no cycle is reached
    (each strongly connected component is one state without a move to
    itself)."""
    seen = reach(defaultdict(frozenset, strat), (start,))
    if any(s not in strat or s not in f(strat[s]) for s in seen):
        return False
    return all(len(c) == 1 and c[0] not in strat[c[0]] for c in _sccs(seen, strat))


@dataclass(frozen=True)
class StrategyTree:
    root: int
    nodes: frozenset[int]
    children: dict = field(hash=False)  # node -> frozenset of children


def strategy_tree(f: MonotoneFunctional, strat: dict[int, frozenset[int]], root: int) -> StrategyTree:
    """States reachable under the strategy from the root, with the move
    sets as child sets; well-founded whenever the strategy is winning."""
    if root not in strat:
        raise ValueError("root is not a winning position for the strategy")
    if not strategy_wins(f, strat, root):
        raise ValueError("strategy is not winning from the root")
    nodes = reach(strat, (root,))
    return StrategyTree(root, nodes, {s: frozenset(strat[s]) for s in nodes})


def finite_witness(f: MonotoneFunctional, s: int) -> Optional[frozenset[int]]:
    """A finite restriction set X with s in the least fixpoint of the
    restriction, built backwards through the approximants; None when s is
    not in the fixpoint at all."""
    if s not in f.carrier:
        raise ValueError("unknown state %d" % s)
    fix, stages = lfp(f)
    if s not in fix:
        return None
    n = next(i for i, st in enumerate(stages) if s in st)
    layers = [frozenset({s})]
    for i in range(n - 1, 0, -1):
        prev = set()
        for u in layers[-1]:
            # a small subset of stage i supporting u, shrunk greedily
            if u not in f(stages[i]):
                raise AssertionError("trace inconsistency")
            prev |= _shrink(f, u, stages[i])
        layers.append(frozenset(prev))
    return frozenset().union(*layers)


def brute_force_witness(f: MonotoneFunctional, s: int, noetherian_only: bool = False) -> Optional[frozenset[int]]:
    """Smallest restriction set whose restricted fixpoint contains s, by
    subset enumeration; optionally only noetherian sets of the underlying
    system are tried."""
    if s not in f.carrier:
        raise ValueError("unknown state %d" % s)
    if len(f.carrier) > 8:
        raise ValueError("carrier too large for subset enumeration")
    xs = sorted(f.carrier)
    for combo in _subsets_by_size(xs):
        cand = frozenset(combo)
        if noetherian_only and f.lts is not None and not noetherian_subset(f.lts, cand):
            continue
        fix, _ = lfp(restrict(f, cand))
        if s in fix:
            return cand
    return None
