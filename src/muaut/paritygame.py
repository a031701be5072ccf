"""Finite parity games: Zielonka solving with positional strategy extraction.

Convention, fixed artifact-wide: a play is won by Exists iff the maximal
priority occurring infinitely often is even.  A player who has to move but
cannot loses immediately.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .lts import json_shape

EXISTS = 0
FORALL = 1


@dataclass(frozen=True)
class ParityGame:
    owner: tuple[int, ...]          # EXISTS or FORALL per position
    moves: tuple[tuple[int, ...], ...]
    priority: tuple[int, ...]

    def __post_init__(self):
        n = len(self.owner)
        if len(self.moves) != n or len(self.priority) != n:
            raise ValueError("owner/moves/priority lengths differ")
        for succs in self.moves:
            for t in succs:
                if not (0 <= t < n):
                    raise ValueError("move target %d out of range" % t)

    @property
    def n(self) -> int:
        return len(self.owner)

    def to_json(self) -> dict:
        return {
            "positions": self.n,
            "owner": ["E" if o == EXISTS else "A" for o in self.owner],
            "moves": [list(m) for m in self.moves],
            "priority": list(self.priority),
        }


def game_from_json(data: dict) -> ParityGame:
    with json_shape("game"):
        owner = tuple(EXISTS if o in ("E", "exists", 0) else FORALL for o in data["owner"])
        moves = tuple(tuple(int(t) for t in m) for m in data["moves"])
        return ParityGame(owner, moves, tuple(int(p) for p in data["priority"]))


def load(path: str) -> ParityGame:
    with open(path) as f:
        return game_from_json(json.load(f))


def build_arena(root, expand) -> tuple[ParityGame, tuple]:
    """The game on every position reachable from root, with root at index 0.

    expand(pos) returns (owner, priority, successor positions).  Positions
    are numbered in discovery order and expanded last-discovered first, so
    the numbering depends only on root and expand.  Returns the game and the
    position descriptions, indexed like the game.
    """
    index = {root: 0}
    desc = [root]
    owner, priority, moves = [EXISTS], [0], [()]
    todo = [root]
    while todo:
        pos = todo.pop()
        i = index[pos]
        owner[i], priority[i], succs = expand(pos)
        row = []
        for q in succs:
            j = index.get(q)
            if j is None:
                j = index[q] = len(desc)
                desc.append(q)
                owner.append(EXISTS)
                priority.append(0)
                moves.append(())
                todo.append(q)
            row.append(j)
        moves[i] = tuple(row)
    return ParityGame(tuple(owner), tuple(moves), tuple(priority)), tuple(desc)


@dataclass(frozen=True)
class Solution:
    win_exists: frozenset[int]
    win_forall: frozenset[int]
    strategy_exists: dict[int, int]
    strategy_forall: dict[int, int]

    def winner(self, pos: int) -> int:
        return EXISTS if pos in self.win_exists else FORALL


def _attractor(player, target, active, pred, owner, moves):
    """Attractor of target for player within active, with attractor strategy."""
    attr = set(target)
    strategy = {}
    # remaining escape count for opponent positions
    cnt = {}
    stack = sorted(target)
    while stack:
        u = stack.pop()
        for v in pred[u]:
            if v not in active or v in attr:
                continue
            if owner[v] == player:
                attr.add(v)
                strategy[v] = u
                stack.append(v)
            else:
                if v not in cnt:
                    cnt[v] = sum(1 for t in moves[v] if t in active)
                cnt[v] -= 1
                if cnt[v] == 0:
                    attr.add(v)
                    stack.append(v)
    return attr, strategy


def solve(g: ParityGame) -> Solution:
    """Zielonka's recursive algorithm.

    Stuck positions are handled by routing them to a losing sink for their
    owner, so the recursion only ever sees positions with a move.
    """
    n = g.n
    # augmented game: n -> sink losing for Exists, n+1 -> sink losing for Forall
    sink_e, sink_a = n, n + 1
    owner = list(g.owner) + [EXISTS, FORALL]
    moves = [list(m) if m else [sink_e if g.owner[i] == EXISTS else sink_a]
             for i, m in enumerate(g.moves)]
    moves += [[sink_e], [sink_a]]
    priority = list(g.priority) + [1, 0]

    pred = [[] for _ in range(n + 2)]
    for u in range(n + 2):
        for v in moves[u]:
            pred[v].append(u)
    for ps in pred:
        ps.sort()

    def rec(active: frozenset[int]):
        if not active:
            return set(), set(), {}, {}
        d = max(priority[v] for v in active)
        player = d % 2  # EXISTS wins even tops
        tops = {v for v in active if priority[v] == d}
        attr, sattr = _attractor(player, tops, active, pred, owner, moves)
        w0, w1, s0, s1 = rec(active - frozenset(attr))
        wins = (w0, w1)
        strats = (s0, s1)
        if not wins[1 - player]:
            win_p = set(active)
            strat_p = dict(strats[player])
            strat_p.update(sattr)
            for v in sorted(tops):
                if owner[v] == player and v not in strat_p:
                    strat_p[v] = min(t for t in moves[v] if t in active)
            out = [None, None]
            out[player] = (win_p, strat_p)
            out[1 - player] = (set(), {})
            return out[0][0], out[1][0], out[0][1], out[1][1]
        battr, sbattr = _attractor(1 - player, wins[1 - player], active, pred, owner, moves)
        w0b, w1b, s0b, s1b = rec(active - frozenset(battr))
        winsb = (w0b, w1b)
        stratsb = (s0b, s1b)
        win_opp = winsb[1 - player] | battr
        strat_opp = dict(stratsb[1 - player])
        strat_opp.update(sbattr)
        strat_opp.update(strats[1 - player])  # winning inside the first recursion's region
        win_p = winsb[player]
        strat_p = dict(stratsb[player])
        out = [None, None]
        out[player] = (win_p, strat_p)
        out[1 - player] = (win_opp, strat_opp)
        return out[0][0], out[1][0], out[0][1], out[1][1]

    w0, w1, s0, s1 = rec(frozenset(range(n + 2)))
    win_e = frozenset(v for v in w0 if v < n)
    win_a = frozenset(v for v in w1 if v < n)
    se = {v: t for v, t in s0.items() if v < n and t < n and v in win_e}
    sa = {v: t for v, t in s1.items() if v < n and t < n and v in win_a}
    return Solution(win_e, win_a, se, sa)


def _region_closed_and_even(g: ParityGame, region, strat, player) -> bool:
    """Strategy-restricted region check for one player.

    The region must be closed (player follows strat, opponent may do
    anything), the strategy total on owned positions with moves, and every
    cycle inside the restricted graph must have player-good dominant parity.
    """
    graph: dict[int, list[int]] = {}
    for v in region:
        if g.owner[v] == player:
            if not g.moves[v]:
                return False  # player stuck on a claimed-winning position
            if v not in strat:
                return False
            t = strat[v]
            if t not in g.moves[v] or t not in region:
                return False
            graph[v] = [t]
        else:
            if any(t not in region for t in g.moves[v]):
                return False  # opponent escapes the region
            graph[v] = list(g.moves[v])
    # no cycle may be dominated by the opponent's parity
    return next(_dominated_cycles(region, graph, g.priority, 1 - player), None) is None


def _dominated_cycles(nodes, graph, priority, parity):
    """Cycles of graph within nodes whose top priority has the given parity:
    for each such priority d, every nontrivial SCC of the nodes with
    priority at most d that contains d (lazily, lowest d first)."""
    for d in sorted({priority[v] for v in nodes if priority[v] % 2 == parity}):
        sub = [v for v in nodes if priority[v] <= d]
        for comp in _sccs(sub, graph):
            nontrivial = len(comp) > 1 or comp[0] in graph.get(comp[0], [])
            if nontrivial and any(priority[v] == d for v in comp):
                yield comp


def _sccs(nodes, graph):
    """Tarjan strongly connected components restricted to nodes."""
    nodeset = set(nodes)
    index = {}
    low = {}
    onstack = {}
    stack = []
    out = []
    counter = itertools.count()

    def strongconnect(v):
        work = [(v, iter([t for t in graph.get(v, []) if t in nodeset]))]
        index[v] = low[v] = next(counter)
        stack.append(v)
        onstack[v] = True
        while work:
            u, it = work[-1]
            advanced = False
            for t in it:
                if t not in index:
                    index[t] = low[t] = next(counter)
                    stack.append(t)
                    onstack[t] = True
                    work.append((t, iter([w for w in graph.get(t, []) if w in nodeset])))
                    advanced = True
                    break
                elif onstack.get(t):
                    low[u] = min(low[u], index[t])
            if not advanced:
                work.pop()
                if work:
                    p = work[-1][0]
                    low[p] = min(low[p], low[u])
                if low[u] == index[u]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack[w] = False
                        comp.append(w)
                        if w == u:
                            break
                    out.append(comp)

    for v in nodes:
        if v not in index:
            strongconnect(v)
    return out


def check_strategy(g: ParityGame, sol: Solution) -> bool:
    """Independent verifier for a claimed solution.

    Checks determinacy (the two regions partition the board) and that each
    player's positional strategy is winning on their region: the region is
    closed against the opponent, the strategy never leaves it, and every
    strategy-guided cycle has the right dominant parity.
    """
    allpos = frozenset(range(g.n))
    if sol.win_exists | sol.win_forall != allpos or sol.win_exists & sol.win_forall:
        return False
    return _region_closed_and_even(g, sol.win_exists, sol.strategy_exists, EXISTS) and \
        _region_closed_and_even(g, sol.win_forall, sol.strategy_forall, FORALL)


def solve_by_enumeration(g: ParityGame) -> frozenset[int]:
    """Brute-force winning region of Exists via positional strategy enumeration.

    Exponential; independent oracle for tiny games only.
    """
    epos = [v for v in range(g.n) if g.owner[v] == EXISTS and g.moves[v]]
    choices = [g.moves[v] for v in epos]
    winning: set[int] = set()
    undecided = set(range(g.n))
    for pick in itertools.product(*choices) if epos else [()]:
        strat = dict(zip(epos, pick))
        good = _wins_everywhere(g, strat)
        winning |= good
        undecided -= good
        if not undecided:
            break
    return frozenset(winning)


def _wins_everywhere(g: ParityGame, strat: dict[int, int]) -> set[int]:
    """Positions from which the fixed Exists strategy beats all Forall play."""
    graph = {}
    for v in range(g.n):
        if g.owner[v] == EXISTS:
            graph[v] = [strat[v]] if v in strat else []
        else:
            graph[v] = list(g.moves[v])
    # lose-set: reachable Exists-stuck positions or odd-dominated cycles
    bad = set(v for v in range(g.n) if g.owner[v] == EXISTS and not g.moves[v])
    for comp in _dominated_cycles(range(g.n), graph, g.priority, FORALL):
        bad.update(comp)
    # backward closure of bad under "some play reaches it"
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if v in bad:
                continue
            if any(t in bad for t in graph[v]):
                bad.add(v)
                changed = True
    return set(range(g.n)) - bad
