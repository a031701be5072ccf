"""Finite parity games: Zielonka solving by SCCs with positional strategy extraction.

Convention, fixed artifact-wide: a play is won by Exists iff the maximal
priority occurring infinitely often is even.  A player who has to move but
cannot loses immediately.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .lts import json_list, json_shape, reach

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


_OWNER_TAGS = {"E": EXISTS, "exists": EXISTS, 0: EXISTS, "A": FORALL, "forall": FORALL, 1: FORALL}


def game_from_json(data: dict) -> ParityGame:
    with json_shape("game"):
        tags = json_list(data["owner"], "owner")
        try:
            owner = tuple(map(_OWNER_TAGS.__getitem__, tags))
        except KeyError as e:
            raise ValueError("malformed game JSON: unknown owner %r (use %s)" % (
                e.args[0], "/".join(map(str, _OWNER_TAGS)))) from None
        moves = tuple(tuple(int(t) for t in m)
                      for m in json_list(data["moves"], "moves", of_lists=True))
        return ParityGame(owner, moves,
                          tuple(int(p) for p in json_list(data["priority"], "priority")))


def load(path: str) -> ParityGame:
    with open(path) as f:
        return game_from_json(json.load(f))


def build_arena(roots, expand) -> tuple[ParityGame, tuple]:
    """The game on every position reachable from the distinct roots, which
    are numbered 0..k-1 in order.

    A position that is a tuple is Forall's choice among the positions it
    holds, with priority 0; for every other position, expand(pos) returns
    (owner, priority, successor positions).  Positions are numbered in
    discovery order and expanded last-discovered first, so the numbering
    depends only on roots and expand.  Returns the game and the position
    descriptions, indexed like the game.
    """
    desc = list(roots)
    index = {pos: i for i, pos in enumerate(desc)}
    k = len(desc)
    owner, priority, moves = [EXISTS] * k, [0] * k, [()] * k
    todo = list(desc)
    while todo:
        pos = todo.pop()
        i = index[pos]
        owner[i], priority[i], succs = (FORALL, 0, pos) if type(pos) is tuple else expand(pos)
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


def solve(g: ParityGame) -> Solution:
    """Winning regions and positional winning strategies of both players.

    Each (sub)game is split into strongly connected components, which are
    solved sinks first: the still undecided part of a component is solved on
    its own (a lone position loops on itself; anything larger takes one
    Zielonka step), and the regions found are attracted backwards across the
    enclosing subgame before the next component.  The subgames of a Zielonka
    step are split again.  Subgames are generators on an explicit stack, so
    nesting depth is bounded by memory, not by the interpreter's stack; on a
    ladder of self-loops every component is a single position and the whole
    solve is linear.  A player who has to move but cannot loses.
    """
    n = g.n
    owner, prio, moves = g.owner, g.priority, g.moves
    pred = [[] for _ in range(n)]
    for u, ts in enumerate(moves):
        for t in ts:
            pred[t].append(u)
    dom = [0] * n      # depth of the innermost open subgame holding v
    mark = [0] * n     # per scope s: s = decided, s + 1 = moves being counted
    cnt = [0] * n      # moves of v not yet known to lose for its owner
    win = [0] * n      # winner of v in the subgame that last decided it
    strat = [-1] * n   # v's move when its owner wins it, set together with win
    scopes = itertools.count(2, 2)

    def attract(queue, k, sid):
        """Decide backwards from the positions in queue (stamped sid, winner
        in win) through the subgame dom == k: a position whose owner can move
        into a region it wins joins that region, one whose every move leads
        into regions the opponent wins joins the opponent.  Returns queue,
        grown by every position decided; each move is read once per scope."""
        for u in queue:
            w = win[u]
            for v in pred[u]:
                if dom[v] != k:
                    continue
                m = mark[v]
                if m == sid:
                    continue
                if owner[v] == w:
                    strat[v] = u
                else:
                    if m == sid + 1:
                        c = cnt[v] - 1
                    else:
                        mark[v] = sid + 1
                        c = -1
                        for t in moves[v]:
                            if dom[t] == k:
                                c += 1
                    if c:
                        cnt[v] = c
                        continue
                mark[v] = sid
                win[v] = w
                queue.append(v)
        return queue

    def subgame(A, k, split):
        """Solve the subgame on A: the positions with dom == k, each with a
        move inside A.  Yields each nested subgame's positions and whether
        to split it; it is solved, at depth k + 1, when the generator
        resumes."""
        d = max(prio[v] for v in A)
        p = d & 1
        tops = [v for v in A if prio[v] == d]
        if split and len(tops) < len(A):
            comps = _sccs(A, moves)
            if len(comps) > 1:
                sid = next(scopes)
                for comp in comps:
                    rest = [v for v in comp if mark[v] != sid]
                    if len(rest) > 1:
                        yield rest, False
                    elif rest:
                        # undecided and alone, so it loops on itself
                        v = rest[0]
                        win[v] = w = prio[v] & 1
                        if owner[v] == w:
                            strat[v] = v
                    for v in rest:
                        mark[v] = sid
                    attract(rest, k, sid)
                return
        # a Zielonka step: attract to the top priority, solve the rest, and
        # if the opponent wins some of it, attract to that and solve the rest
        sid = next(scopes)
        for v in tops:
            mark[v] = sid
            win[v] = p
            if owner[v] == p:
                strat[v] = next(t for t in moves[v] if dom[t] == k)
        if len(tops) == len(A) or len(attract(tops, k, sid)) == len(A):
            return
        rest = [v for v in A if mark[v] != sid]
        yield rest, True
        lost = [v for v in rest if win[v] != p]
        if not lost:
            return  # p wins all of A
        sid = next(scopes)
        for v in lost:
            mark[v] = sid
        if len(attract(lost, k, sid)) < len(A):
            yield [v for v in A if mark[v] != sid], True

    # positions that reach a stuck one by force are decided first, so every
    # subgame below has a move from each of its positions
    top = range(n)
    stuck = [v for v in top if not moves[v]]
    if stuck:
        sid = next(scopes)
        for v in stuck:
            mark[v] = sid
            win[v] = 1 - owner[v]
        for v in attract(stuck, 0, sid):
            dom[v] = -1
        top = [v for v in top if dom[v] == 0]
    # the subgame at stack index k holds the positions with dom == k
    stack = [(subgame(top, 0, True), top)] if top else []
    while stack:
        sub = next(stack[-1][0], None)
        if sub is None:
            k = len(stack) - 2
            for v in stack.pop()[1]:
                dom[v] = k
        else:
            A, split = sub
            k = len(stack)
            for v in A:
                dom[v] = k
            stack.append((subgame(A, k, split), A))
    win_e = frozenset(v for v in range(n) if not win[v])
    return Solution(win_e, frozenset(range(n)) - win_e,
                    {v: strat[v] for v in win_e if owner[v] == EXISTS},
                    {v: strat[v] for v in range(n) if win[v] == owner[v] == FORALL})


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
    """Cycles of graph within nodes whose top priority has the given parity,
    as node lists, lazily: the nodes are split into SCCs; a nontrivial SCC
    is yielded if its top priority has that parity, and otherwise split
    again without its top-priority nodes.  Every node on such a cycle is in
    some yielded list, and every yielded list holds such a cycle."""
    work = [nodes]
    while work:
        part = work.pop()
        if all(priority[v] % 2 != parity for v in part):
            continue
        for comp in _sccs(part, graph):
            if len(comp) == 1 and comp[0] not in graph[comp[0]]:
                continue
            d = max(priority[v] for v in comp)
            if d % 2 == parity:
                yield comp
            else:
                work.append([v for v in comp if priority[v] != d])


def _sccs(nodes, graph):
    """Strongly connected components of the graph v -> graph[v] restricted
    to nodes, sinks first: every edge between two components leads to an
    earlier one (Tarjan, on an explicit stack)."""
    inside = set(nodes)
    index = {}
    low = {}        # holds exactly the nodes still on the stack
    stack = []
    out = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(graph[root]))]
        while work:
            v, it = work[-1]
            for t in it:
                if t in low:
                    if index[t] < low[v]:
                        low[v] = index[t]
                elif t not in index and t in inside:
                    index[t] = low[t] = len(index)
                    stack.append(t)
                    work.append((t, iter(graph[t])))
                    break
            else:
                work.pop()
                lv = low[v]
                if lv < index[v]:
                    u = work[-1][0]
                    if lv < low[u]:
                        low[u] = lv
                    continue
                comp = []
                while True:
                    w = stack.pop()
                    del low[w]
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
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
    # lose-set: Exists-stuck positions, odd-dominated cycles, and every
    # position from which some play reaches one of them
    bad = [v for v in range(g.n) if g.owner[v] == EXISTS and not g.moves[v]]
    for comp in _dominated_cycles(range(g.n), graph, g.priority, FORALL):
        bad.extend(comp)
    pred = [[] for _ in range(g.n)]
    for v, ts in graph.items():
        for t in ts:
            pred[t].append(v)
    return set(range(g.n)) - reach(pred, bad)
