"""Parity automata over one-step languages.

States are dense integers; state i appears in transition formulas as the
predicate "q<i>".  The transition table is dense over the colour alphabet
(the powerset of the proposition letters) and every entry is positive in
the state predicates.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .. import onestep as o
from ..lts import LTS, PropSet, json_int, json_list, json_shape
from ..onestep.models import _min_valuations_range
from ..paritygame import EXISTS, ParityGame, _sccs, build_arena, solve


def pred_name(state: int) -> str:
    return "q%d" % state


def pred_state(name: str) -> int:
    return int(name[1:])


@dataclass(frozen=True, eq=False)
class ParityAutomaton:
    dialect: str
    props: PropSet
    n: int
    init: int
    omega: tuple[int, ...]
    delta: dict  # (state, colour frozenset) -> one-step Formula
    macro_states: frozenset[int] = frozenset()  # second sort of a construct

    def __post_init__(self):
        if self.dialect not in o.DIALECTS:
            raise ValueError("unknown dialect %r (known: %s)" % (self.dialect, "/".join(o.DIALECTS)))
        if len(self.omega) != self.n:
            raise ValueError("priority map not total")
        if not (0 <= self.init < self.n):
            raise ValueError("initial state out of range")
        if not all(0 <= q < self.n for q in self.macro_states):
            raise ValueError("macro states out of range: %r" % sorted(self.macro_states))
        colours = self.props.colours()
        for a in range(self.n):
            for c in colours:
                if (a, c) not in self.delta:
                    raise ValueError("transition table misses state %d at colour %r" % (a, sorted(c)))
        if len(self.delta) != self.n * len(colours):
            raise ValueError("transition table has %d entries, not one per state and colour (%d)"
                             % (len(self.delta), self.n * len(colours)))
        for (a, c), f in self.delta.items():
            if not o.is_positive(f):
                raise ValueError("transition formula not positive at (%d,%r)" % (a, sorted(c)))
            need = o.min_dialect(f)
            if o.DIALECTS.index(need) > o.DIALECTS.index(self.dialect):
                raise ValueError("entry at (%d,%r) uses %s syntax" % (a, sorted(c), need))
            for p in o.predicates(f):
                s = pred_state(p)
                if not (0 <= s < self.n):
                    raise ValueError("entry mentions unknown state predicate %r" % p)

    def entry(self, a: int, colour: frozenset[str]) -> o.Formula:
        return self.delta[(a, colour)]

    @cached_property
    def occurrence_edges(self) -> tuple[frozenset[int], ...]:
        """The states each state's entries name, by state."""
        colours = self.props.colours()
        return tuple(frozenset(pred_state(p) for c in colours for p in o.predicates(self.entry(a, c)))
                     for a in range(self.n))

    @cached_property
    def clusters(self) -> tuple[frozenset[int], ...]:
        """The cells of mutual reachability of the occurrence edges, sinks
        first: every edge between two cells leads to an earlier one.  Both
        are found on first use and kept with the automaton."""
        return tuple(map(frozenset, _sccs(range(self.n), [sorted(e) for e in self.occurrence_edges])))

    def to_json(self) -> dict:
        out = {}
        for (a, c), f in sorted(self.delta.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))):
            out["%d,%s" % (a, ",".join(sorted(c)))] = o.pretty(f)
        return {
            "dialect": self.dialect,
            "props": list(self.props.names),
            "states": self.n,
            "init": self.init,
            "omega": list(self.omega),
            "delta": out,
            "macro": sorted(self.macro_states),
        }


def automaton_from_json(data: dict) -> ParityAutomaton:
    with json_shape("automaton"):
        props = PropSet(tuple(json_list(data["props"], "props")))
        delta = {}
        for key, text in data["delta"].items():
            head, _, rest = key.partition(",")
            entry = (int(head), props.canon(x for x in rest.split(",") if x))
            if entry in delta:
                raise ValueError("delta key %r repeats the entry of state %d at colour %r"
                                 % (key, entry[0], sorted(entry[1])))
            delta[entry] = o.parse_formula(text)
        return ParityAutomaton(
            data["dialect"], props, json_int(data["states"], "states"), json_int(data["init"], "init"),
            tuple(json_int(x, "a priority") for x in json_list(data["omega"], "omega")), delta,
            frozenset(json_int(x, "a macro-state") for x in json_list(data.get("macro", ()), "macro")),
        )


def load(path: str) -> ParityAutomaton:
    with open(path) as f:
        return automaton_from_json(json.load(f))


class AlphabetMismatch(ValueError):
    pass


@dataclass(frozen=True)
class AcceptanceGame:
    game: ParityGame
    codes: tuple  # the positions as built, indexed like the game
    nodes: int    # the system's size, the stride of the basic codes
    root: int

    @cached_property
    def positions(self) -> tuple:
        """The codes decoded to ("b", state, node) and ("v", frozenset of
        (predicate, node) pairs)."""
        n = self.nodes
        return tuple(("v", frozenset((pred_name(c // n), c % n) for c in code))
                     if type(code) is tuple else ("b", *divmod(code, n))
                     for code in self.codes)


def _valuations(aut: ParityAutomaton, lts: LTS):
    """Exists's moves at a basic code a * lts.n + s, each the tuple of the
    basic codes it names, in the order of its sorted (predicate, node)
    pairs: the minimal valuations of a's entry over s's successors, read
    from the `onestep.models._min_valuations_range` memo, turned once per
    (state, colour, out-degree) into a template of (base code, successor
    index) pairs, and relabelled onto the node's successors."""
    if aut.props.names != lts.props.names:
        raise AlphabetMismatch("automaton alphabet %r vs system %r" % (aut.props.names, lts.props.names))
    n, succ = lts.n, lts.successor_table()
    base = {pred_name(a): a * n for a in range(aut.n)}
    templates: dict[tuple, list] = {}  # (state, colour, out-degree) -> [((base, index), ...)]

    def valuations(pos):
        a, s = divmod(pos, n)
        colour, ss = lts.colours[s], succ[s]
        key = (a, colour, len(ss))
        if key not in templates:
            templates[key] = [tuple((base[b], d) for b, d in mv)
                              for mv in _min_valuations_range(aut.entry(a, colour), len(ss))]
        return [tuple([c + ss[d] for c, d in mv]) for mv in templates[key]]
    return valuations


def acceptance_game(aut: ParityAutomaton, lts: LTS, full_enumeration: bool = False) -> AcceptanceGame:
    """The acceptance parity game.

    Basic positions (state, node) belong to Exists with the state's
    priority; her moves are valuations of the state predicates over the
    node's successors satisfying the transition entry.  Valuation
    positions belong to Forall with priority 0.  Minimal valuations
    suffice by monotonicity (`_valuations`); the full enumeration
    (`onestep.all_valuations`) is a regression oracle.

    The arena is built over integer codes: the basic position (a, s) is
    a * lts.n + s, and a valuation position is the tuple of the basic
    codes it moves to, in the order of its sorted (predicate, node) pairs,
    which `build_arena` makes Forall's choice.  `positions` decodes them
    on demand.
    """
    valuations, n, succ = _valuations(aut, lts), lts.n, lts.successor_table()

    def expand(pos):
        a, s = divmod(pos, n)
        if not full_enumeration:
            return EXISTS, aut.omega[a], valuations(pos)
        return EXISTS, aut.omega[a], [tuple(pred_state(b) * n + t for b, t in sorted(v))
                                      for v in o.all_valuations(aut.entry(a, lts.colours[s]), succ[s])]

    game, codes = build_arena([aut.init * n + lts.init], expand)
    return AcceptanceGame(game, codes, n, 0)


def accepts(aut: ParityAutomaton, lts: LTS) -> bool:
    """Whether Exists wins the acceptance game from its root.

    A play ends in one cluster, where the top priority it meets infinitely
    often is the larger of 0, a valuation's, and the cluster's.  So on a
    weak automaton, one priority per cluster, the pairs reachable from the
    root are decided cluster by cluster, sinks first (all at once if every
    state has one priority), with no arena: if that priority is odd, by a
    least fixpoint (a pair wins once one of its valuations has only winning
    members), else by a greatest one (a pair loses once each valuation has
    a losing member).  Counters propagate: `need` is what a pair lacks,
    `count` what a valuation does.  Any other automaton's game is built and
    solved."""
    omega = aut.omega
    clusters = (range(aut.n),) if len(set(omega)) == 1 else aut.clusters  # one priority: one fixpoint
    if any(len({omega[a] for a in c}) > 1 for c in clusters):
        ag = acceptance_game(aut, lts)
        return ag.root in solve(ag.game).win_exists
    valuations, n = _valuations(aut, lts), lts.n
    root = aut.init * n + lts.init
    vals, todo = {root: valuations(root)}, [root]
    while todo:
        for v in vals[todo.pop()]:
            for c in v:
                if c not in vals:
                    vals[c] = valuations(c)
                    todo.append(c)
    cell = {a: i for i, c in enumerate(clusters) for a in c}
    members: list[dict] = [{} for _ in clusters]  # per cluster: pair -> the valuations holding it
    for c in vals:
        members[cell[c // n]][c] = []
    won: dict[int, bool] = {}
    for cluster, holders in zip(clusters, members):
        least = max(omega[min(cluster)], 0) % 2 == 1
        owner, count, need, queue = [], [], {}, []
        for c in holders:
            need[c] = least
            for v in vals[c]:
                i, k = len(owner), 0  # k: the members inside, or -1 once one outside loses
                owner.append(c)
                for m in v:
                    hs = holders.get(m)
                    if hs is not None:
                        hs.append(i)
                        k += 1
                    elif not won[m]:
                        k = -1
                        break
                count.append(k if least or k < 0 else 1)  # below 0, it never reaches 0
                need[c] += -(k == 0) if least else k >= 0
            if need[c] <= 0:
                queue.append(c)
        for c in queue:
            for i in holders[c]:
                count[i] -= 1
                if not count[i]:
                    need[owner[i]] -= 1
                    if not need[owner[i]]:
                        queue.append(owner[i])
        won.update({**dict.fromkeys(holders, not least), **dict.fromkeys(queue, least)})
    return won[root]


def complement(aut: ParityAutomaton) -> ParityAutomaton:
    """Dualize every entry and shift every priority by one."""
    delta = {k: o.dual(f) for k, f in aut.delta.items()}
    return ParityAutomaton(aut.dialect, aut.props, aut.n, aut.init,
                           tuple(w + 1 for w in aut.omega), delta, aut.macro_states)


@dataclass(frozen=True)
class ClusterReport:
    clusters: tuple[frozenset[int], ...]
    degenerate: tuple[bool, ...]
    weak: bool
    continuous_weak: bool


def classify_automaton(aut: ParityAutomaton) -> ClusterReport:
    """Clusters (cells of mutual reachability), weakness and continuity.

    Weakness: constant priority per cluster.  Continuity: on every cluster
    M, odd states have all entries in the M-continuous fragment and even
    states in the co-continuous one.
    """
    edges, clusters = aut.occurrence_edges, aut.clusters
    degenerate = tuple(len(c) == 1 and min(c) not in edges[min(c)] for c in clusters)
    weak = all(len({aut.omega[a] for a in c}) == 1 for c in clusters)
    cw = weak and all(
        (o.in_continuous_fragment if aut.omega[a] % 2 else o.in_cocontinuous_fragment)(
            aut.entry(a, colour), mpreds)
        for c in clusters for mpreds in [frozenset(map(pred_name, c))]
        for a in c for colour in aut.props.colours())
    return ClusterReport(clusters, degenerate, weak, cw)


def collapse_priorities(aut: ParityAutomaton, neutral: frozenset[int] = frozenset()) -> ParityAutomaton:
    """Set the priorities of each parity-pure cluster to plain 0 or 1.

    A cluster whose states outside `neutral` share one parity gets that
    parity, and a cluster of neutral states only gets 0.  The caller
    promises that neutral states never form a cycle among themselves, so
    every cycle of a cluster passes a state of the cluster's parity: giving
    the whole cluster that parity changes no winner.  Mixed clusters keep
    their priorities.  On a weak automaton, with no neutral states, every
    priority becomes its parity.
    """
    omega = list(aut.omega)
    for cluster in aut.clusters:
        parities = {aut.omega[a] % 2 for a in cluster if a not in neutral}
        if len(parities) == 1:
            par = parities.pop()
            for a in cluster:
                omega[a] = par
        elif not parities:
            for a in cluster:
                omega[a] = 0
    return ParityAutomaton(aut.dialect, aut.props, aut.n, aut.init,
                           tuple(omega), aut.delta, aut.macro_states)


def _reachable_automaton(dialect: str, props: PropSet, init: int, row, omega, macro) -> ParityAutomaton:
    """The automaton on the states reachable from init through entry
    predicates, numbered in BFS order: colours in `props.colours()` order
    and the predicates of an entry by state number, so "q2" before "q10".
    row(a) lists the entries of old state a over the colours, naming old
    states; omega(a) is its priority and macro holds the old macro-states.
    row is called once per reachable state, in the new numbering's order."""
    colours = props.colours()
    order, rows, number = [init], [], {init: 0}
    for a in order:
        rows.append(row(a))
        for f in rows[-1]:
            for s in sorted(map(pred_state, o.predicates(f))):
                if s not in number:
                    number[s] = len(order)
                    order.append(s)
    names = {pred_name(a): pred_name(i) for a, i in number.items() if a != i}
    delta = {(i, c): o.rename_pred(f, names) if names else f
             for i, fs in enumerate(rows) for c, f in zip(colours, fs)}
    return ParityAutomaton(dialect, props, len(order), 0, tuple(omega(a) for a in order), delta,
                           frozenset(i for i, a in enumerate(order) if a in macro))


def trim(aut: ParityAutomaton) -> ParityAutomaton:
    """The states reachable from the initial one, renumbered in BFS order
    (see `_reachable_automaton`)."""
    colours = aut.props.colours()
    return _reachable_automaton(aut.dialect, aut.props, aut.init,
                                lambda a: [aut.entry(a, c) for c in colours],
                                aut.omega.__getitem__, aut.macro_states)


def _shift_formula(f: o.Formula, offset: int) -> o.Formula:
    return o.rename_pred(f, {p: pred_name(pred_state(p) + offset) for p in o.predicates(f)})


def union_automaton(a0: ParityAutomaton, a1: ParityAutomaton) -> ParityAutomaton:
    """Disjoint union plus a fresh initial state whose entries disjoin the
    two initial entries; the new state forms its own degenerate cluster.
    Trimmed: the fresh state is 0 and only states it reaches are kept."""
    if a0.props.names != a1.props.names:
        raise AlphabetMismatch("alphabets differ")
    dialect = max(a0.dialect, a1.dialect, key=o.DIALECTS.index)
    init = a0.n + a1.n

    def row(a):
        if a < a0.n:
            return [a0.entry(a, c) for c in a0.props.colours()]
        if a < init:
            return [_shift_formula(a1.entry(a - a0.n, c), a0.n) for c in a0.props.colours()]
        return [o.disj([a0.entry(a0.init, c), _shift_formula(a1.entry(a1.init, c), a0.n)])
                for c in a0.props.colours()]

    omega = a0.omega + a1.omega + (1,)
    macro = a0.macro_states | frozenset(m + a0.n for m in a1.macro_states)
    return _reachable_automaton(dialect, a0.props, init, row, omega.__getitem__, macro)


def constant_automaton(props: PropSet, value: bool, dialect: str = o.FOE1INF) -> ParityAutomaton:
    """One-state automaton accepting everything or nothing."""
    f = o.TOP if value else o.BOT
    delta = {(0, c): f for c in props.colours()}
    return ParityAutomaton(dialect, props, 1, 0, (0,), delta)
