"""Finite pointed labelled transition systems.

States are dense integers 0..n-1; colours are subsets of a fixed, ordered
proposition alphabet.  All values are immutable after construction and all
operations are pure functions.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .syntax import IDENTIFIER

MAX_PROPS = 8


class SignatureError(ValueError):
    """Raised when two systems disagree on their proposition alphabet."""


class UnboundLetterError(ValueError):
    """Raised when a formula's free letters are not all in the alphabet."""


@dataclass(frozen=True)
class PropSet:
    """Ordered finite set of proposition letters (at most MAX_PROPS)."""

    names: tuple[str, ...]

    def __post_init__(self):
        from .mucalc import GRAMMAR  # at call time, as mucalc imports this module
        for p in self.names:
            if not (isinstance(p, str) and IDENTIFIER.fullmatch(p)):
                raise ValueError("proposition letter %r is not an identifier" % (p,))
            if p in GRAMMAR.keywords:  # a formula over the alphabet would read it as the keyword
                raise ValueError("proposition letter %r is a keyword of the fixpoint grammar" % p)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate proposition letters: %r" % (self.names,))
        if len(self.names) > MAX_PROPS:
            raise ValueError("too many proposition letters (max %d)" % MAX_PROPS)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __iter__(self):
        return iter(self.names)

    def __len__(self):
        return len(self.names)

    def canon(self, colour: Iterable[str]) -> frozenset[str]:
        """Canonical colour: validated frozenset over this alphabet."""
        c = frozenset(colour)
        for p in c:
            if p not in self.names:
                raise ValueError("unknown proposition letter %r" % p)
        return c

    def require(self, letters: Iterable[str]) -> None:
        """Refuse letters outside this alphabet: a formula's free letters
        must all be in the alphabet it is built or evaluated over."""
        missing = [p for p in letters if p not in self.names]
        if missing:
            raise UnboundLetterError("letters not in the alphabet: %r" % sorted(missing))

    def colours(self) -> tuple[frozenset[str], ...]:
        """All colours in binary-counter order of the letter ordering."""
        return self._colours

    @cached_property
    def _colours(self) -> tuple[frozenset[str], ...]:
        # stored on the instance: classifiers and validators ask once per state
        return tuple(frozenset(p for i, p in enumerate(self.names) if mask >> i & 1)
                     for mask in range(1 << len(self.names)))

    def with_letter(self, p: str) -> "PropSet":
        return self if p in self.names else PropSet(self.names + (p,))

    def without_letter(self, p: str) -> "PropSet":
        return PropSet(tuple(q for q in self.names if q != p))


@dataclass(frozen=True, init=False)
class LTS:
    """Pointed LTS with proposition colouring.

    The transition relation is kept once, as the successor table: the
    constructor places each edge under its source and refuses an edge whose
    source is not a state.  It checks nothing else; use validate() to check
    invariants on possibly malformed data.
    """

    props: PropSet
    n: int
    _succ: tuple[tuple[int, ...], ...]
    colours: tuple[frozenset[str], ...]
    init: int

    def __init__(self, props: PropSet, n: int, edges: Iterable[tuple[int, int]],
                 colours: tuple[frozenset[str], ...], init: int):
        out: list[set[int]] = [set() for _ in range(n)]
        for u, t in edges:
            if not 0 <= u < n:
                raise ValueError("invalid LTS: dangling source %d" % u)
            out[u].add(t)
        self._fill(props, n, tuple(tuple(sorted(ts)) for ts in out), colours, init)

    def _fill(self, *values) -> "LTS":
        for name, value in zip(("props", "n", "_succ", "colours", "init"), values):
            object.__setattr__(self, name, value)
        return self

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The transition relation as (source, target) pairs, derived from
        the successor table."""
        return frozenset((u, t) for u, ts in enumerate(self._succ) for t in ts)

    def successor_table(self) -> tuple[tuple[int, ...], ...]:
        """Every state's distinct successors, ascending: the system's stored
        transition relation, built once when the system is made."""
        return self._succ

    def states(self) -> range:
        return range(self.n)

    def holds(self, p: str) -> frozenset[int]:
        """Extension of letter p (the valuation view of the colouring)."""
        return frozenset(s for s in range(self.n) if p in self.colours[s])

    def reachable(self) -> frozenset[int]:
        return reach(self.successor_table(), (self.init,))

    @cached_property
    def _reach(self) -> tuple[frozenset[int], ...]:
        # each state's reachable set, stored: noetherian_subset asks per set
        return tuple(reach(self._succ, (s,)) for s in range(self.n))

    def to_json(self) -> dict:
        colors = {
            str(s): sorted(self.colours[s]) for s in range(self.n) if self.colours[s]
        }
        return {
            "props": list(self.props.names),
            "states": self.n,
            "edges": [[u, t] for u, ts in enumerate(self._succ) for t in ts],
            "colors": colors,
            "init": self.init,
        }


def reach(succ, starts: Iterable[int]) -> frozenset[int]:
    """The nodes reachable in zero or more steps from starts, where succ[u]
    lists the successors of node u."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for t in succ[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


def make_lts(
    props: Iterable[str],
    n: int,
    edges: Iterable[tuple[int, int]],
    colours: dict[int, Iterable[str]],
    init: int = 0,
) -> LTS:
    """Build and validate an LTS; unlisted states get the empty colour."""
    ps = PropSet(tuple(props))
    cols = tuple(ps.canon(colours.get(s, ())) for s in range(n))
    lts = LTS(ps, n, ((int(a), int(b)) for a, b in edges), cols, init)
    rep = validate(lts)
    if not rep.ok:
        raise ValueError("invalid LTS: " + "; ".join(rep.errors))
    return lts


@contextmanager
def json_shape(kind: str):
    """Report a JSON document of the wrong shape (a list for an object, a
    number for a list, a missing key) as a ValueError, not a TypeError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError) as e:
        raise ValueError("malformed %s JSON: %s: %s" % (kind, type(e).__name__, e)) from None


def json_list(value, what: str, of_lists: bool = False):
    """value, which must be a JSON list, of lists if of_lists: a string in
    either place would otherwise be read as its characters.  Raises
    TypeError, which json_shape reports."""
    if not isinstance(value, (list, tuple)) or (
            of_lists and any(isinstance(x, str) for x in value)):
        raise TypeError("%s must be a list%s" % (what, " of lists" if of_lists else ""))
    return value


def from_json(data: dict) -> LTS:
    """Parse the workbench LTS text format.

    Format: {"props":["p","q"],"states":N,"edges":[[i,j],...],
             "colors":{"i":["p"],...},"init":0}.
    """
    with json_shape("LTS"):
        ps = PropSet(tuple(json_list(data["props"], "props")))
        n = int(data["states"])
        edges = ((int(a), int(b))
                 for a, b in json_list(data.get("edges", []), "edges", of_lists=True))
        colmap: dict[int, list] = {}
        for k, v in data.get("colors", {}).items():
            s = int(k)
            if not 0 <= s < n or s in colmap:
                raise ValueError("invalid LTS: colour key %r %s" % (
                    k, "repeats state %d" % s if s in colmap else "names no state"))
            colmap[s] = json_list(v, "a colour")
        cols = [frozenset(colmap.get(s, ())) for s in range(n)]
        lts = LTS(ps, n, edges, tuple(cols), int(data.get("init", 0)))
    rep = validate(lts)
    if not rep.ok:
        raise ValueError("invalid LTS: " + "; ".join(rep.errors))
    return lts


def load(path: str) -> LTS:
    with open(path) as f:
        return from_json(json.load(f))


@dataclass(frozen=True)
class TreeCertificate:
    """Parent map of a tree-shaped LTS (root excluded)."""

    root: int
    parent: dict[int, int] = field(hash=False)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    errors: tuple[str, ...]
    reachable: frozenset[int]
    tree: Optional[TreeCertificate]


def validate(lts: LTS) -> ValidationReport:
    """Check structural invariants and detect tree shape.

    A system is a tree when every state is reachable from the initial one
    and every non-initial state has exactly one predecessor (the initial
    state has none).
    """
    errors = []
    if not (0 <= lts.init < lts.n):
        errors.append("initial state %d out of range" % lts.init)
    succ = lts.successor_table()
    errors.extend("dangling target %d" % t for ts in succ for t in ts if not 0 <= t < lts.n)
    if len(lts.colours) != lts.n:
        errors.append("colouring not total: %d entries for %d states" % (len(lts.colours), lts.n))
    else:
        for s, c in enumerate(lts.colours):
            for p in c:
                if p not in lts.props:
                    errors.append("state %d coloured with unknown letter %r" % (s, p))
    if errors:
        return ValidationReport(False, tuple(errors), frozenset(), None)

    reach = lts.reachable()
    tree = None
    if len(reach) == lts.n:
        indegree = [0] * lts.n
        source = [0] * lts.n
        for a, ts in enumerate(succ):
            for b in ts:
                indegree[b] += 1
                source[b] = a
        others = [s for s in range(lts.n) if s != lts.init]
        if indegree[lts.init] == 0 and all(indegree[s] == 1 for s in others):
            tree = TreeCertificate(lts.init, {s: source[s] for s in others})
    return ValidationReport(True, (), reach, tree)


def p_variant(lts: LTS, p: str, xs: Iterable[int]) -> LTS:
    """The variant where letter p holds exactly on xs; off p nothing changes."""
    xset = set(xs)
    for s in xset:
        if not (0 <= s < lts.n):
            raise ValueError("unknown state %d in variant set" % s)
    props = lts.props.with_letter(p)
    cols = tuple(
        frozenset((c - {p}) | ({p} if s in xset else set()))
        for s, c in enumerate(lts.colours)
    )
    return object.__new__(LTS)._fill(props, lts.n, lts.successor_table(), cols, lts.init)


def _refine_partition(colours, succ, rounds: float = float("inf")) -> list[int]:
    """Block of each state after `rounds` refinements of the partition by
    colour (fewer once one changes nothing), each by signature (block, set
    of successor blocks): after k rounds the blocks are the classes of
    bisimilarity to depth k, and once stable, of bisimilarity."""
    ids: dict = {}
    block_of = [ids.setdefault(c, len(ids)) for c in colours]
    while rounds > 0:
        rounds -= 1
        sigs: dict = {}  # blocks numbered in order of first occurrence
        block = block_of.__getitem__
        new = [sigs.setdefault((b, frozenset(map(block, ts))), len(sigs))
               for b, ts in zip(block_of, succ)]
        if new == block_of:
            break
        block_of = new
    return block_of


def _union(s: LTS, t: LTS) -> tuple[tuple, list]:
    """The colours and successor table of the disjoint union of two systems
    over one alphabet, the states of t shifted by s.n."""
    if s.props.names != t.props.names:
        raise SignatureError("proposition alphabets differ: %r vs %r" % (s.props.names, t.props.names))
    succ = list(s.successor_table())
    succ += [tuple(v + s.n for v in vs) for vs in t.successor_table()]
    return s.colours + t.colours, succ


def bisimilar(s: LTS, t: LTS) -> Optional[frozenset[tuple[int, int]]]:
    """Greatest bisimulation between two systems, or None.

    Runs partition refinement on the disjoint union; when the initial states
    end up in the same block, returns the full cross relation of same-block
    state pairs (a bisimulation containing the initial pair), read off the
    blocks: each state of s is paired with the states of t in its block.
    """
    block_of = _refine_partition(*_union(s, t))
    if block_of[s.init] != block_of[t.init + s.n]:
        return None
    mates: dict[int, list[int]] = {}
    for v in range(t.n):
        mates.setdefault(block_of[v + s.n], []).append(v)
    return frozenset((u, v) for u in range(s.n) for v in mates.get(block_of[u], ()))


def is_bisimulation(s: LTS, t: LTS, rel: Iterable[tuple[int, int]]) -> bool:
    """Definition-level check of the atom/forth/back conditions at every
    pair.  The relation is indexed once, each state to its mates on the
    other side, so a successor's forth or back condition is one test that
    its mates meet the other state's successors."""
    mates_s: dict[int, set[int]] = {}
    mates_t: dict[int, set[int]] = {}
    for u, v in rel:
        mates_s.setdefault(u, set()).add(v)
        mates_t.setdefault(v, set()).add(u)
    ssucc, tsucc = s.successor_table(), t.successor_table()
    none: frozenset[int] = frozenset()
    for u, vs in mates_s.items():
        su, cu = ssucc[u], s.colours[u]
        for v in vs:
            tv = tsucc[v]
            if cu != t.colours[v]:
                return False
            for u2 in su:
                if mates_s.get(u2, none).isdisjoint(tv):
                    return False
            for v2 in tv:
                if mates_t.get(v2, none).isdisjoint(su):
                    return False
    return True


def bisimilar_to_depth(s: LTS, t: LTS, d: int) -> bool:
    """Bounded bisimulation game: behavioural equivalence up to depth d,
    read off d rounds of refinement on the disjoint union (colours alone
    when d <= 0)."""
    block_of = _refine_partition(*_union(s, t), d)
    return block_of[s.init] == block_of[t.init + s.n]


def unravel_to_depth(lts: LTS, d: int) -> LTS:
    """Tree of paths from the initial state, truncated at depth d.

    Test scaffolding only: full unravellings are infinite objects and out
    of scope; the result is depth-d behaviourally equivalent to the input.
    """
    if d < 0:
        raise ValueError("depth must be non-negative")
    succ = lts.successor_table()
    paths: list[tuple[int, ...]] = [(lts.init,)]
    index = {(lts.init,): 0}
    edges = set()
    queue = [(lts.init,)]
    while queue:
        path = queue.pop(0)
        if len(path) > d:
            continue
        for t in succ[path[-1]]:
            ext = path + (t,)
            index[ext] = len(paths)
            paths.append(ext)
            edges.add((index[path], index[ext]))
            if len(ext) <= d:
                queue.append(ext)
    cols = tuple(lts.colours[p[-1]] for p in paths)
    return LTS(lts.props, len(paths), edges, cols, 0)


def noetherian_subset(lts: LTS, xs: Iterable[int]) -> bool:
    """Is xs coverable by a chain-free bundle of finite paths?

    On a finite system this holds iff xs is empty or some state reaches
    every member of xs: one finite path per member then forms a finite
    (hence chain-free) bundle rooted at that state.
    """
    xset = set(xs)
    for s in xset:
        if not (0 <= s < lts.n):
            raise ValueError("unknown state %d" % s)
    return not xset or any(xset <= r for r in lts._reach)


def quotient(lts: LTS) -> LTS:
    """Bisimulation quotient (same alphabet, bisimilar to the input).  The
    partition is stable, so each block's colour and successor blocks are
    read off one state of it, the smallest."""
    succ = lts.successor_table()
    block_of = _refine_partition(lts.colours, succ)
    first: dict[int, int] = {}  # blocks are numbered in order of first occurrence
    for s, b in enumerate(block_of):
        first.setdefault(b, s)
    table = tuple(tuple(sorted({block_of[t] for t in succ[s]})) for s in first.values())
    cols = tuple(lts.colours[s] for s in first.values())
    return object.__new__(LTS)._fill(lts.props, len(first), table, cols, block_of[lts.init])
