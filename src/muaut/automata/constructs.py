"""Two-sorted simulation constructs, projection, and the diamond automaton.

The finitary construct pairs an automaton with a powerset copy whose
macro-states carry priority 1: a run may process a finite portion of the
input non-deterministically on macro-states before falling back to the
original alternating behaviour.  Macro-entries disjoin a lifted normal
form of the conjoined original entries with the plain conjunction.  The
noetherian construct is identical except that its lifting carries no
cardinality constraints, bounding only the well-founded (vertical) part.
Only the macro-states reachable from {init} are built, at most
MAX_MACRO_STATES of them, and every output is trimmed (`core.trim`).
"""
from __future__ import annotations

from functools import lru_cache

from .. import onestep as o
from .core import (ParityAutomaton, _reachable_automaton, classify_automaton,
                   pred_name, pred_state)

MAX_MACRO_STATES = 16


class ConstructError(ValueError):
    pass


def _macro_index(n: int, subset: frozenset[int]) -> int:
    return n + sum(1 << a for a in subset)


def _lift_type(n: int, tp: frozenset[str]) -> frozenset[str]:
    """A state-sort type becomes the singleton macro-predicate type; the
    empty type stays empty."""
    if not tp:
        return frozenset()
    subset = frozenset(pred_state(a) for a in tp)
    return frozenset({pred_name(_macro_index(n, subset))})


def _lifted_disjunct(n: int, d: o.BasicFormDisjunct, finitary: bool) -> o.Formula:
    wits = [_lift_type(n, tp) for tp in d.witnesses]
    cover = [_lift_type(n, s) for s in sorted(d.cover, key=sorted)]
    if finitary:
        inf = sorted(d.inf_cover or frozenset(), key=sorted)
        cover += [_lift_type(n, s) for s in inf]
        cover += list(inf)  # the infinite tail stays on the original sort
        return o.record_sentence(wits, cover, inf)
    return o.record_sentence(wits, cover)


# memoized per (interned conjunction, n, construct): a stream of small
# automata meets the same conjunctions again and again
@lru_cache(maxsize=128)
def _macro_entry(conj_entry: o.Formula, n: int, finitary: bool) -> o.Formula:
    """The macro-state entry: the lifted normal form of the conjoined
    original entries, or the conjunction itself.  The normal form is taken
    in the construct's output dialect, so the input's does not enter the key."""
    psi = o.sentence(conj_entry, o.FOE1INF if finitary else o.FOE1,
                     tuple(pred_name(a) for a in range(n)))
    lifted = [_lifted_disjunct(n, d, finitary) for d in o.to_basic_form(psi).disjuncts]
    return o.disj(lifted + [conj_entry])


def _construct(aut: ParityAutomaton, finitary: bool) -> ParityAutomaton:
    """The construct on the states reachable from the macro-state {init},
    numbered as `trim` of the full powerset construct, in which macro-state
    n + sum(2^a for a in S) stands for the subset S of states."""
    rep = classify_automaton(aut)
    if finitary:
        if aut.dialect != o.FOE1INF or not rep.continuous_weak:
            raise ConstructError("finitary construct needs a continuous-weak FOE1INF automaton")
    else:
        if aut.dialect not in (o.FOE1, o.FO1) or not rep.weak:
            raise ConstructError("noetherian construct needs a weak FOE1 automaton")
    n, colours = aut.n, aut.props.colours()
    built = 0

    def row(a):
        nonlocal built
        if a < n:
            return [aut.entry(a, c) for c in colours]
        built += 1
        if built > MAX_MACRO_STATES:
            raise ConstructError("construct limited to %d macro-states (MAX_MACRO_STATES)"
                                 % MAX_MACRO_STATES)
        subset = [b for b in range(n) if (a - n) >> b & 1]
        return [_macro_entry(o.conj(aut.entry(b, c) for b in subset), n, finitary)
                for c in colours]

    return _reachable_automaton(o.FOE1INF if finitary else o.FOE1, aut.props,
                                _macro_index(n, frozenset({aut.init})), row,
                                lambda a: aut.omega[a] if a < n else 1, range(n, n + (1 << n)))


def finitary_construct(aut: ParityAutomaton) -> ParityAutomaton:
    """Two-sorted equivalent of a continuous-weak FOE1INF automaton whose
    macro-sort processes only a finite part of any accepted tree."""
    return _construct(aut, finitary=True)


def noetherian_construct(aut: ParityAutomaton) -> ParityAutomaton:
    """Two-sorted equivalent of a weak FOE1 automaton whose macro-sort
    processes only a well-founded part of any accepted tree."""
    return _construct(aut, finitary=False)


def project(aut: ParityAutomaton, p: str) -> ParityAutomaton:
    """Existential projection over a letter.

    State-sort entries are read without the letter; macro-sort entries
    disjoin both readings, written once when they are the same entry,
    which lets the non-deterministic mode guess the variant labelling.
    The output is trimmed.
    """
    if p not in aut.props.names:
        raise ValueError("letter %r not in the alphabet" % p)
    props = aut.props.without_letter(p)

    def row(a):
        if a not in aut.macro_states:
            return [aut.entry(a, c) for c in props.colours()]
        both = [(aut.entry(a, c), aut.entry(a, c | {p})) for c in props.colours()]
        return [e if e is f else o.disj([e, f]) for e, f in both]

    return _reachable_automaton(aut.dialect, props, aut.init, row, aut.omega.__getitem__,
                                aut.macro_states)


def diamond_automaton(aut: ParityAutomaton) -> ParityAutomaton:
    """Equality- and cardinality-free companion: every entry normalized and
    diamond-translated.  Equivalent to the original exactly on
    bisimulation-invariant automata."""
    if aut.dialect == o.FO1:
        raise ValueError("diamond automaton starts from FOE1 or FOE1INF")
    preds = tuple(pred_name(a) for a in range(aut.n))
    delta = {}
    for (a, c), f in aut.delta.items():
        bf = o.to_basic_form(o.sentence(f, aut.dialect, preds))
        delta[(a, c)] = o.diamond_translate(bf).ast
    return ParityAutomaton(o.FO1, aut.props, aut.n, aut.init, aut.omega, delta)
