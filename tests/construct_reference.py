"""Reference for the simulation constructs: the full powerset construct.

`full_construct` builds a macro-state for every subset of states, numbered
n + sum(2^a for a in the subset), from the same memoized macro entries as
`automata.constructs`.  The pinned one-step corpora of the tests read their
sentences from it, and the construct of the library equals its `trim`.
"""
from muaut import automata as au
from muaut import onestep as o
from muaut.automata.constructs import _macro_entry, _macro_index
from muaut.onestep.models import _all_types


def full_construct(aut: au.ParityAutomaton, finitary: bool) -> au.ParityAutomaton:
    n = aut.n
    delta = {}
    for c in aut.props.colours():
        for a in range(n):
            delta[(a, c)] = aut.entry(a, c)
        for subset in _all_types(range(n)):
            conj_entry = o.conj(aut.entry(a, c) for a in sorted(subset))
            delta[(_macro_index(n, subset), c)] = _macro_entry(conj_entry, n, finitary)
    total = n + (1 << n)
    return au.ParityAutomaton(o.FOE1INF if finitary else o.FOE1, aut.props, total,
                              _macro_index(n, frozenset({aut.init})),
                              tuple(aut.omega) + (1,) * (1 << n), delta,
                              macro_states=frozenset(range(n, total)))


def full_finitary(aut: au.ParityAutomaton) -> au.ParityAutomaton:
    return full_construct(aut, finitary=True)


def full_noetherian(aut: au.ParityAutomaton) -> au.ParityAutomaton:
    return full_construct(aut, finitary=False)
