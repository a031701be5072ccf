"""Syntactic fragments of the one-step languages.

Membership in the continuous / co-continuous grammars over a set B of
predicates.  The grammar is the one continuity test: the records of a
normal form (`record_sentence`) end their infinite part in the grammar's
W construct, so an automaton entry built from records is continuous
exactly when it lies in the grammar.  The checks are purely syntactic; the
semantic properties they imply (monotonicity, continuity witnesses) are
exercised by the test suite on bounded models.
"""
from __future__ import annotations

from .ast import Formula, dual, is_positive


def in_continuous_fragment(f: Formula, b: frozenset[str]) -> bool:
    """Membership in the B-continuous grammar.

    Grammar: b(x) for b in B, any B-free positive formula, conjunction,
    disjunction, existential quantification, and the W construct whose
    second component is B-free.  The expanded form of W is recognized too.
    A positive formula lies in it exactly when B misses the predicates its
    facts record as `discontinuous`.
    """
    return is_positive(f) and f.facts.discontinuous.isdisjoint(b)


def in_cocontinuous_fragment(f: Formula, b: frozenset[str]) -> bool:
    """Definitionally: the dual lies in the B-continuous grammar.  The dual
    is stored on f, so each formula is dualized once."""
    return is_positive(f) and dual(f).facts.discontinuous.isdisjoint(b)


def separation_sufficient(record_types: list[frozenset[str]], b: frozenset[str]) -> bool:
    """Sufficient condition for B-separation of a basic-form disjunct:
    every listed type contains at most one predicate from B."""
    return all(len(tp & b) <= 1 for tp in record_types)


def separates(valuation: dict[str, frozenset[int]], b: frozenset[str], domain: range) -> bool:
    """Does the valuation give each element at most one B-predicate?"""
    for d in domain:
        if sum(1 for a in b if d in valuation.get(a, frozenset())) > 1:
            return False
    return True
