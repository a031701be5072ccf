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

from functools import lru_cache

from .ast import (And, Exists, ExistsInf, Forall, ForallInf, Formula, Or, W,
                  dual, is_positive, predicates)


# memoized per (interned node, b): an automaton repeats entries across states
# and colours; the small bound keeps large entries from outliving it
@lru_cache(maxsize=64)
def in_continuous_fragment(f: Formula, b: frozenset[str]) -> bool:
    """Membership in the B-continuous grammar.

    Grammar: b(x) for b in B, any B-free positive formula, conjunction,
    disjunction, existential quantification, and the W construct whose
    second component is B-free.  The expanded form of W is recognized too.
    """
    return _continuous(f, b)


def _continuous(f: Formula, b: frozenset[str]) -> bool:
    if not is_positive(f):
        return False
    if not predicates(f) & b:
        return True
    match f:
        case W(_, fin, cof):
            return _continuous(fin, b) and not predicates(cof) & b
        case And(args) if (w := _match_expanded_w(args)) is not None:
            return _continuous(w[0], b) and not predicates(w[1]) & b
        case And() | Or() | Exists():
            return all(_continuous(a, b) for a in f.children())
        case Forall() | ForallInf() | ExistsInf():
            return False
    return True  # b(x) for b in B


def _match_expanded_w(args: tuple[Formula, ...]):
    """Recognize And(Forall(x, Or(f, g)), ForallInf(x, g)) up to argument order."""
    if len(args) != 2:
        return None
    for first, second in (args, args[::-1]):
        match (first, second):
            case (Forall(x1, Or(parts)), ForallInf(x2, cof)) if x1 == x2 and len(parts) == 2:
                if parts[1] == cof:
                    return parts[0], cof
                if parts[0] == cof:
                    return parts[1], cof
    return None


@lru_cache(maxsize=64)
def in_cocontinuous_fragment(f: Formula, b: frozenset[str]) -> bool:
    """Definitionally: the dual lies in the B-continuous grammar."""
    return is_positive(f) and _continuous(dual(f), b)


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
