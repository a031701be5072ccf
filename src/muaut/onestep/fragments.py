"""Syntactic fragments of the one-step languages.

Membership in the positive fragment and in the continuous / co-continuous
grammars over a set B of predicates.  The checks are purely syntactic; the
semantic properties they imply (monotonicity, continuity witnesses) are
exercised by the test suite on bounded models.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ast import (And, Eq, Exists, ExistsInf, Forall, ForallInf, Formula, Neq,
                  Or, Pred, W, dual, is_positive, predicates)


@dataclass(frozen=True)
class FragmentFlags:
    positive: bool
    continuous: bool      # member of the B-continuous grammar
    cocontinuous: bool    # member of the dual grammar


def in_continuous_fragment(f: Formula, b: frozenset[str]) -> bool:
    """Membership in the B-continuous grammar.

    Grammar: b(x) for b in B, any B-free positive formula, conjunction,
    disjunction, existential quantification, and the W construct whose
    second component is B-free.  The expanded form of W is recognized too.
    """
    if not is_positive(f):
        return False
    if not predicates(f) & b:
        return True
    match f:
        case W(_, fin, cof):
            return in_continuous_fragment(fin, b) and not predicates(cof) & b
        case And(args) if (w := _match_expanded_w(args)) is not None:
            return in_continuous_fragment(w[0], b) and not predicates(w[1]) & b
        case And() | Or() | Exists():
            return all(in_continuous_fragment(a, b) for a in f.children())
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


def in_cocontinuous_fragment(f: Formula, b: frozenset[str]) -> bool:
    """Definitionally: the dual lies in the B-continuous grammar."""
    return is_positive(f) and in_continuous_fragment(dual(f), b)


def fragment_check(f: Formula, b: frozenset[str]) -> FragmentFlags:
    return FragmentFlags(
        positive=is_positive(f),
        continuous=in_continuous_fragment(f, b),
        cocontinuous=in_cocontinuous_fragment(f, b),
    )


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


def match_nabla(f: Formula):
    """Recognize a witness/cover record (as produced by the record
    builders): returns (witness types, cover types, inf types or None).

    The match is syntactic and targets the builders' own output shape:
    an existential chain with interleaved distinctness guards, a guarded
    universal cover, and optionally the infinity block.
    """
    parts = list(f.args) if isinstance(f, And) else [f]
    einf: list[frozenset[str]] = []
    ainf = None
    core = []
    for p in parts:
        match p:
            case ExistsInf(_, body):
                tp = _type_of(body, p.var)
                if tp is None:
                    return None
                einf.append(tp)
            case ForallInf(_, body):
                if ainf is not None:
                    return None
                ainf = p
            case _:
                core.append(p)
    has_inf = bool(einf) or ainf is not None
    if len(core) != 1:
        return None
    witnesses: list[frozenset[str]] = []
    xs: list[str] = []
    node = core[0]
    while isinstance(node, Exists):
        x = node.var
        body = node.body if isinstance(node.body, And) else And((node.body,))
        tp = set()
        nxt = None
        for arg in body.args:
            match arg:
                case Neq(a, b) if (a == x and b in xs) or (b == x and a in xs):
                    pass
                case Pred(name, v) if v == x:
                    tp.add(name)
                case Exists() | Forall() | And(()):
                    if nxt is not None:
                        return None
                    nxt = arg
                case _:
                    return None
        xs.append(x)
        witnesses.append(frozenset(tp))
        if nxt is None or nxt == And(()):
            return None  # missing the universal cover
        node = nxt
    if not isinstance(node, Forall):
        return None
    z = node.var
    cover: list[frozenset[str]] = []
    for arg in node.body.args if isinstance(node.body, Or) else (node.body,):
        match arg:
            case Eq(a, b) if (a == z and b in xs) or (b == z and a in xs):
                pass
            case _:
                tp = _type_of(arg, z)
                if tp is None:
                    return None
                cover.append(tp)
    if not has_inf:
        return witnesses, cover, None
    inf_types: list[frozenset[str]] = []
    if ainf is not None:
        body = ainf.body
        for arg in body.args if isinstance(body, Or) else (body,):
            tp = _type_of(arg, ainf.var)
            if tp is None:
                return None
            inf_types.append(tp)
    if set(einf) - set(inf_types):
        return None
    return witnesses, cover, inf_types


def _type_of(f: Formula, var: str):
    """Parse a positive type description tau+_T(var); None if not one."""
    parts = f.args if isinstance(f, And) else (f,)
    tp = set()
    for p in parts:
        if isinstance(p, Pred) and p.var == var:
            tp.add(p.name)
        else:
            return None
    return frozenset(tp)


# memoized per (interned node, b): an automaton repeats entries across states
# and colours; the small bound keeps large entries from outliving it
@lru_cache(maxsize=64)
def continuous_entry(f: Formula, b: frozenset[str]) -> bool:
    """Continuity check for automaton entries: grammar membership, or a
    record shape whose infinite part avoids b (the normal-form
    characterization of continuity), closed under disjunction."""
    disjuncts = f.args if isinstance(f, Or) else (f,)
    for d in disjuncts:
        if in_continuous_fragment(d, b):
            continue
        shape = match_nabla(d)
        if shape is None:
            return False
        _, cover, inf = shape
        tail = inf if inf is not None else cover
        if any(tp & b for tp in tail):
            return False
    return True


@lru_cache(maxsize=64)
def cocontinuous_entry(f: Formula, b: frozenset[str]) -> bool:
    return is_positive(f) and continuous_entry(dual(f), b)
