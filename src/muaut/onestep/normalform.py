"""Semantic basic-form normalization for positive one-step sentences.

A positive sentence of quantifier depth r cannot distinguish two models
whose per-type multiplicities agree once truncated at r (with an extra
finite/infinite distinction when the infinity quantifiers are available).
Normalization therefore sweeps the truncated multiplicity profiles, keeps
the satisfying ones, and emits witness/cover disjuncts.  The truncation
bound is an implementation lemma validated by the exhaustive agreement
tests, not silently assumed.

Each sentence has one profile space, over the predicates that occur in it,
and every sweep of the sentence runs on that space: satisfaction is a
boolean vector over its profiles, factored through conjunctions and
disjunctions so that each leaf is swept once and kept (bounded in bytes)
for the next sentence that shares it.  A leaf is evaluated on all profiles
in one walk of its quantifier tree (`eval_counts`): a profile enters only
through tests "a fresh element of type t is left when u are pinned" (count
> u, or count omega for the infinity quantifiers), so each quantifier
option carries a bit column over the profiles and the quantifiers fold
those columns with | and &.  The per-type counts are broadcast views over
the profile grid, and the bit columns are shared by every leaf over a space
of the same shape.  `equivalent` runs the same walk over the exact count
vectors up to its bound, which stand for every finite model up to
isomorphism.

Records are pruned as arrays.  Over the types in rank order (by size, then
by sorted names), each satisfying profile becomes one row of three
arrays: witness counts W, cover bits C and infinite-cover bits I, read off
its class digits through per-class lookup tables.  The rows are walked in a
canonical order: by witness count, cover size and inf-cover size, then by
the rows themselves.  The order, and with it the output, depends only on
the sentence, never on the hash seed.  In one greedy pass the next unmarked
row is kept and, in a single vectorized step, marks every later row it
subsumes: a sound, incomplete implication check with a greedy witness
match.  Only kept rows become `BasicFormDisjunct` records, which keeps the
output usable as an automaton transition entry.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from typing import Optional

import numpy as np

from .ast import (FO1, FOE1, FOE1INF, And, DialectError, Eq, Exists,
                  ExistsInf, Forall, Formula, Neq, Or, OneStepFormula, W,
                  conj, disj, expand_sugar, is_positive, predicates, rank,
                  sentence, type_atom)
from .models import OMEGA, _all_types, _subsets_by_size, eval_counts, eval_finite

PROFILE_LIMIT = 1 << 20
LEAF_CACHE_BYTES = 64 << 20


class NotPositiveError(ValueError):
    pass


class NotContinuousError(ValueError):
    """No B-avoiding continuous form exists within the search bound."""


class ProfileBlowupError(ValueError):
    pass


@dataclass(frozen=True)
class BasicFormDisjunct:
    """One witness/cover record.

    witnesses lists types that must be realized by pairwise distinct
    elements (for FO1, just realized: no distinctness is expressible);
    cover lists the types allowed for the remaining elements; inf_cover,
    present only for the infinity dialect, lists the types that must occur
    infinitely often and outside of which only finitely many elements may
    fall.
    """

    witnesses: tuple[frozenset[str], ...]
    cover: frozenset[frozenset[str]]
    inf_cover: Optional[frozenset[frozenset[str]]] = None


@dataclass(frozen=True)
class BasicForm:
    dialect: str
    preds: tuple[str, ...]
    disjuncts: tuple[BasicFormDisjunct, ...]


# ---------------------------------------------------------------------------
# profile spaces


class _Space:
    """The truncated multiplicity profiles over the types of preds: each
    type takes one class, counted by one of reps (OMEGA for infinitely
    many).  The types are in rank order (by size, then by sorted names), and
    a profile's index reads its classes as base-len(reps) digits, the first
    type's most significant, so the grid axes and the record columns share
    one order.  A space also keeps the inclusion tables the pruner walks.
    Every leaf of a sentence is swept on the sentence's space, whatever
    predicates the leaf itself names."""

    def __init__(self, preds: tuple[str, ...], reps: tuple):
        self.preds, self.reps = preds, reps
        self.types = tuple(sorted(_all_types(preds), key=lambda tp: (len(tp), sorted(tp))))
        self.size = len(reps) ** len(self.types)

    @cached_property
    def sup(self) -> np.ndarray:  # sup[s, u]: types[s] <= types[u]
        return np.array([[s <= u for u in self.types] for s in self.types], dtype=bool)

    @cached_property
    def sups(self) -> tuple[tuple[int, ...], ...]:  # supersets of each type, rank order
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.sup)

    @cached_property
    def match_order(self) -> tuple[int, ...]:  # longest first, rank order within a length
        return tuple(sorted(range(len(self.types)), key=lambda j: -len(self.types[j])))


@lru_cache(maxsize=64)
def _space(preds: tuple[str, ...], reps: tuple) -> _Space:
    return _Space(preds, reps)


def _space_for(dialect: str, preds: tuple[str, ...], r: int) -> _Space:
    if dialect == FO1:
        return _space(preds, (0, 1))
    return _space(preds, tuple(range(r + 1)) + ((OMEGA,) if dialect == FOE1INF else ()))


@lru_cache(maxsize=32)
def _grid(ntypes: int, reps: tuple) -> tuple[list[np.ndarray], dict]:
    """The count rows of every profile space of this shape for
    `eval_counts`, with the packed availability columns its walks share.
    Row t is the count of type t in every profile, a read-only broadcast
    view over the grid of profiles (one axis per type, so the flat order is
    the odometer order of the profile index)."""
    k = len(reps)
    reps = np.array(reps, dtype=np.float32)
    return [np.broadcast_to(reps.reshape((k,) + (1,) * (ntypes - 1 - t)), (k,) * ntypes)
            for t in range(ntypes)], {}


class _LeafCache(dict):
    """Leaf sweeps kept across calls, bounded in bytes: cleared whenever
    the next sweep would push the total past LEAF_CACHE_BYTES."""

    nbytes = 0

    def put(self, key, sat: np.ndarray) -> None:
        if self.nbytes + sat.nbytes > LEAF_CACHE_BYTES:
            self.clear()
        if sat.nbytes <= LEAF_CACHE_BYTES:
            self[key] = sat
            self.nbytes += sat.nbytes

    def clear(self) -> None:
        super().clear()
        self.nbytes = 0


_leaf_cache = _LeafCache()


def _sat_vector(ast: Formula, space: _Space) -> np.ndarray:
    """Boolean vector over the profile space: does the representative model
    of each profile satisfy the (positive, sugar-free) formula?"""
    match ast:
        case And(args):
            out = np.ones(space.size, dtype=bool)
            for a in args:
                out &= _sat_vector(a, space)
            return out
        case Or(args):
            out = np.zeros(space.size, dtype=bool)
            for a in args:
                out |= _sat_vector(a, space)
            return out
    key = (ast, space.preds, space.reps)
    hit = _leaf_cache.get(key)
    if hit is not None:
        return hit
    out = eval_counts(ast, space.types, *_grid(len(space.types), space.reps))
    out.setflags(write=False)
    _leaf_cache.put(key, out)
    return out


# ---------------------------------------------------------------------------
# record arrays and pruning
#
# A record is one row of three arrays over the types in rank order
# (len, sorted): W holds witness counts, C cover bits and I inf-cover bits.


def _subsumed(w, c, i, W, C, I, dialect: str, space: _Space) -> np.ndarray:
    """Rows that the record (w, c, i) subsumes.

    Sound, incomplete: every model of a marked row models the record.  The
    witness match is greedy: the record's witnesses, longest first, each
    take the first available superset type of the row in rank order.
    """
    sup = space.sup
    above = sup[c | i].any(0)  # types lying above a cover type of the record
    # every cover type of the row, and every infinite tail, must land
    # inside the record's; each demanded infinite type must ride on an
    # infinite type of the row
    out = ~((C | I) & ~above).any(1) & ~(I & ~sup[i].any(0)).any(1)
    for s in np.flatnonzero(i):
        out &= I[:, sup[s]].any(1)
    if dialect == FO1:
        for s in np.flatnonzero(w):
            out &= W[:, sup[s]].any(1)
        return out
    cand = np.flatnonzero(out)
    if not len(cand):
        return out
    avail = W[cand]
    for s in space.match_order:
        if not w[s]:
            continue
        need = np.full(len(cand), w[s], dtype=W.dtype)
        for u in space.sups[s]:
            take = np.minimum(need, avail[:, u])
            avail[:, u] -= take
            need -= take
        out[cand] &= need == 0
    # leftover witnesses of the row must fall under the record's cover
    out[cand] &= ~((avail > 0) & ~above).any(1)
    return out


def _canonical_order(W, C, I) -> np.ndarray:
    """The order the pruner walks: by witness count, cover size and
    inf-cover size, then by the rows themselves, each type column taken
    largest first so that records resting on smaller (weaker) types lead."""
    keys = np.column_stack([W.sum(1), C.sum(1), I.sum(1), -W, ~C, ~I])
    return np.lexsort(keys.T[::-1])


def _prune(W, C, I, dialect: str, space: _Space) -> tuple[BasicFormDisjunct, ...]:
    """Greedy pass over the rows in canonical order: the next unmarked row
    is kept and marks every later row it subsumes.  Only kept rows are
    materialized."""
    rows = _canonical_order(W, C, I)
    kept = []
    while len(rows):
        top, rows = rows[0], rows[1:]
        kept.append(top)
        if len(rows):
            rows = rows[~_subsumed(W[top], C[top], I[top], W[rows], C[rows], I[rows],
                                   dialect, space)]
    return _disjuncts(W[kept], C[kept], I[kept], dialect, space.types)


def _disjuncts(W, C, I, dialect: str, types) -> tuple[BasicFormDisjunct, ...]:
    out = []
    for w, c, i in zip(W.tolist(), C.tolist(), I.tolist()):
        wits = tuple(tp for tp, m in zip(types, w) for _ in range(m))
        cover = frozenset(tp for tp, bit in zip(types, c) if bit)
        inf = (frozenset(tp for tp, bit in zip(types, i) if bit)
               if dialect == FOE1INF else None)
        out.append(BasicFormDisjunct(wits, cover, inf))
    return tuple(out)


def _records(f: OneStepFormula):
    """W, C, I rows of every satisfying truncated profile of a positive
    sentence, and its profile space, over the occurring predicates, whose
    types they range over."""
    if not is_positive(f.ast):
        raise NotPositiveError("basic forms are defined for positive sentences")
    ast = expand_sugar(f.ast)
    r = max(rank(ast), 1)
    space = _space_for(f.dialect, tuple(sorted(predicates(ast))), r)
    if space.size > PROFILE_LIMIT:
        raise ProfileBlowupError("profile space %d exceeds limit (%d predicates occurring, depth %d)"
                                 % (space.size, len(space.preds), r))
    k, n = len(space.reps), len(space.types)
    cls = np.flatnonzero(_sat_vector(ast, space))[:, None] // k ** np.arange(n - 1, -1, -1) % k
    # per class: the witness count, capped at the largest finite count (FO1
    # only tells realized types from absent ones), and the cover bits
    reps = np.array(space.reps)
    inf = reps == OMEGA
    top = reps[~inf].max()
    return (np.minimum(reps, top).astype(np.int16)[cls], ((reps >= top) & ~inf)[cls],
            inf[cls], space)


@lru_cache(maxsize=4096)
def to_basic_form(f: OneStepFormula) -> BasicForm:
    """Equivalent disjunction of witness/cover records (dialect-respecting).

    Only predicates that actually occur in the sentence enter the type
    space; absent ones are unconstrained either way.  Records implied by a
    weaker kept record are pruned.
    """
    W, C, I, space = _records(f)
    return BasicForm(f.dialect, f.preds, _prune(W, C, I, f.dialect, space))


def record_sentence(witness_types: list[frozenset[str]], cover_types: list[frozenset[str]],
                    inf_types: list[frozenset[str]] | None = None) -> Formula:
    """Witness/cover sentence over arbitrary predicate names, with the
    distinctness guards interleaved for early backtracking.

    With inf_types the cover is W z.(z=x1 | ... | cover, inf), the shape of
    the continuous grammar, with one Einf conjunct per inf type.  Since
    W z.(f, g) is A z.(f | g) & Ainf z. g, that reads A z.(...) & Ainf z.(inf)
    when the cover types hold the inf types, as they do in every record."""
    xs = ["x%d" % (i + 1) for i in range(len(witness_types))]
    cover = disj([Eq("z", x) for x in xs] + [type_atom(s, "z") for s in cover_types])
    body: Formula = (Forall("z", cover) if inf_types is None
                     else W("z", cover, disj(type_atom(s, "z") for s in inf_types)))
    for i in reversed(range(len(xs))):
        guards: list[Formula] = [Neq(xs[i], xs[j]) for j in range(i)]
        body = Exists(xs[i], conj(guards + [type_atom(witness_types[i], xs[i]), body]))
    if inf_types is not None:
        body = conj([body] + [ExistsInf("y", type_atom(s, "y")) for s in inf_types])
    return body


def expand_disjunct(d: BasicFormDisjunct, dialect: str) -> Formula:
    """The sentence a record denotes (see `record_sentence`)."""
    if dialect == FO1:
        parts = [Exists("x", type_atom(tp, "x")) for tp in d.witnesses]
        parts.append(Forall("z", disj(type_atom(s, "z") for s in sorted(d.cover, key=sorted))))
        return conj(parts)
    cover = sorted(d.cover | (d.inf_cover or frozenset()), key=sorted)
    inf = (sorted(d.inf_cover, key=sorted)
           if dialect == FOE1INF and d.inf_cover is not None else None)
    return record_sentence(d.witnesses, cover, inf)


def expand(bf: BasicForm) -> OneStepFormula:
    return sentence(disj(expand_disjunct(d, bf.dialect) for d in bf.disjuncts),
                    bf.dialect, bf.preds)


def to_continuous_basic_form(f: OneStepFormula, b: frozenset[str]) -> BasicForm:
    """Basic form whose universal/infinite part avoids the predicates in b.

    Defined for the FO1 and FOE1INF dialects.  The input must be positive
    and b-continuous; non-continuous inputs are detected by a bounded
    semantic equivalence check and rejected.  The sentence's own records
    are rewritten before pruning: for FO1 each cover type s becomes s - b,
    and for FOE1INF the records whose infinite part meets b are dropped.
    """
    if f.dialect == FOE1:
        raise DialectError("continuous basic forms exist for FO1 and FOE1INF only")
    W, C, I, space = _records(f)
    if f.dialect == FO1:
        C = C @ np.array([[s - b == u for u in space.types] for s in space.types])
    else:
        hits = np.array([bool(s & b) for s in space.types])
        keep = ~(I & hits).any(1)
        W, C, I = W[keep], C[keep], I[keep]
    out = BasicForm(f.dialect, f.preds, _prune(W, C, I, f.dialect, space))
    bound = rank(f.ast) + 1
    if not equivalent(f, expand(out), bound):
        raise NotContinuousError(
            "input is not continuous in %r within bound %d" % (sorted(b), bound))
    return out


@lru_cache(maxsize=16)
def _exact_counts(ntypes: int, bound: int) -> np.ndarray:
    """Every vector of per-type counts with total at most bound, one per
    column: the finite models of up to bound elements, one per
    isomorphism class."""
    out = [np.bincount(np.array(c, dtype=np.int64), minlength=ntypes)
           for size in range(bound + 1)
           for c in combinations_with_replacement(range(ntypes), size)]
    out = np.array(out, dtype=np.float32).reshape(len(out), ntypes).T
    out.setflags(write=False)
    return out


def equivalent(f: OneStepFormula, g: OneStepFormula, bound: int) -> bool:
    """Agreement on every finite model up to the bound and every weighted
    profile with truncated multiplicities.

    A monadic sentence sees a finite model only through its per-type
    counts, so the finite models are checked as the count vectors of total
    at most the bound, both sentences evaluated over all of them in one
    `eval_counts` walk each.  The weighted profiles then go through the
    same leaf sweep as normalization, with counts clamped to the maximal
    depth of the two inputs.  Exact for these monadic dialects once the
    bound reaches the quantifier depth (validated empirically by the
    exhaustive suites).
    """
    preds = tuple(sorted(set(predicates(f.ast)) | set(predicates(g.ast))))
    types = _all_types(preds)
    exact = _exact_counts(len(types), bound)
    if not np.array_equal(eval_counts(f.ast, types, exact), eval_counts(g.ast, types, exact)):
        return False
    need_omega = f.dialect == FOE1INF or g.dialect == FOE1INF
    k = min(bound, max(rank(f.ast), rank(g.ast), 1))
    if len(preds) <= 3 or need_omega:
        space = _space(preds, tuple(range(k + 1)) + ((OMEGA,) if need_omega else ()))
        if space.size <= PROFILE_LIMIT:
            fa = _sat_vector(expand_sugar(f.ast), space)
            ga = _sat_vector(expand_sugar(g.ast), space)
            if not bool(np.array_equal(fa, ga)):
                return False
    return True


def diamond_translate(bf: BasicForm) -> OneStepFormula:
    """Equality- and cardinality-erasing rewrite into FO1.

    Each record turns into plain witness requirements plus a universal
    cover; the cover of an infinity-dialect record is its infinite part,
    whose types are also witnessed (a record then holds in a model exactly
    when the original holds in the model with every element duplicated
    infinitely often).
    """
    if bf.dialect == FO1:
        raise DialectError("diamond translation starts from FOE1 or FOE1INF forms")
    parts = []
    for d in bf.disjuncts:
        if bf.dialect == FOE1INF:
            cover = d.inf_cover if d.inf_cover is not None else frozenset()
        else:
            cover = d.cover
        wits = d.witnesses + tuple(s for s in sorted(cover, key=sorted) if s not in d.witnesses)
        parts.append(expand_disjunct(BasicFormDisjunct(wits, cover), FO1))
    return sentence(disj(parts), FO1, bf.preds)


def satisfying_restriction_exists(f: OneStepFormula, m, b: frozenset[str]) -> bool:
    """Is there a b-restriction of the model's valuation still satisfying f?

    Finite-model reading of the continuity witness: search all ways of
    shrinking the extensions of the b-predicates.
    """
    exts = [sorted(m.valuation.get(a, frozenset())) for a in sorted(b)]
    names = sorted(b)
    for combo in product(*[list(_subsets_by_size(e)) for e in exts]):
        val = dict(m.valuation)
        for a, sub in zip(names, combo):
            val[a] = frozenset(sub)
        if eval_finite(f.ast, type(m)(m.size, val)):
            return True
    return False
