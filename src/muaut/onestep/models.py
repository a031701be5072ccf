"""One-step models and satisfaction.

Two model classes: plain finite models, and multiplicity-weighted models
where each type (subset of the predicate set) carries a count in
{0,1,2,...} or the symbol omega.  Weighted satisfaction simulates the
expanded (possibly infinite) model exactly: indistinguishable copies of a
type are never pinned twice, so trying one fresh copy per type suffices.
`eval_counts` runs the same walk once for a whole matrix of count vectors.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .ast import (And, Eq, Exists, ExistsInf, Forall, ForallInf, Formula, Neq,
                  NegPred, Or, Pred, expand_sugar, predicates, rank)

OMEGA = float("inf")
_EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class OneStepModel:
    """Finite monadic model: domain {0..size-1} plus a valuation."""

    size: int
    valuation: dict[str, frozenset[int]]

    def __post_init__(self):
        # type() rather than isinstance(): a bool is an int
        if type(self.size) is not int or self.size < 0:
            raise ValueError("model size must be a natural number: %r" % (self.size,))
        for a, ext in self.valuation.items():
            for d in ext:
                if type(d) is not int or not 0 <= d < self.size:
                    raise ValueError("valuation of %r outside domain: %r" % (a, d))

    def element_type(self, d: int) -> frozenset[str]:
        return frozenset(a for a, ext in self.valuation.items() if d in ext)

    def complemented(self, preds: Iterable[str]) -> "OneStepModel":
        dom = frozenset(range(self.size))
        return OneStepModel(
            self.size,
            {a: dom - self.valuation.get(a, frozenset()) for a in preds},
        )


def model_of_types(types: Iterable[frozenset[str]]) -> OneStepModel:
    """Finite model with one element per listed type occurrence."""
    types = list(types)
    val: dict[str, set[int]] = {}
    for i, tp in enumerate(types):
        for a in tp:
            val.setdefault(a, set()).add(i)
    return OneStepModel(len(types), {a: frozenset(s) for a, s in val.items()})


@dataclass(frozen=True)
class WeightedOneStepModel:
    """Multiplicity function over types; counts may be the symbol omega."""

    preds: tuple[str, ...]
    counts: tuple[tuple[frozenset[str], Union[int, float]], ...]

    def __post_init__(self):
        for tp, c in self.counts:
            if not tp <= frozenset(self.preds):
                raise ValueError("type %r outside predicate set" % sorted(tp))
            if c != OMEGA and (not isinstance(c, int) or c < 0):
                raise ValueError("count must be a natural number or omega")

    def count(self, tp: frozenset[str]) -> Union[int, float]:
        for t, c in self.counts:
            if t == tp:
                return c
        return 0

    def expand(self) -> OneStepModel:
        """Finite expansion; only defined when all counts are finite."""
        types = []
        for tp, c in sorted(self.counts, key=lambda tc: sorted(tc[0])):
            if c == OMEGA:
                raise ValueError("cannot expand an omega count")
            types.extend([tp] * int(c))
        return model_of_types(types)


def weighted(preds: Iterable[str], counts: dict[frozenset[str], Union[int, float]]) -> WeightedOneStepModel:
    items = tuple(sorted(counts.items(), key=lambda tc: (len(tc[0]), sorted(tc[0]))))
    return WeightedOneStepModel(tuple(preds), items)


def eval_finite(f: Formula, m: OneStepModel) -> bool:
    """Standard satisfaction on finite models.

    On the empty model the quantifier clauses degenerate to the stipulated
    empty-domain semantics (existentials false, universals true); the
    infinity quantifiers follow their cardinality reading, so on any finite
    model ExistsInf is false and ForallInf is true.
    """
    return _program(expand_sugar(f))(m)


@lru_cache(maxsize=32)
def _program(f: Formula):
    """f compiled once per interned sugar-free sentence into nested closures
    over (extents of its sorted predicates, range(size), slots).  A variable
    is the slot of its binder's depth, so an inner binder of the same name
    takes a slot of its own; quantifiers stop at the first witness."""
    col = {a: j for j, a in enumerate(sorted(predicates(f)))}

    def comp(g: Formula, slot: dict[str, int], k: int):
        match g:
            case Pred(a, x):
                j, i = col[a], slot[x]
                return lambda e, r, s: s[i] in e[j]
            case NegPred(a, x):
                j, i = col[a], slot[x]
                return lambda e, r, s: s[i] not in e[j]
            case Eq(x, y):
                i, j = slot[x], slot[y]
                return lambda e, r, s: s[i] == s[j]
            case Neq(x, y):
                i, j = slot[x], slot[y]
                return lambda e, r, s: s[i] != s[j]
            case And(args) | Or(args):
                # shallow arguments first: they are cheap and may decide
                subs = [comp(a, slot, k) for a in sorted(args, key=rank)]
                decides = isinstance(g, Or)

                def junction(e, r, s):
                    for sub in subs:
                        if sub(e, r, s) is decides:
                            return decides
                    return not decides
                return junction
            case Exists(x, b) | Forall(x, b):
                body = comp(b, {**slot, x: k}, k + 1)
                decides = isinstance(g, Exists)

                def quantifier(e, r, s):
                    for d in r:
                        s[k] = d
                        if body(e, r, s) is decides:
                            return decides
                    return not decides
                return quantifier
            case ExistsInf() | ForallInf():
                value = isinstance(g, ForallInf)
                return lambda e, r, s: value
        raise TypeError(g)

    run, preds, q = comp(f, {}, 0), tuple(col), rank(f)
    return lambda m: run(tuple(m.valuation.get(a, _EMPTY) for a in preds),
                         range(m.size), [0] * q)


def eval_capped(f: Formula, valuation: dict[str, Iterable],
                domains: Iterable[Iterable]) -> list[bool]:
    """eval_finite(f) on the model of each domain's (distinct) elements in
    which predicate a holds at those in valuation.get(a, ()).  A sentence of
    quantifier rank q sees only how many elements each type has, capped at q
    (the Ehrenfeucht-Fraisse game on monadic structures), so each answer is
    read from the types that occur and their capped counts, memoized per
    (sentence, counts) for the process.
    """
    f = expand_sugar(f)
    preds, q = sorted(predicates(f)), rank(f)
    kind: dict = {}  # element -> its type, bit j for the j-th predicate
    for j, a in enumerate(preds):
        for e in valuation.get(a, _EMPTY):
            kind[e] = kind.get(e, 0) | 1 << j
    out = []
    for d in domains:
        counts: dict[int, int] = {}
        for e in d:
            t = kind.get(e, 0)
            counts[t] = counts.get(t, 0) + 1
        out.append(_capped_truth(f, tuple(sorted((t, min(c, q)) for t, c in counts.items()))))
    return out


@lru_cache(maxsize=1024)
def _capped_truth(f: Formula, counts: tuple[tuple[int, int], ...]) -> bool:
    """f on the canonical model with c elements of type t for each (t, c) in
    counts (t a bit mask over the sorted predicates of f, as in `_all_types`)."""
    preds = sorted(predicates(f))
    return eval_finite(f, model_of_types(frozenset(a for j, a in enumerate(preds) if t >> j & 1)
                                         for t, c in counts for _ in range(c)))


def eval_weighted(f: Formula, w: WeightedOneStepModel) -> bool:
    """Satisfaction over the expansion of a weighted model, without building it.

    Elements are pairs (type, copy index); an assignment may pin finitely
    many copies.  A quantifier ranges over the pinned elements plus one
    fresh copy per type with spare multiplicity; ExistsInf needs a fresh
    copy of an omega type, and ForallInf tolerates any finite number of
    exceptions, hence only omega-type fresh copies can refute it.
    """
    return eval_weighted_raw(expand_sugar(f), {tp: c for tp, c in w.counts if c != 0})


def eval_weighted_raw(f: Formula, counts: dict[frozenset, Union[int, float]]) -> bool:
    """Core of eval_weighted: sugar-free formula, nonzero counts only."""

    def options(pins: dict[str, tuple[frozenset[str], int]]):
        used: dict[frozenset[str], int] = {}
        for tp, _ in set(pins.values()):  # distinct elements, not variables
            used[tp] = used.get(tp, 0) + 1
        opts = list(dict.fromkeys(pins.values()))
        for tp, c in counts.items():
            u = used.get(tp, 0)
            if c == OMEGA or c > u:
                opts.append((tp, u))  # one fresh, lowest unused copy index
        return opts

    def fresh_omega(pins):
        used: dict[frozenset[str], int] = {}
        for tp, _ in set(pins.values()):
            used[tp] = used.get(tp, 0) + 1
        return [(tp, used.get(tp, 0)) for tp, c in counts.items() if c == OMEGA]

    def go(g: Formula, pins: dict[str, tuple[frozenset[str], int]]) -> bool:
        match g:
            case Pred(a, x):
                return a in pins[x][0]
            case NegPred(a, x):
                return a not in pins[x][0]
            case Eq(x, y):
                return pins[x] == pins[y]
            case Neq(x, y):
                return pins[x] != pins[y]
            case And(args):
                return all(go(a, pins) for a in args)
            case Or(args):
                return any(go(a, pins) for a in args)
            case Exists(x, b):
                return any(go(b, {**pins, x: e}) for e in options(pins))
            case Forall(x, b):
                return all(go(b, {**pins, x: e}) for e in options(pins))
            case ExistsInf(x, b):
                return any(go(b, {**pins, x: e}) for e in fresh_omega(pins))
            case ForallInf(x, b):
                return all(go(b, {**pins, x: e}) for e in fresh_omega(pins))
        raise TypeError(g)

    return go(f, {})


def eval_counts(f: Formula, types: Sequence[frozenset[str]], counts,
                columns: dict | None = None) -> np.ndarray:
    """eval_weighted_raw on every column of a count matrix at once; W sugar
    is expanded first.

    counts[t, j] is the multiplicity of types[t] in model j: a natural
    number, or OMEGA.  counts may also be a sequence of per-type arrays of
    one common shape (such as broadcast views over a grid of models), read
    in C order.  The pin tree of eval_weighted_raw is walked once for
    all columns.  Atoms and (in)equalities stay Python booleans; a fresh
    copy of type t with u distinct elements of that type pinned is allowed
    where counts[t] > u, and for the infinity quantifiers where
    counts[t] == OMEGA, so each quantifier folds its options into a column
    with | or &.  Columns are packed into bits, 64 models a word, and the
    formula is compiled into closures before the walk.  Returns a boolean
    array with one entry per column.

    columns, if given, keeps the packed availability columns between walks
    over the same counts; it is filled in place.
    """
    f = expand_sugar(f)
    n = np.size(counts[0])
    words = -(-n // 64)
    cols = {} if columns is None else columns

    def fresh(t: int, u: int, inf: bool, avail: bool):
        """The packed column where a fresh copy of type t is available (or,
        if not avail, unavailable) with u copies pinned, or a Python bool
        where that is constant."""
        key = (t, -1 if inf else u, avail)
        hit = cols.get(key)
        if hit is None:
            test = np.ravel(counts[t] == OMEGA if inf else counts[t] > u)
            if not avail:
                test = ~test
            if test.all() or not test.any():
                hit = bool(test[0]) if n else not avail
            else:
                buf = np.zeros(words * 8, dtype=np.uint8)
                buf[:-(-n // 8)] = np.packbits(test)
                hit = buf.view(np.uint64)
            cols[key] = hit
        return hit

    def compile_(g: Formula):
        """A closure from pins to the value of g, and whether g is
        quantifier-free (its value then is always a Python bool)."""
        match g:
            case Pred(a, x) | NegPred(a, x):
                having = frozenset(t for t, tp in enumerate(types)
                                   if (a in tp) == isinstance(g, Pred))
                return (lambda pins: pins[x][0] in having), True
            case Eq(x, y):
                return (lambda pins: pins[x] == pins[y]), True
            case Neq(x, y):
                return (lambda pins: pins[x] != pins[y]), True
            case And(args) | Or(args):
                # quantifier-free arguments first: they are cheap and may decide
                compiled = sorted(map(compile_, args), key=lambda c: not c[1])
                subs = [sub for sub, _ in compiled]
                decides = isinstance(g, Or)
                op = _or if decides else _and
                if all(qf for _, qf in compiled):
                    def plain(pins):
                        for sub in subs:
                            if sub(pins) is decides:
                                return decides
                        return not decides
                    return plain, True

                def junction(pins):
                    acc = not decides
                    for sub in subs:
                        acc = op(acc, sub(pins))
                        if acc is decides:
                            break
                    return acc
                return junction, False
            case Exists(x, b) | Forall(x, b) | ExistsInf(x, b) | ForallInf(x, b):
                body = compile_(b)[0]
                decides = isinstance(g, (Exists, ExistsInf))
                inf = isinstance(g, (ExistsInf, ForallInf))

                # Exists folds the options with | over avail & v, Forall with &
                # over ~avail | v; `fresh` gives the column each one needs
                op, inner = (_or, _and) if decides else (_and, _or)

                def quantifier(pins):
                    pinned = dict.fromkeys(pins.values())
                    acc = not decides
                    if not inf:
                        for e in pinned:
                            acc = op(acc, body({**pins, x: e}))
                            if acc is decides:
                                return acc
                    used = [0] * len(types)
                    for t, _ in pinned:
                        used[t] += 1
                    for t, u in enumerate(used):
                        mask = fresh(t, u, inf, decides)
                        if mask is not decides and isinstance(mask, bool):
                            continue  # no column holds such a fresh copy
                        acc = op(acc, inner(mask, body({**pins, x: (t, u)})))
                        if acc is decides:
                            break
                    return acc
                return quantifier, False
        raise TypeError(g)

    out = compile_(f)[0]({})
    if isinstance(out, bool):
        return np.full(n, out)
    return np.unpackbits(out.view(np.uint8), count=n).view(bool)


def _and(a, b):
    if a is True or b is False:
        return b
    if b is True or a is False:
        return a
    return a & b


def _or(a, b):
    if a is False or b is True:
        return b
    if b is False or a is True:
        return a
    return a | b


def _all_types(preds: Sequence) -> list[frozenset]:
    """Every subset of preds, in the order of its bit mask over preds."""
    return [frozenset(p for i, p in enumerate(preds) if mask >> i & 1)
            for mask in range(1 << len(preds))]


def _subsets_by_size(xs: Sequence) -> Iterator[tuple]:
    """Every subset of xs as a tuple, smallest first, each size in the
    order of `combinations`."""
    return chain.from_iterable(combinations(xs, k) for k in range(len(xs) + 1))


@lru_cache(maxsize=8)
def all_models(preds: tuple[str, ...], max_size: int) -> tuple[OneStepModel, ...]:
    """Every finite model up to max_size elements (including the empty one),
    memoized for the process: the oracle loops sweep the same few spaces."""
    types = _all_types(preds)
    return tuple(model_of_types(combo) for size in range(max_size + 1)
                 for combo in product(types, repeat=size))


def all_weighted_models(preds: tuple[str, ...], max_count: int, with_omega: bool) -> list[WeightedOneStepModel]:
    """Every weighted model with per-type count in {0..max_count} (+ omega)."""
    classes: list[Union[int, float]] = list(range(max_count + 1))
    if with_omega:
        classes.append(OMEGA)
    types = _all_types(preds)
    out = []
    for combo in product(classes, repeat=len(types)):
        out.append(weighted(preds, dict(zip(types, combo))))
    return out


def min_valuations(f: Formula, domain: tuple[int, ...]) -> list[frozenset[tuple[str, int]]]:
    """Minimal valuations (as pred/element pair sets) satisfying a positive
    formula on the given domain, fewest pairs first, then by sorted pairs.

    Soundness and completeness rest on monotonicity: every satisfying
    valuation extends a generated one, and every generated one satisfies f.
    Used to enumerate the meaningful moves in acceptance and evaluation
    games without scanning all valuations.  The walk keeps each valuation
    as a bit mask over (predicate, domain position) and converts only the
    minimal ones back to pairs.
    """
    f = expand_sugar(f)
    preds = sorted(predicates(f))
    k = len(domain)
    offset = {a: i * k for i, a in enumerate(preds)}
    pos = {d: i for i, d in enumerate(domain)}

    def go(g: Formula, env: dict[str, int]) -> list[int]:
        match g:
            case Pred(a, x):
                return [1 << (offset[a] + pos[env[x]])]
            case NegPred():
                raise ValueError("min_valuations requires a positive formula")
            case Eq(x, y):
                return [0] if env[x] == env[y] else []
            case Neq(x, y):
                return [0] if env[x] != env[y] else []
            case And(args):
                acc = [0]
                for a in args:
                    nxt = go(a, env)
                    acc = _minimal([u | v for u in acc for v in nxt])
                    if not acc:
                        return []
                return acc
            case Or(args):
                return _minimal([m for a in args for m in go(a, env)])
            case Exists(x, b):
                return _minimal([m for d in domain for m in go(b, {**env, x: d})])
            case Forall(x, b):
                acc = [0]
                for d in domain:
                    nxt = go(b, {**env, x: d})
                    acc = _minimal([u | v for u in acc for v in nxt])
                    if not acc:
                        return []
                return acc
            case ExistsInf():
                return []
            case ForallInf():
                return [0]
        raise TypeError(g)

    def pairs(mask: int) -> frozenset[tuple[str, int]]:
        return frozenset((preds[b // k], domain[b % k])
                         for b in range(mask.bit_length()) if mask >> b & 1)

    return sorted(map(pairs, go(f, {})), key=lambda s: (len(s), sorted(s)))


def _minimal(masks: list[int]) -> list[int]:
    """The subset-minimal masks, each once."""
    out: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if all(t & m != t for t in out):
            out.append(m)
    return out


# memoized per (interned formula, out-degree) for the whole process: game
# builds over many systems meet the same entries at the same out-degrees;
# each valuation is kept as a sorted tuple, a quarter of a small frozenset's
# size, in an order that does not depend on the hash seed.  Satisfaction
# compares elements only for equality, so relabelling d -> succ[d] onto an
# ascending tuple of distinct successors gives min_valuations(f, succ), in
# the same order
@lru_cache(maxsize=512)
def _min_valuations_range(f: Formula, k: int) -> tuple[tuple[tuple[str, int], ...], ...]:
    return tuple(tuple(sorted(mv)) for mv in min_valuations(f, tuple(range(k))))


def all_valuations(f: Formula, domain: tuple[int, ...], preds=None) -> list[frozenset[tuple[str, int]]]:
    """Every valuation of preds (default: those of f) over domain that
    satisfies f, as pred/element pair sets, by enumerating all subsets.

    Exponential; the regression oracle for min_valuations in the acceptance
    and evaluation games.
    """
    preds = sorted(predicates(f)) if preds is None else list(preds)
    idx = {d: i for i, d in enumerate(domain)}
    pairs = [(a, d) for a in preds for d in domain]
    out = []
    for combo in _subsets_by_size(pairs):
        val = {a: frozenset(idx[d] for b, d in combo if b == a) for a in preds}
        if eval_finite(f, OneStepModel(len(domain), val)):
            out.append(frozenset(combo))
    return out
