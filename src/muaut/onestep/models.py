"""One-step models and satisfaction.

Two model classes: plain finite models, and multiplicity-weighted models
where each type (subset of the predicate set) carries a count in
{0,1,2,...} or the symbol omega.  Weighted satisfaction simulates the
expanded (possibly infinite) model exactly: indistinguishable copies of a
type are never pinned twice, so trying one fresh copy per type suffices.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Union

from .ast import (And, Eq, Exists, ExistsInf, Forall, ForallInf, Formula, Neq,
                  NegPred, Or, Pred, W, expand_sugar, free_vars, predicates)

OMEGA = float("inf")


@dataclass(frozen=True)
class OneStepModel:
    """Finite monadic model: domain {0..size-1} plus a valuation."""

    size: int
    valuation: dict[str, frozenset[int]]

    def __post_init__(self):
        for a, ext in self.valuation.items():
            for d in ext:
                if not (0 <= d < self.size):
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

    def support(self) -> list[frozenset[str]]:
        return [t for t, c in self.counts if c != 0]

    def is_empty(self) -> bool:
        return all(c == 0 for _, c in self.counts)

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


def eval_finite(f: Formula, m: OneStepModel, env: dict[str, int] | None = None) -> bool:
    """Standard satisfaction on finite models.

    On the empty model the quantifier clauses degenerate to the stipulated
    empty-domain semantics (existentials false, universals true); the
    infinity quantifiers follow their cardinality reading, so on any finite
    model ExistsInf is false and ForallInf is true.
    """
    env = env or {}
    match f:
        case Pred(a, x):
            return env[x] in m.valuation.get(a, frozenset())
        case NegPred(a, x):
            return env[x] not in m.valuation.get(a, frozenset())
        case Eq(x, y):
            return env[x] == env[y]
        case Neq(x, y):
            return env[x] != env[y]
        case And(args):
            return all(eval_finite(a, m, env) for a in args)
        case Or(args):
            return any(eval_finite(a, m, env) for a in args)
        case Exists(x, b):
            return any(eval_finite(b, m, {**env, x: d}) for d in range(m.size))
        case Forall(x, b):
            return all(eval_finite(b, m, {**env, x: d}) for d in range(m.size))
        case ExistsInf():
            return False
        case ForallInf():
            return True
        case W():
            return eval_finite(expand_sugar(f), m, env)
    raise TypeError(f)


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
        for tp, _ in pins.values():
            used[tp] = used.get(tp, 0) + 1
        opts = list(dict.fromkeys(pins.values()))
        for tp, c in counts.items():
            u = used.get(tp, 0)
            if c == OMEGA or c > u:
                opts.append((tp, u))  # one fresh, lowest unused copy index
        return opts

    def fresh_omega(pins):
        used: dict[frozenset[str], int] = {}
        for tp, _ in pins.values():
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


def all_models(preds: tuple[str, ...], max_size: int) -> list[OneStepModel]:
    """Every finite model up to max_size elements (including the empty one)."""
    out = []
    types = [frozenset(c) for c in _subsets(preds)]
    for size in range(max_size + 1):
        for combo in product(types, repeat=size):
            out.append(model_of_types(combo))
    return out


def all_weighted_models(preds: tuple[str, ...], max_count: int, with_omega: bool) -> list[WeightedOneStepModel]:
    """Every weighted model with per-type count in {0..max_count} (+ omega)."""
    classes: list[Union[int, float]] = list(range(max_count + 1))
    if with_omega:
        classes.append(OMEGA)
    types = [frozenset(c) for c in _subsets(preds)]
    out = []
    for combo in product(classes, repeat=len(types)):
        out.append(weighted(preds, dict(zip(types, combo))))
    return out


def _subsets(items):
    items = tuple(items)
    for mask in range(1 << len(items)):
        yield tuple(items[i] for i in range(len(items)) if mask >> i & 1)


def min_valuations(f: Formula, domain: tuple[int, ...]) -> list[frozenset[tuple[str, int]]]:
    """Minimal valuations (as pred/element pair sets) satisfying a positive
    formula on the given domain.

    Soundness and completeness rest on monotonicity: every satisfying
    valuation extends a generated one, and every generated one satisfies f.
    Used to enumerate the meaningful moves in acceptance and evaluation
    games without scanning all valuations.
    """
    f = expand_sugar(f)

    def go(g: Formula, env: dict[str, int]) -> list[frozenset[tuple[str, int]]]:
        match g:
            case Pred(a, x):
                return [frozenset({(a, env[x])})]
            case NegPred():
                raise ValueError("min_valuations requires a positive formula")
            case Eq(x, y):
                return [frozenset()] if env[x] == env[y] else []
            case Neq(x, y):
                return [frozenset()] if env[x] != env[y] else []
            case And(args):
                acc = [frozenset()]
                for a in args:
                    nxt = go(a, env)
                    acc = _prune([u | v for u in acc for v in nxt])
                    if not acc:
                        return []
                return acc
            case Or(args):
                out = []
                for a in args:
                    out.extend(go(a, env))
                return _prune(out)
            case Exists(x, b):
                out = []
                for d in domain:
                    out.extend(go(b, {**env, x: d}))
                return _prune(out)
            case Forall(x, b):
                acc = [frozenset()]
                for d in domain:
                    nxt = go(b, {**env, x: d})
                    acc = _prune([u | v for u in acc for v in nxt])
                    if not acc:
                        return []
                return acc
            case ExistsInf():
                return []
            case ForallInf():
                return [frozenset()]
        raise TypeError(g)

    return go(f, {})


def min_valuations_memo(f: Formula, succ: tuple[int, ...], memo: dict) -> list[frozenset[tuple[str, int]]]:
    """min_valuations(f, succ) for an ascending tuple of distinct elements,
    read off min_valuations(f, range(len(succ))) kept in memo per
    (f, len(succ)).

    Satisfaction compares elements only for equality, so relabelling
    d -> succ[d] maps the valuations over range(k) onto those over succ;
    the relabelling is monotone, so the order is kept as well.  The memo is
    meant to live for one game build.
    """
    key = (id(f), len(succ))
    hit = memo.get(key)
    if hit is None:
        # f is kept alongside, so its id cannot be reused while memo lives
        hit = memo[key] = (f, min_valuations(f, tuple(range(len(succ)))))
    return [frozenset([(a, succ[d]) for a, d in mv]) for mv in hit[1]]


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
    for k in range(len(pairs) + 1):
        for combo in combinations(pairs, k):
            val = {a: frozenset(idx[d] for b, d in combo if b == a) for a in preds}
            if eval_finite(f, OneStepModel(len(domain), val)):
                out.append(frozenset(combo))
    return out


def _prune(sets: list[frozenset]) -> list[frozenset]:
    """Keep only subset-minimal entries, deduplicated."""
    uniq = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    out: list[frozenset] = []
    for s in uniq:
        if not any(t <= s for t in out):
            out.append(s)
    return out
