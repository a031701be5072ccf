"""One node layer, one lexer and one cursor under the three formula grammars.

Every AST node class is a frozen dataclass over `Node`, which interns nodes
and gives the walkers `children` and `rebuild`; `stored` keeps a value derived
once per node on it, and `scoped` walks under a context: a generator step
yields the (subformula, context) pairs it needs and returns its node's value.
The one-step, fixpoint and second-order parsers are rule sets over `Cursor`
and keep only their own atom and prefix rules; `pretty` prints all three
from the `notation` each node class declares.  Identifiers are
`[A-Za-z_][A-Za-z_0-9]*`; keywords are whole identifiers, never prefixes.
"""
from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from functools import update_wrapper, wraps

# (class, *fields, a node in a field by its id) -> weak reference to the one
# live node with those fields
_interned: dict = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)  # the node's table key


def _drop(ref: _Ref) -> None:
    """Forget a node that died, unless its entry is live again (one step)."""
    _remove_dead_weakref(_interned, ref.key)


class _Interned(type):
    """Metaclass of `Node`: a node class called with the fields of a live
    node returns that node, so structurally equal nodes are one object."""

    def __call__(cls, *args):
        # no entry keeps a node alive, so a dead formula, cycles through stored
        # values included, is freed in one collection; a live node holds the
        # nodes in its fields, so their ids never clash (atoms hold strings only)
        key = (cls, *[a if type(a) is str else tuple(map(id, a)) if type(a) is tuple else id(a)
                      for a in args]) if cls.subs else (cls, *args)
        ref = _interned.get(key)
        node = ref and ref()
        if node is None:
            new = type.__call__(cls, *args)
            new.__dict__["_hash"] = hash((cls.__name__, *args))  # never from an id
            ref = _Ref(new, _drop)
            ref.key = key
            # each try is one atomic dict step, so threads never hold two live
            # equal nodes; an entry found dead awaits its callback in another thread
            while (node := _interned.setdefault(key, ref)()) is None:
                _remove_dead_weakref(_interned, key)
        return node


class stored:
    """`stored(fn)(node)` is fn(node), kept on the node under fn's name for
    as long as it lives.  Each subformula without a value gets one first,
    children first on an explicit stack, so fn may read its children's and
    depth is bounded by memory alone.  A class attribute reads as a property.
    A value that is the node itself is kept as None and read back as the
    node, so no node holds itself; fn never returns None."""

    def __init__(self, fn):
        update_wrapper(self, fn)
        self.fn = fn

    def __get__(self, node, cls=None):
        return self if node is None else self(node)

    def __call__(self, node):
        name = self.__name__
        if name not in node.__dict__:
            stack = [node]  # a None marks that the node below it has its children's
            while stack:
                top = stack.pop()
                if top is None:
                    top = stack.pop()
                    value = self.fn(top)
                    top.__dict__[name] = None if value is top else value
                elif name not in top.__dict__:  # else a shared child pushed twice
                    stack += (top, None, *[c for c in top.children() if name not in c.__dict__])
        value = node.__dict__[name]
        return node if value is None else value


def scoped(step):
    """The walker `(f, ctx=frozenset())` -> f's value under ctx.  The generator
    `step(g, ctx)` yields each `(child, ctx2)` whose value it needs, is sent
    that value and returns g's, waiting on an explicit stack, so depth is
    bounded by memory alone.  Under a set of letters or a dict from letters
    to values, g's step runs again only when the context gives its facts
    (its free letters in a letter syntax) other values than at its last
    entry, whose value is kept alone; else once per (node, context)."""

    @wraps(step)
    def walk(f, ctx=frozenset()):
        # memo: node, or (node, context) -> (what the context gave, value)
        memo, stack, want, value = {}, [], (f, ctx), None
        while True:
            if want is not None:  # the top step asks for a node's value
                g, c = want
                if type(c) is dict:
                    slot, seen = g, tuple(map(c.get, g.facts))
                else:
                    slot, seen = (g, g.facts & c) if isinstance(c, (set, frozenset)) else ((g, c), c)
                last = memo.get(slot)
                if last is not None and last[0] == seen:
                    value = last[1]
                else:
                    stack.append((slot, seen, step(g, c)))
                    value = None
            slot, seen, steps = stack[-1]
            try:
                want = steps.send(value)
            except StopIteration as done:
                stack.pop()
                want, value = None, done.value
                memo[slot] = seen, value
                if not stack:
                    return value
    return walk


def each(wants, stop=None):
    """In a step, `yield from each(wants)`: the values of the wanted pairs,
    up to the first that is `stop`."""
    values = []
    for want in wants:
        values.append((yield want))
        if stop is not None and values[-1] is stop:
            break
    return values


def rebuilt(node, ctx, cls=None):
    """In a step, `yield from rebuilt(node, ctx)`: the node over its kids' values."""
    values = iter((yield from each((c, ctx) for c in node.children())))
    return node.rebuild(lambda _: next(values), cls)


class Node(metaclass=_Interned):
    """Base of the AST node classes, each a `@dataclass(frozen=True,
    eq=False)`: nodes are interned, so `==` is `is`, and hashes are stored.

    A node class names its subformula fields once, in the class attribute
    `subs`; each such field holds one node or a tuple of nodes of the same
    syntax.  `subs` is no dataclass field, so repr and `__match_args__` are
    the plain dataclass ones.  `derive` gives a node's facts from its kids'.
    Each class also declares its `notation`, which `pretty` prints.
    """

    subs: tuple[str, ...] = ()
    notation: tuple

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # copies and unpickled nodes are interned as well
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def derive(self, kids: list) -> frozenset[str]:
        """The facts of a letter syntax (fixpoint, one-sorted MSO): its free
        letters, the fields of an atom less a binder's `var`."""
        out = union(kids) if self.subs else frozenset(getattr(self, n) for n in self.__match_args__)
        return out - {self.var} if "var" in self.__match_args__ else out

    @stored
    def facts(self):
        """The node's facts, derived from its children's."""
        return self.derive([c.facts for c in self.children()])

    def children(self) -> tuple:
        """The subformulas, in field order."""
        out = ()
        for name in self.subs:
            v = getattr(self, name)
            out += v if type(v) is tuple else (v,)
        return out

    def rebuild(self, fn, cls=None):
        """This node with every subformula c replaced by fn(c), as an
        instance of cls (default: its own class): the node itself when fn
        changed nothing and the class is its own."""
        vals = []
        for name in self.__match_args__:
            v = getattr(self, name)
            if name in self.subs:
                v = tuple(map(fn, v)) if type(v) is tuple else fn(v)
            vals.append(v)
        return (cls or type(self))(*vals)


def union(sets) -> frozenset:
    """The union of a sequence of frozensets: one of them when it holds the
    others, so that stored facts share their sets."""
    out = frozenset().union(*sets)
    return next((s for s in sets if len(s) == len(out)), out)


def junction(cls, args, zero):
    """The n-ary node cls over args, with nested cls nodes flattened into
    it and each argument kept once, at its first occurrence: zero, its
    absorbing element, when some argument is zero; the argument itself when
    exactly one remains."""
    flat = []
    for a in args:
        if isinstance(a, cls):
            flat.extend(a.args)
        elif a is zero:
            return zero
        else:
            flat.append(a)
    flat = tuple(dict.fromkeys(flat))
    return flat[0] if len(flat) == 1 else cls(flat)


def infix(sep: str, level: int, bind: int, unit: str) -> property:
    """The notation of an n-ary connective over `args`: the arguments at
    `level` joined by sep, parenthesized above `bind`; `unit` when empty."""
    return property(lambda f: (bind, ("args", level, sep)) if f.args else (None, unit))


def pretty(f: Node) -> str:
    """Concrete syntax that the grammar of f reads back as f.

    A notation is `(bind, *parts)`: the node is parenthesized when printed
    at a level above bind (never when bind is None).  A part is a format
    string over the node's fields, or `(field, level)` / `(field, level,
    separator)` for the formulas in that field, each printed at level and
    joined by separator.  Printed on an explicit stack of pending texts and
    (node, level) pairs, so depth is bounded by memory alone."""
    out, stack = [], [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, level = item
        notation = node.notation
        if notation[0] is not None and level > notation[0]:
            out.append("(")
            stack.append(")")
        for part in reversed(notation[1:]):
            if type(part) is str:
                stack.append(part.format_map(node.__dict__) if "{" in part else part)
                continue
            kids = getattr(node, part[0])
            if type(kids) is not tuple:
                stack.append((kids, part[1]))
                continue
            for c in kids[:0:-1]:
                stack += ((c, part[1]), part[2])
            if kids:
                stack.append((kids[0], part[1]))
    return "".join(out)


# Deepest nesting any grammar accepts, counted over parentheses, prefix
# operators, binders and modalities.  The rules recurse at most twice per
# level, so parsing stays far inside the interpreter's recursion limit.
MAX_NESTING = 200

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(r"\s*(?:(%s|!=|[<>()!=&|.,~])|(\S))" % IDENTIFIER.pattern)


class ParseError(ValueError):
    """A syntax error at a 1-based column; end of input is len(text)+1."""

    def __init__(self, msg: str, column: int):
        super().__init__("%s (at column %d)" % (msg, column))
        self.column = column


class Cursor:
    """The tokens of one text and the index of the next one to read."""

    def __init__(self, text: str):
        self.toks = []
        for m in _TOKEN.finditer(text):
            if m.group(2):
                raise ParseError("unexpected character %r" % m.group(2), m.start(2) + 1)
            self.toks.append((m.group(1), m.start(1) + 1))
        self.toks.append((None, len(text) + 1))
        self.i = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.toks[self.i][0]

    def error(self, msg: str, back: int = 0) -> ParseError:
        """An error at the next token, or at the one `back` tokens before."""
        return ParseError(msg, self.toks[self.i - back][1])

    def _found(self) -> str:
        tok = self.toks[self.i][0]
        return "end of input" if tok is None else repr(tok)

    def take(self) -> None:
        """Skip the next token, which the caller has peeked at."""
        self.i += 1

    def expect(self, want: str) -> None:
        if self.toks[self.i][0] != want:
            raise self.error("expected %r, found %s" % (want, self._found()))
        self.i += 1

    def name(self) -> str:
        tok = self.toks[self.i][0]
        if tok is None or not tok.isidentifier():
            raise self.error("expected a name, found %s" % self._found())
        self.i += 1
        return tok

    def args(self, n: int) -> list[str]:
        """`(x1, ..., xn)`: n names in parentheses."""
        self.expect("(")
        names = [self.name()]
        for _ in range(n - 1):
            self.expect(",")
            names.append(self.name())
        self.expect(")")
        return names

    def enter(self) -> None:
        """Take the token that opens one more nesting level."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("formula nesting too deep")
        self.i += 1

    def leave(self, f):
        """Close the innermost nesting level around its result f."""
        self.depth -= 1
        return f

    def infix(self, operand, make_or, make_and=None):
        """operand(cursor) results joined by n-ary `&` inside n-ary `|`;
        `&` is no operator when make_and is None."""
        ors = []
        while True:
            f = operand(self)
            if make_and is not None and self.toks[self.i][0] == "&":
                ands = [f]
                while self.toks[self.i][0] == "&":
                    self.i += 1
                    ands.append(operand(self))
                f = make_and(tuple(ands))
            ors.append(f)
            if self.toks[self.i][0] != "|":
                return ors[0] if len(ors) == 1 else make_or(tuple(ors))
            self.i += 1

    def end(self, f):
        """f, once every token has been read."""
        if self.toks[self.i][0] is not None:
            raise self.error("trailing input %r" % self.toks[self.i][0])
        return f
