"""One node layer, one lexer, one parser and one printer under the three
formula grammars.

Every AST node class is a `Node`, which builds, freezes, interns and prints
nodes from the fields the class annotates and gives the walkers `children`
and `rebuild`; `stored` keeps a value derived once per node on it, and
`scoped` walks under a context: a generator step yields the (subformula,
context) pairs it needs and returns its node's value.
Each node class declares its `notation` once: `pretty` prints it, and a
`Grammar` reads the same notations backwards as rules, so the one-step,
fixpoint and second-order grammars declare only their context rules.
Identifiers are `[A-Za-z_][A-Za-z_0-9]*`; keywords are whole identifiers,
never prefixes.
"""
from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from functools import partial, update_wrapper, wraps
from itertools import islice

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
            fields = cls.__match_args__
            if len(args) != len(fields):
                raise TypeError("%s takes %d fields, got %d" % (cls.__name__, len(fields), len(args)))
            new = object.__new__(cls)  # filled once, past the frozen guard
            new.__dict__.update(zip(fields, args), _hash=hash((cls.__name__, *args)))  # never from an id
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
    """Base of the AST node classes.  A node class annotates its fields, in
    order, and nothing else: they are its `__match_args__`, the arguments
    that build a node, and the repr `Cls(field=value, ...)`.  Nodes are
    frozen and interned, so `==` is `is`, and hashes are stored.

    A node class names its subformula fields once, in the class attribute
    `subs`; each such field holds one node or a tuple of nodes of the same
    syntax.  `derive` gives a node's facts from its kids'.  Each class also
    declares its `notation`, which `pretty` prints.
    """

    subs: tuple[str, ...] = ()
    notation: tuple

    def __init_subclass__(cls):
        # the class's own annotations: Python 3.10 would read a base's here
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to %r: nodes are frozen" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r: nodes are frozen" % name)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__match_args__))

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


class choice:
    """The notation of a class whose nodes print in more than one form:
    `choice(notation, *forms)`, each form `(test, notation, build)`.  A node
    prints by the first form whose test it passes, else by the general
    notation; a grammar reads each form as one more rule of the class, whose
    fields build the node as `build(cls, *values)`."""

    def __init__(self, notation: tuple, *forms):
        self.notation, self.forms = notation, forms

    def __get__(self, node, cls=None):
        if node is None:
            return self
        for test, notation, _ in self.forms:
            if test(node):
                return notation
        return self.notation


def infix(sep: str, level: int, bind: int, unit: str) -> choice:
    """The notation of an n-ary connective over `args`: the arguments at
    `level` joined by sep, parenthesized above `bind`; `unit` when empty."""
    return choice((bind, ("args", level, sep)), (lambda f: not f.args, (None, unit), lambda cls: cls(())))


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


# Deepest nesting any grammar accepts, counted over parentheses and the rules
# whose notation holds a subformula (prefix operators, binders, modalities).
# Parsing takes two frames per level, but `mso.eval_mso`, the MSO compiler,
# `from_formula`'s expansion and the one-step walkers still recurse once per
# level on what it returns, so the limit keeps them inside the interpreter's.
MAX_NESTING = 200

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(r"\s*(?:(%s|!=|[<>()!=&|.,~])|(\S))" % IDENTIFIER.pattern)


class ParseError(ValueError):
    """A syntax error at a 1-based column; end of input is len(text)+1."""

    def __init__(self, msg: str, column: int):
        super().__init__("%s (at column %d)" % (msg, column))
        self.column = column


class Cursor:
    """The tokens of one text, the index of the next one to read and the
    nesting depth reached there.  Columns are found again for errors only."""

    def __init__(self, text: str):
        self.text, self.i, self.depth = text, 0, 0
        self.toks = [tok for tok, _ in _TOKEN.findall(text)]
        if "" in self.toks:  # a character that opens no token
            column = self.column(self.toks.index(""))
            raise ParseError("unexpected character %r" % text[column - 1], column)
        self.toks.append(None)

    def column(self, k: int) -> int:
        """The 1-based column of token k; end of input is len(text)+1."""
        m = next(islice(_TOKEN.finditer(self.text), k, None), None)
        return len(self.text) + 1 if m is None else m.start(m.lastindex) + 1

    def error(self, msg: str, back: int = 0) -> ParseError:
        """An error at the next token, or at the one `back` tokens before."""
        return ParseError(msg, self.column(self.i - back))

    def _found(self) -> str:
        tok = self.toks[self.i]
        return "end of input" if tok is None else repr(tok)

    def name(self) -> str:
        tok = self.toks[self.i]
        if tok is None or not tok.isidentifier():
            raise self.error("expected a name, found %s" % self._found())
        self.i += 1
        return tok


class Grammar:
    """The parser that reads the notations of node classes backwards
    (invertible syntax descriptions, Rendel & Ostermann 2010), by precedence
    climbing (Pratt 1973).

    Each entry of `rules` is a node class, whose notation (and each form of a
    `choice`) is a rule built by the class, or a pair `(notation, build)`:
    build is called with the notation's field values in order, or is a
    message that refuses the rule's opening token.  A notation that opens with
    a token is a prefix rule; one that opens with a name field is an atom
    chosen by the token after the name, and a lone name field is the bare
    name; one that opens with a subformula is an operator, either n-ary
    (`(field, level, separator)`) or binary (`(field, level), separator,
    (field, level)`), chosen by its separator.  A subformula in a field of
    `inner` is read by that grammar, on the same cursor.  `dangling` is the
    message for a name that no rule takes."""

    def __init__(self, rules, inner=None, dangling="dangling identifier %r"):
        self.inner, self.dangling = inner or {}, dangling
        self.prefix = {"(": (("(", (self, 0), ")"), lambda f: f, True)}
        self.atoms, self.bare, self.operators = {}, None, {}
        for rule in rules:
            if isinstance(rule, tuple):
                self._add(*rule)
                continue
            notation = rule.notation
            if isinstance(notation, choice):
                for _, form, build in notation.forms:
                    self._add(form, partial(build, rule))
                notation = notation.notation
            self._add(notation, rule)
        # the identifiers that open a rule, so that no atom can open with one
        self.keywords = frozenset(tok for tok in self.prefix if tok.isidentifier())

    def _add(self, notation: tuple, build) -> None:
        first = notation[1]
        if type(first) is tuple:  # (bind, level of the operands, n-ary, build)
            if len(first) == 3:
                self.operators[first[2].strip()] = (notation[0], first[1], True, build)
            else:
                self.operators[notation[2].strip()] = (notation[0], notation[3][1], False, build)
            return
        items = []  # a token, None for a name, (grammar, level[, separator, closer]) for formulas
        for part in notation[1:]:
            if type(part) is str:
                for k, chunk in enumerate(re.split(r"\{\w+\}", part)):
                    items += [None] * (k > 0) + [tok for tok, _ in _TOKEN.findall(chunk)]
            else:
                grammar = self.inner.get(part[0], self)
                items.append((grammar, part[1]) if len(part) == 2 else (grammar, part[1], part[2].strip()))
        for k, item in enumerate(items):  # a list of formulas is empty when its closer comes first
            if type(item) is tuple and len(item) == 3:
                items[k] = item + (items[k + 1],)
        atom = items[0] is None  # an atom's name is read before its rule is chosen
        items = tuple(items[atom:])
        rule = build % items[0] if type(build) is str else (items, build, any(type(i) is tuple for i in items))
        if not items:
            self.bare = rule
        else:
            (self.atoms if atom else self.prefix)[items[0]] = rule

    def parse(self, text: str):
        """The formula the whole text spells."""
        c = Cursor(text)
        f = self.expr(c, 0)
        if c.toks[c.i] is not None:
            raise c.error("trailing input %r" % c.toks[c.i])
        return f

    def expr(self, c: Cursor, level: int):
        """The longest formula at the cursor whose operators bind at `level`
        or above.  Operators waiting for their last operand are kept on an
        explicit stack, so only `operand` nests frames."""
        waiting = []  # (operator, its operands so far)
        f = self.operand(c)
        while True:
            op = self.operators.get(c.toks[c.i])
            bind = -1 if op is None else op[0]
            while waiting:
                top, args = waiting[-1]
                if op is top and op[2]:  # the next operand of an n-ary operator
                    args.append(f)
                    break
                if bind >= top[1]:  # op starts inside the last operand of top
                    waiting.append((op, [f]))
                    break
                waiting.pop()  # f is the last operand of top
                args.append(f)
                f = top[3](tuple(args)) if top[2] else top[3](*args)
            else:
                if bind < level:
                    return f
                waiting.append((op, [f]))
            c.i += 1
            f = self.operand(c)

    def operand(self, c: Cursor):
        """The formula of the one rule that starts at the cursor."""
        toks, values = c.toks, []
        rule = self.prefix.get(toks[c.i])
        if rule is None:
            values.append(c.name())
            rule = self.atoms.get(toks[c.i], self.bare)
            if rule is None:
                raise c.error(self.dangling % values[0], back=1)
        if type(rule) is str:
            raise c.error(rule)
        items, build, nests = rule
        if nests:
            c.depth += 1
            if c.depth > MAX_NESTING:
                raise c.error("formula nesting too deep")
        for item in items:
            if type(item) is str:
                if toks[c.i] != item:
                    raise c.error("expected %r, found %s" % (item, c._found()))
                c.i += 1
            elif item is None:
                values.append(c.name())
            elif len(item) == 2:
                values.append(item[0].expr(c, item[1]))
            else:  # formulas separated by item[2], none when item[3] comes first
                grammar, level, sep, closer = item
                args = [] if toks[c.i] == closer else [grammar.expr(c, level)]
                while args and toks[c.i] == sep:
                    c.i += 1
                    args.append(grammar.expr(c, level))
                values.append(tuple(args))
        if nests:
            c.depth -= 1
        return build(*values)
