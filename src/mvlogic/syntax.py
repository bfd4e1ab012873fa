"""The formal language: variables, predicates, formula formation, free and
bound variables, the f|Z device, and the two substitution operators (full
and free), plus a concrete grammar with parser and renderer.

Grammar (ASCII): `(+)` strong disjunction, `(*)` strong conjunction, `->`
implication (right associative), `~` negation, `A{v0,v1}` / `E{v0}` block
quantifiers, `T`/`F` truth constants. Precedence: ~ and quantifiers bind
tightest, then (*), then (+), then ->. A formula nests at most MAX_DEPTH
levels.
"""

from __future__ import annotations

import re

from .mv_core import (
    is_json_int, is_json_list, is_json_str, json_field, record,
)


class AdmissionError(ValueError):
    """Formula violates the language's formation constraints."""


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@record
class LanguageSpec:
    """Finite proxy of a language: v0..v{n-1}, declared predicates, and a
    reserve of variables every admitted formula must leave untouched.
    Substitution operators accept any variable map, with the calculus
    rules carrying the side conditions."""

    num_vars: int
    reserve: int = 1
    predicates: tuple = ()

    def __post_init__(self):
        if self.reserve < 1:
            raise ValueError("at least one spare variable must be reserved")
        arities = dict(self.predicates)
        if len(arities) != len(self.predicates):
            raise ValueError("duplicate predicate declarations")
        variables = tuple(f"v{i}" for i in range(self.num_vars))
        if set(arities) & set(variables):
            raise ValueError("predicate names collide with variables")
        for name, arity in self.predicates:
            if arity < 0:
                raise ValueError(f"negative arity for {name}")
            if arity + self.reserve > self.num_vars:
                raise ValueError(
                    f"{name}/{arity} leaves no reserve in {self.num_vars} variables")
        # derived once; the record is frozen
        object.__setattr__(self, "_arities", arities)
        object.__setattr__(self, "_variables", variables)

    @property
    def variables(self):
        return self._variables

    def arity(self, name):
        try:
            return self._arities[name]
        except KeyError:
            raise AdmissionError(f"unknown predicate {name!r}") from None

    def has_predicate(self, name):
        return name in self._arities

    def admit(self, phi):
        """Formation check: known predicates, matching arities, blocks and
        variables inside V, and the declared reserve left unused."""
        used, atoms = set(), []
        _collect(phi, used, atoms)
        vocab = set(self.variables)
        if not used <= vocab:
            raise AdmissionError(f"variables {sorted(used - vocab)} outside V")
        for atom in atoms:
            if len(atom.args) != self.arity(atom.pred):
                raise AdmissionError(
                    f"{atom.pred} expects {self.arity(atom.pred)} arguments, "
                    f"got {len(atom.args)}")
        if self.num_vars - len(used) < self.reserve:
            raise AdmissionError(
                f"formula uses {len(used)} of {self.num_vars} variables; "
                f"reserve of {self.reserve} violated")
        return phi

    def to_json(self):
        return {
            "variables": self.num_vars,
            "reserve": self.reserve,
            "predicates": [{"name": n, "arity": a} for n, a in self.predicates],
        }

    @classmethod
    def from_json(cls, data):
        num_vars = json_field(data, "variables", is_json_int, "an integer")
        reserve = json_field(data, "reserve", is_json_int, "an integer", 1)
        predicates = json_field(data, "predicates", is_json_list, "a list")
        return cls(
            num_vars=num_vars,
            reserve=reserve,
            predicates=tuple(
                (json_field(p, "name", is_json_str, "a string"),
                 json_field(p, "arity", is_json_int, "an integer"))
                for p in predicates),
        )


@record
class Atom:
    pred: str
    args: tuple


@record
class Top:
    pass


@record
class Bottom:
    pass


@record
class Oplus:
    left: object
    right: object


@record
class Odot:
    left: object
    right: object


@record
class Implies:
    left: object
    right: object


@record
class Neg:
    body: object


@record
class Forall:
    block: frozenset
    body: object


@record
class Exists:
    block: frozenset
    body: object


TOP = Top()
BOTTOM = Bottom()

_BINARY = (Oplus, Odot, Implies)
_QUANT = (Forall, Exists)


def _collect(phi, used, atoms):
    """Add phi's variables, free and bound, to `used` and append its atoms,
    left to right, to `atoms`."""
    kind = type(phi)
    if kind is Atom:
        used.update(phi.args)
        atoms.append(phi)
    elif kind in _BINARY:
        _collect(phi.left, used, atoms)
        _collect(phi.right, used, atoms)
    elif kind is Neg:
        _collect(phi.body, used, atoms)
    elif kind in _QUANT:
        used.update(phi.block)
        _collect(phi.body, used, atoms)
    elif kind is not Top and kind is not Bottom:
        raise TypeError(f"not a formula: {phi!r}")


def predicates_of(phi):
    atoms = []
    _collect(phi, set(), atoms)
    return {a.pred for a in atoms}


def free_vars(phi):
    if isinstance(phi, Atom):
        return set(phi.args)
    if isinstance(phi, (Top, Bottom)):
        return set()
    if isinstance(phi, _BINARY):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, Neg):
        return free_vars(phi.body)
    if isinstance(phi, _QUANT):
        return free_vars(phi.body) - phi.block
    raise TypeError(f"not a formula: {phi!r}")


def bound_vars(phi):
    if isinstance(phi, (Atom, Top, Bottom)):
        return set()
    if isinstance(phi, _BINARY):
        return bound_vars(phi.left) | bound_vars(phi.right)
    if isinstance(phi, Neg):
        return bound_vars(phi.body)
    if isinstance(phi, _QUANT):
        return bound_vars(phi.body) | set(phi.block)
    raise TypeError(f"not a formula: {phi!r}")


def all_vars(phi):
    return free_vars(phi) | bound_vars(phi)


def _push(tau, phi, quantifier):
    """phi with the variable map tau applied to its atoms, extended
    identically off its domain; quantifier(tau, q) gives the block of a
    quantifier q and the map pushed under it."""
    if isinstance(phi, Atom):
        return Atom(phi.pred, tuple(tau.get(v, v) for v in phi.args))
    if isinstance(phi, (Top, Bottom)):
        return phi
    if isinstance(phi, _BINARY):
        return type(phi)(_push(tau, phi.left, quantifier),
                         _push(tau, phi.right, quantifier))
    if isinstance(phi, Neg):
        return Neg(_push(tau, phi.body, quantifier))
    if isinstance(phi, _QUANT):
        block, inner = quantifier(tau, phi)
        return type(phi)(block, _push(inner, phi.body, quantifier))
    raise TypeError(f"not a formula: {phi!r}")


def substitute(tau, phi, language=None):
    """Full substitution S(tau): renames atoms and quantifier blocks alike.

    tau is a variable map, extended identically off its domain. When a
    language is supplied, block images are checked against its vocabulary.
    """
    def quantifier(tau, q):
        block = frozenset(tau.get(v, v) for v in q.block)
        if language is not None and not block <= set(language.variables):
            raise AdmissionError(
                f"block image {sorted(block)} escapes the scope family")
        return block, tau

    return _push(tau, phi, quantifier)


def substitute_capture_avoiding(tau, phi):
    """Full substitution executed freely: every quantifier block is renamed
    to fresh variables before the map is pushed under it, so bound
    occurrences can never collide with substituted ones. This is the
    collision-free execution of simultaneous substitution; the raw
    block-renaming recursion (substitute) is what the calculus's side
    conditions protect.

    Fresh names are drawn deterministically as v<k> for k past every index
    in the formula and the map.
    """
    taken = set(tau) | set(tau.values()) | all_vars(phi)
    counter = 0
    for name in taken:
        if name.startswith("v") and name[1:].isdigit():
            counter = max(counter, int(name[1:]) + 1)

    def fresh():
        nonlocal counter
        name = f"v{counter}"
        counter += 1
        return name

    def quantifier(tau, q):
        renaming = {w: fresh() for w in sorted(q.block, key=_var_key)}
        inner = {v: img for v, img in tau.items() if v not in q.block}
        inner.update(renaming)
        return frozenset(renaming.values()), inner

    return _push(dict(tau), phi, quantifier)


def substitute_free(tau, phi):
    """Free substitution S_f(tau): quantifier blocks are left untouched and
    the map is restricted off each block on the way down (tau|(V-W)|V)."""
    return _push(tau, phi, lambda tau, q: (
        q.block, {k: v for k, v in tau.items() if k not in q.block}))


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<OPLUS>\(\+\))|(?P<ODOT>\(\*\))|(?P<ARROW>->)|(?P<NEG>~)"
    r"|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<LBRACE>\{)|(?P<RBRACE>\})"
    r"|(?P<COMMA>,)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


# The deepest nesting parse admits, in parentheses, ~, quantifiers and
# right sides of -> open at once, and in nodes on a branch of the formula.
# The parser spends up to five frames on a level and every walk over a
# formula one or two, so a deeper formula would exhaust Python's default
# recursion limit of 1000 frames.
MAX_DEPTH = 100


def _height(phi):
    """The most nodes on a branch of phi, counted level by level without
    recursion."""
    height, level = 0, [phi]
    while level:
        height += 1
        level = [child for node in level for child in (
            (node.left, node.right) if isinstance(node, _BINARY)
            else (node.body,) if isinstance(node, (Neg,) + _QUANT) else ())]
    return height


class _Parser:
    def __init__(self, tokens, language):
        self.tokens = tokens
        self.language = language
        self.pos = 0
        self.depth = 0

    def nested(self, parse):
        """parse() one level deeper, refused past MAX_DEPTH before the
        parser recurses."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels",
                             self.peek()[2])
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse_formula(self):
        left = self.parse_oplus()
        if self.peek()[0] == "ARROW":
            self.take()
            return Implies(left, self.nested(self.parse_formula))
        return left

    def parse_oplus(self):
        node = self.parse_odot()
        while self.peek()[0] == "OPLUS":
            self.take()
            node = Oplus(node, self.parse_odot())
        return node

    def parse_odot(self):
        node = self.parse_unary()
        while self.peek()[0] == "ODOT":
            self.take()
            node = Odot(node, self.parse_unary())
        return node

    def parse_unary(self):
        kind, value, at = self.peek()
        if kind == "NEG":
            self.take()
            return Neg(self.nested(self.parse_unary))
        if kind == "IDENT" and value in ("A", "E") \
                and self.tokens[self.pos + 1][0] == "LBRACE":
            self.take()
            block = self.parse_block()
            body = self.nested(self.parse_unary)
            return (Forall if value == "A" else Exists)(block, body)
        return self.parse_atomic()

    def parse_block(self):
        self.take("LBRACE")
        names = []
        while True:
            kind, value, at = self.take()
            if kind != "IDENT":
                raise ParseError("variable expected in quantifier block", at)
            if value not in set(self.language.variables):
                raise ParseError(f"unknown variable {value!r}", at)
            names.append(value)
            kind, _, at2 = self.take()
            if kind == "RBRACE":
                return frozenset(names)
            if kind != "COMMA":
                raise ParseError("',' or '}' expected in block", at2)

    def parse_atomic(self):
        kind, value, at = self.take()
        if kind == "LPAREN":
            inner = self.nested(self.parse_formula)
            self.take("RPAREN")
            return inner
        if kind == "IDENT":
            if value == "T":
                return TOP
            if value == "F":
                return BOTTOM
            if not self.language.has_predicate(value):
                raise ParseError(f"unknown predicate {value!r}", at)
            args = []
            if self.peek()[0] == "LPAREN":
                self.take()
                if self.peek()[0] != "RPAREN":
                    while True:
                        k2, v2, at2 = self.take()
                        if k2 != "IDENT" or v2 not in set(self.language.variables):
                            raise ParseError(f"variable expected, found {v2!r}", at2)
                        args.append(v2)
                        k3, _, at3 = self.take()
                        if k3 == "RPAREN":
                            break
                        if k3 != "COMMA":
                            raise ParseError("',' or ')' expected", at3)
                else:
                    self.take("RPAREN")
            arity = self.language.arity(value)
            if len(args) != arity:
                raise ParseError(
                    f"{value} expects {arity} arguments, got {len(args)}", at)
            return Atom(value, tuple(args))
        raise ParseError(f"formula expected, found {value!r}", at)


def parse(text, language):
    parser = _Parser(_tokenize(text), language)
    phi = parser.parse_formula()
    tok = parser.peek()
    if tok[0] != "EOF":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    # a chain of (+) or (*) nests its left operand without the parser
    # recursing
    if _height(phi) > MAX_DEPTH:
        raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels", 0)
    return language.admit(phi)


def _var_key(name):
    return (len(name), name)


def _level(phi):
    if isinstance(phi, Implies):
        return 0
    if isinstance(phi, Oplus):
        return 1
    if isinstance(phi, Odot):
        return 2
    return 3


def render(phi, _min_level=0):
    if isinstance(phi, Atom):
        text = phi.pred + (f"({','.join(phi.args)})" if phi.args else "")
    elif isinstance(phi, Top):
        text = "T"
    elif isinstance(phi, Bottom):
        text = "F"
    elif isinstance(phi, Neg):
        text = "~" + render(phi.body, 3)
    elif isinstance(phi, _QUANT):
        tag = "A" if isinstance(phi, Forall) else "E"
        block = ",".join(sorted(phi.block, key=_var_key))
        text = f"{tag}{{{block}}} " + render(phi.body, 3)
    elif isinstance(phi, Implies):
        text = render(phi.left, 1) + " -> " + render(phi.right, 0)
    elif isinstance(phi, Oplus):
        text = render(phi.left, 1) + " (+) " + render(phi.right, 2)
    elif isinstance(phi, Odot):
        text = render(phi.left, 2) + " (*) " + render(phi.right, 3)
    else:
        raise TypeError(f"not a formula: {phi!r}")
    if _level(phi) < _min_level:
        return "(" + text + ")"
    return text


def random_formula(rng, language, max_depth, quantifiers=True):
    """Seeded formula over the language's non-reserve variables."""
    usable = list(language.variables[: language.num_vars - language.reserve])
    preds = list(language.predicates)
    kinds = (Neg, Oplus, Odot, Implies) + (_QUANT if quantifiers else ())

    def build(depth):
        if depth <= 0 or rng.random() < 0.3:
            roll = rng.random()
            if roll < 0.08:
                return TOP
            if roll < 0.16:
                return BOTTOM
            name, arity = preds[rng.randrange(len(preds))]
            return Atom(name, tuple([rng.choice(usable)
                                     for _ in range(arity)]))
        kind = rng.choice(kinds)
        if kind is Neg:
            return Neg(build(depth - 1))
        if kind in _QUANT:
            size = rng.randint(1, min(2, len(usable)))
            return kind(frozenset(rng.sample(usable, size)), build(depth - 1))
        return kind(build(depth - 1), build(depth - 1))

    return language.admit(build(max_depth))
