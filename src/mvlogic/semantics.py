"""Fuzzy structures and the Tarskian truth-value recursion.

Models carry a finite domain and a finite chain of truth values, so the
quantifier suprema and infima are exact lattice operations. Entailment is a
bounded semi-decision: an exhaustive search over all models up to a domain
size, never a claim about all structures.

Inside, truth values are the integer levels 0..n-1 of Chain(n), level r
standing for r/(n-1). A formula is compiled once into closures over levels:
the Lukasiewicz operations become min/max on ints, and each quantifier
sweeps the relevant variables of its block, fixed at compile time. Model
enumeration yields level tables. `Fraction` values appear only at the
edges: a user-supplied Model is read into levels once, results come back
as chain values, and a Model is built only for a reported countermodel.
"""

from __future__ import annotations

import itertools

from .mv_core import (
    Chain, CarrierError, format_point, format_value, is_json_int,
    is_json_object, json_field, parse_point, parse_value,
)
from . import syntax
from .syntax import (
    Atom, Top, Bottom, Oplus, Odot, Implies, Neg, Forall, Exists,
    predicates_of,
)


class MissingTableError(KeyError):
    """The model has no table for a predicate the formula mentions."""


class SearchTooLarge(ValueError):
    """Model enumeration would exceed the configured cap."""


class Model:
    """Finite fuzzy structure: domain {0..k-1}, chain values, total tables.

    The tables are stored only as `levels`: per predicate a tuple of chain
    levels, one per point in lexicographic point order. `tables` derives
    the chain values from them.
    """

    def __init__(self, language, domain_size, chain, tables):
        if domain_size < 1:
            raise ValueError("domain must be nonempty")
        self.language = language
        self.domain_size = domain_size
        self.chain = chain
        self.levels = {}
        top = chain.n - 1
        for pred, table in tables.items():
            row = []
            for point in self._points(pred):
                if point not in table:
                    raise ValueError(f"table for {pred} misses {point}")
                value = table[point]
                if not chain.contains(value):
                    raise CarrierError(
                        f"{pred}{point} = {value} is not a {chain!r} value")
                row.append((value * top).numerator)
            self.levels[pred] = tuple(row)

    @classmethod
    def from_levels(cls, language, domain_size, chain, levels):
        """The model with the given level tables, stored as they are."""
        model = cls(language, domain_size, chain, {})
        model.levels = dict(levels)
        return model

    def _points(self, pred):
        return itertools.product(range(self.domain_size),
                                 repeat=self.language.arity(pred))

    @property
    def tables(self):
        """Each table as a dict from point to chain value."""
        carrier = self.chain.carrier
        return {pred: {point: carrier[r]
                       for point, r in zip(self._points(pred), row)}
                for pred, row in self.levels.items()}

    @property
    def domain(self):
        return range(self.domain_size)

    def to_json(self):
        return {
            "domain": self.domain_size,
            "chain": self.chain.n,
            "predicates": {
                pred: {
                    "arity": self.language.arity(pred),
                    "table": {
                        format_point(pt): format_value(v)
                        for pt, v in sorted(table.items())
                    },
                }
                for pred, table in sorted(self.tables.items())
            },
        }

    @classmethod
    def from_json(cls, data):
        """The model of a JSON object, in the language of its predicates."""
        preds = json_field(data, "predicates", is_json_object, "an object")
        arity = {name: json_field(p, "arity", is_json_int, "an integer")
                 for name, p in preds.items()}
        language = syntax.LanguageSpec(
            num_vars=max(4, max(arity.values(), default=0) + 2), reserve=1,
            predicates=tuple(sorted(arity.items())))
        tables = {name: {parse_point(key): parse_value(text) for key, text
                         in json_field(p, "table", is_json_object,
                                       "an object").items()}
                  for name, p in preds.items()}
        domain = json_field(data, "domain", is_json_int, "an integer")
        chain = Chain(json_field(data, "chain", is_json_int, "an integer"))
        return cls(language, domain, chain, tables)


class Assignment:
    """Total valuation of variables, finitely represented via a default."""

    def __init__(self, mapping=None, default=0):
        self.mapping = dict(mapping or {})
        self.default = default

    def get(self, var):
        return self.mapping.get(var, self.default)

    def agrees_off(self, other, block):
        keys = set(self.mapping) | set(other.mapping)
        return all(self.get(v) == other.get(v)
                   for v in keys if v not in block)


class CompiledFormula:
    """A formula compiled once for Chain(n) into closures over levels.

    `run(env)` is the level of the formula under an env: a list holding
    the model's level tables, its domain as a range, then one slot per
    variable of the formula (`slots` maps each variable to its position).
    `free_vars` names the free variables and `free` holds their slots.
    `valid` and `degree` take a model as level tables plus a domain size
    and scan the assignments of the free variables, the only ones the
    value depends on.
    """

    def __init__(self, phi, n):
        self.top = n - 1
        self.slots = {}
        self.predicates = sorted(predicates_of(phi))
        self.run, free = self._compile(phi)
        self.free_vars = tuple(sorted(free))
        self.free = tuple(self.slots[v] for v in self.free_vars)

    def _slot(self, var):
        return self.slots.setdefault(var, 2 + len(self.slots))

    def _compile(self, phi):
        """(closure, free variables) of phi."""
        top = self.top
        if isinstance(phi, Atom):
            pred = phi.pred
            slots = tuple(self._slot(v) for v in phi.args)

            def atom(env):
                size = len(env[1])
                k = 0
                for s in slots:
                    k = k * size + env[s]
                return env[0][pred][k]
            return atom, set(phi.args)
        if isinstance(phi, Top):
            return (lambda env: top), set()
        if isinstance(phi, Bottom):
            return (lambda env: 0), set()
        if isinstance(phi, Neg):
            body, free = self._compile(phi.body)
            return (lambda env: top - body(env)), free
        if isinstance(phi, (Oplus, Odot, Implies)):
            left, lfree = self._compile(phi.left)
            right, rfree = self._compile(phi.right)
            if isinstance(phi, Oplus):
                def node(env):
                    v = left(env) + right(env)
                    return v if v < top else top
            elif isinstance(phi, Odot):
                def node(env):
                    v = left(env) + right(env) - top
                    return v if v > 0 else 0
            else:
                def node(env):
                    v = top - left(env) + right(env)
                    return v if v < top else top
            return node, lfree | rfree
        if isinstance(phi, (Forall, Exists)):
            body, inner = self._compile(phi.body)
            relevant = sorted(phi.block & inner)
            free = inner - phi.block
            # a block sweep is the nest of one-variable sweeps
            sweep = _sup if isinstance(phi, Exists) else _inf
            for v in relevant:
                body = sweep(body, self._slot(v), top)
            return body, free
        raise TypeError(f"not a formula: {phi!r}")

    def env(self, tables, domain_size):
        return [tables, range(domain_size)] + [0] * len(self.slots)

    def _assignments(self, env):
        """Set env to each assignment of the free variables in turn."""
        free = self.free
        for choice in itertools.product(env[1], repeat=len(free)):
            for s, x in zip(free, choice):
                env[s] = x
            yield

    def valid(self, tables, domain_size):
        """True iff the formula takes the top level under every assignment."""
        env = self.env(tables, domain_size)
        run, top = self.run, self.top
        return all(run(env) == top for _ in self._assignments(env))

    def degree(self, tables, domain_size):
        """The least level over the assignments of the free variables."""
        env = self.env(tables, domain_size)
        run = self.run
        return min(run(env) for _ in self._assignments(env))


def _inf(body, slot, top):
    """The infimum of body over the values of one slot; stops at level 0."""
    def forall(env):
        saved = env[slot]
        best = top
        for x in env[1]:
            env[slot] = x
            v = body(env)
            if v < best:
                best = v
                if not v:
                    break
        env[slot] = saved
        return best
    return forall


def _sup(body, slot, top):
    """The supremum of body over the values of one slot; stops at the top."""
    def exists(env):
        saved = env[slot]
        best = 0
        for x in env[1]:
            env[slot] = x
            v = body(env)
            if v > best:
                best = v
                if v == top:
                    break
        env[slot] = saved
        return best
    return exists


def _compiled_for(phi, model):
    compiled = CompiledFormula(phi, model.chain.n)
    for pred in compiled.predicates:
        if pred not in model.levels:
            raise MissingTableError(pred)
    return compiled


def eval_formula(phi, model, s):
    """The truth value of phi under the assignment s.

    Every free variable of phi must be assigned an element of the domain;
    the quantifier sweeps set the bound ones.
    """
    compiled = _compiled_for(phi, model)
    env = compiled.env(model.levels, model.domain_size)
    for var, slot in zip(compiled.free_vars, compiled.free):
        x = s.get(var)
        if not 0 <= x < model.domain_size:
            raise ValueError(
                f"assignment {var}={x} is outside the domain "
                f"0..{model.domain_size - 1}")
        env[slot] = x
    return model.chain.carrier[compiled.run(env)]


def is_valid(phi, model):
    """True iff the formula takes value 1 under every assignment.

    Scanning assignments of the free variables suffices: the value depends
    on nothing else (the dependency property, pinned by the tests).
    """
    return _compiled_for(phi, model).valid(model.levels, model.domain_size)


def truth_degree(phi, model):
    """Infimum of the value over assignments of the free variables."""
    level = _compiled_for(phi, model).degree(model.levels, model.domain_size)
    return model.chain.carrier[level]


class RefutedBy:
    def __init__(self, model):
        self.model = model

    refuted = True

    def __repr__(self):
        return f"RefutedBy({self.model.to_json()})"


class NoCounterexampleUpTo:
    def __init__(self, max_domain, chain_n):
        self.max_domain = max_domain
        self.chain_n = chain_n

    refuted = False

    def __repr__(self):
        return f"NoCounterexampleUpTo(domain={self.max_domain}, chain={self.chain_n})"


def enumerate_models(language, predicates, domain_size, chain):
    """All models over the named predicates, in canonical table order.

    Each model is its level tables: a dict from predicate to a tuple of
    levels of the chain, one per point in lexicographic point order.
    """
    preds = sorted(predicates)
    rows = [itertools.product(range(chain.n),
                              repeat=domain_size ** language.arity(p))
            for p in preds]
    for combo in itertools.product(*rows):
        yield dict(zip(preds, combo))


def _check_model_count(language, predicates, max_domain, chain_n, cap):
    """Raise SearchTooLarge if more than cap models have |M| <= max_domain.

    The count is summed by domain size up to the first size whose running
    total passes cap, so a huge bound costs no huge number. Nor is a power
    built that alone passes cap: chain_n >= 2, so chain_n ** cells does
    once cells reaches the bit length of cap.
    """
    total = 0
    for size in range(1, max_domain + 1):
        per = 1
        for p in predicates:
            cells = size ** language.arity(p)
            if cells >= cap.bit_length():
                raise SearchTooLarge(
                    f"{chain_n}^{cells} models of {p} at |M| = {size} alone "
                    f"exceed the cap of {cap}")
            per *= chain_n ** cells
        total += per
        if total > cap:
            raise SearchTooLarge(f"{total} models exceed the cap of {cap}")


def entails(gamma, phi, language, max_domain, chain_n, cap=500000):
    """Bounded entailment search over all models with |M| <= max_domain.

    Returns the canonically first countermodel (every gamma member valid,
    phi not) or the bounded no-counterexample verdict.
    """
    chain = Chain(chain_n)
    predicates = set(predicates_of(phi))
    for g in gamma:
        predicates |= predicates_of(g)
    predicates = sorted(predicates)
    _check_model_count(language, predicates, max_domain, chain_n, cap)
    hypotheses = [CompiledFormula(g, chain_n) for g in gamma]
    goal = CompiledFormula(phi, chain_n)
    for size in range(1, max_domain + 1):
        for tables in enumerate_models(language, predicates, size, chain):
            if all(h.valid(tables, size) for h in hypotheses) \
                    and not goal.valid(tables, size):
                return RefutedBy(
                    Model.from_levels(language, size, chain, tables))
    return NoCounterexampleUpTo(max_domain, chain_n)


def random_model(rng, language, max_size, chain):
    """Seeded model with uniformly random tables."""
    size = rng.randint(1, max_size)
    tables = {}
    for name, arity in language.predicates:
        tables[name] = {
            point: chain.carrier[rng.randrange(chain.n)]
            for point in itertools.product(range(size), repeat=arity)
        }
    return Model(language, size, chain, tables)
