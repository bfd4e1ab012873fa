"""Transformations of index sets.

Finite-table transformations, eventually-translational maps on the natural
numbers (the suc/pred family), composition, supports, point modification,
semigroup closure by the generators, and the strong-richness condition
checks.
"""

from __future__ import annotations


from .mv_core import AuditReport, record


class IndexSetMismatch(ValueError):
    """Composed or compared transformations live on different index sets."""


@record
class FinTransformation:
    """Total map on a finite ordered index set, stored as an aligned table."""

    domain: tuple
    values: tuple

    def __post_init__(self):
        if tuple(sorted(self.domain)) != self.domain:
            raise ValueError("domain must be sorted")
        if len(self.values) != len(self.domain):
            raise ValueError("value table must match the domain")
        dom = set(self.domain)
        for v in self.values:
            if v not in dom:
                raise ValueError(f"image point {v!r} escapes the index set")
        # apply sits on hot paths; the position map is not a field, so
        # ==, hash and repr still see domain and values only
        object.__setattr__(self, "_position",
                           {d: k for k, d in enumerate(self.domain)})

    @classmethod
    def identity(cls, domain):
        dom = tuple(sorted(domain))
        return cls(dom, dom)

    @classmethod
    def from_dict(cls, mapping, domain=None):
        dom = tuple(sorted(domain if domain is not None
                           else set(mapping) | set(mapping.values())))
        return cls(dom, tuple(mapping.get(i, i) for i in dom))

    @classmethod
    def replacement(cls, domain, i, j):
        return cls.identity(domain).modify(i, j)

    @classmethod
    def transposition(cls, domain, i, j):
        dom = tuple(sorted(domain))
        return cls(dom, tuple(j if x == i else i if x == j else x for x in dom))

    def apply(self, i):
        k = self._position.get(i)
        if k is None:
            raise ValueError(f"{i!r} is outside the index set")
        return self.values[k]

    def modify(self, i, j):
        if i not in self.domain or j not in self.domain:
            raise ValueError(f"{i!r} or {j!r} is outside the index set")
        vals = list(self.values)
        vals[self._position[i]] = j
        return FinTransformation(self.domain, tuple(vals))

    def sort_key(self):
        return (0, self.domain, self.values)

    def __repr__(self):
        inside = ",".join(f"{i}->{v}" for i, v in zip(self.domain, self.values))
        return "{" + inside + "}"


@record
class OmegaMap:
    """Total map on the naturals: finite override plus a clamped shift tail.

    Outside the override the map is x -> max(x + shift, 0), so suc is
    shift +1, pred is shift -1, and the family is closed under composition.
    Normal form drops override entries the tail already produces, making
    structural equality canonical.
    """

    shift: int
    override: tuple

    def __post_init__(self):
        object.__setattr__(self, "_table", dict(self.override))

    @classmethod
    def make(cls, mapping, shift):
        norm = {}
        for k, v in mapping.items():
            if k < 0 or v < 0:
                raise ValueError("omega maps act on the naturals")
            if v != max(k + shift, 0):
                norm[k] = v
        return cls(shift, tuple(sorted(norm.items())))

    def apply(self, x):
        v = self._table.get(x)
        return v if v is not None else max(x + self.shift, 0)

    def modify(self, i, j):
        table = dict(self.override)
        table[i] = j
        return OmegaMap.make(table, self.shift)

    def _max_key(self):
        return max(self._table, default=-1)

    def in_range(self, m):
        """Exact membership of m in the image."""
        overridden = self._table
        if m in overridden.values():
            return True
        x = m - self.shift
        if x >= 0 and x not in overridden and max(x + self.shift, 0) == m:
            return True
        if m == 0 and self.shift < 0:
            for x in range(0, -self.shift + 1):
                if x not in overridden:
                    return True
        return False

    def missing_values(self):
        """Finite complement of the range, exact.

        For shift >= 0 the tail covers everything from some point on; for
        shift < 0 it covers all of the naturals. Either way the complement
        is confined to a computable window.
        """
        window = self._max_key() + abs(self.shift) + 2
        window = max(window, max((v for _, v in self.override), default=0) + 1)
        return [m for m in range(window + 1) if not self.in_range(m)]

    def sort_key(self):
        return (1, self.shift, self.override)

    def __repr__(self):
        if self == SUC:
            return "suc"
        if self == PRED:
            return "pred"
        if self.shift == 0 and not self.override:
            return "id"
        inside = ",".join(f"{k}->{v}" for k, v in self.override)
        return f"omega(shift={self.shift}" + (f", {{{inside}}})" if inside else ")")


IDENTITY_OMEGA = OmegaMap(0, ())
SUC = OmegaMap(1, ())
PRED = OmegaMap(-1, ())


def compose(f, g):
    """Pointwise f after g; results stay in normal form."""
    if isinstance(f, FinTransformation) and isinstance(g, FinTransformation):
        if f.domain != g.domain:
            raise IndexSetMismatch(f"{f.domain} vs {g.domain}")
        return FinTransformation(f.domain, tuple(f.apply(g.apply(i)) for i in f.domain))
    if isinstance(f, OmegaMap) and isinstance(g, OmegaMap):
        f_table, f_shift = f._table, f.shift
        g_table, g_shift = g._table, g.shift
        shift = f_shift + g_shift
        bound = max(g._max_key(), f._max_key() - g_shift, -g_shift, -shift,
                    0) + 2
        # past the window f after g is the tail max(x + shift, 0); inside
        # it, the points x where v = f(g(x)) differs from the tail are the
        # override, found in increasing order, so the result is in normal
        # form. y starts as the tail x + g_shift of g, unclamped.
        override = []
        for x, y in enumerate(range(g_shift, g_shift + bound + 1)):
            if x in g_table:
                y = g_table[x]
            elif y < 0:
                y = 0
            if y in f_table:
                v = f_table[y]
            else:
                v = y + f_shift
                if v < 0:
                    v = 0
            # v is a natural, so it is the tail's value max(x + shift, 0)
            # when it is x + shift, or 0 with x + shift <= 0
            if v != x + shift and (v or x + shift > 0):
                override.append((x, v))
        return OmegaMap(shift, tuple(override))
    raise IndexSetMismatch(
        f"cannot compose {type(f).__name__} with {type(g).__name__}")


@record
class SupportInfo:
    """Finite support set, or the finite fixed set of an infinite support."""

    finite: bool
    points: frozenset

    def __repr__(self):
        kind = "moved" if self.finite else "infinite; fixed"
        return f"SupportInfo({kind}={sorted(self.points)})"


def support(t):
    if isinstance(t, FinTransformation):
        return SupportInfo(
            True, frozenset(i for i in t.domain if t.apply(i) != i))
    if isinstance(t, OmegaMap):
        if t.shift == 0:
            return SupportInfo(
                True, frozenset(k for k, v in t.override if v != k))
        fixed = {k for k, v in t.override if v == k}
        if t.shift < 0 and 0 not in dict(t.override):
            fixed.add(0)
        return SupportInfo(False, frozenset(fixed))
    raise TypeError(f"not a transformation: {t!r}")


def modify(t, i, j):
    """The point modification t[i|j]: agrees with t off i, sends i to j."""
    return t.modify(i, j)


@record
class SemigroupSpec:
    generators: tuple
    cap: int = 1000


@record
class ClosureResult:
    elements: tuple
    truncated: bool


def semigroup_closure(spec):
    """Least composition-closed superset of the generators.

    Every element is a word g1...gk of generators, so right multiplication
    of the found maps by the generators, breadth first, reaches them all.
    Past the cap it stops with truncated=True; what it found then is a
    prefix by word length: every product of fewer generators than its
    longest element is in it. Elements come in canonical order.
    """
    gens = list(dict.fromkeys(spec.generators))
    kinds = {type(g) for g in gens}
    if len(kinds) > 1:
        raise IndexSetMismatch("generators mix transformation kinds")
    if kinds == {FinTransformation} and len({g.domain for g in gens}) > 1:
        raise IndexSetMismatch("generators live on different index sets")

    elements = list(gens)
    seen = set(gens)
    truncated = False
    # elements grows while it is walked: each new product is walked in turn
    for t, g in ((t, g) for t in elements for g in gens):
        cand = compose(t, g)
        if cand not in seen:
            if len(elements) >= spec.cap:
                truncated = True
                break
            seen.add(cand)
            elements.append(cand)
    return ClosureResult(tuple(sorted(seen, key=lambda t: t.sort_key())),
                         truncated)


@record
class ConditionResult:
    name: str
    status: str  # "pass" | "fail" | "confirmed" | "unresolved" | "violated"
    detail: str = ""

    @property
    def holds(self):
        return self.status not in ("fail", "violated")


@record
class RichnessReport(AuditReport):
    """The conditions as results, in checking order."""

    supports: tuple  # per n: sorted list of supp(sigma^n o pi^n)
    closure_truncated: bool | None


def check_strongly_rich(sigma, pi, ambient=None, n_max=64, sample=8, ij_bound=3):
    """Check the section/retraction conditions for n = 1..n_max.

    Core conditions (retraction, non-surjectivity, finite supports inside
    the co-range of sigma^n) are exact on OmegaMaps. The two closure
    conditions quantify over a whole semigroup, so they are spot-checked on
    a capped closure sample when an ambient spec is supplied; a sample
    member missing from a truncated closure is reported as unresolved, not
    as a violation. sigma and pi must be maps of the naturals (OmegaMaps).
    """
    for name, f in (("sigma", sigma), ("pi", pi)):
        if not isinstance(f, OmegaMap):
            raise ValueError(f"{name} is not a map of the naturals: {f!r}")
    conditions = []

    missing = sigma.missing_values()
    conditions.append(ConditionResult(
        "range-not-everything",
        "pass" if missing else "fail",
        f"co-range sample {missing[:4]}" if missing else "sigma is surjective",
    ))

    supports = []
    sig_pow = sigma
    pi_pow = pi
    for n in range(1, n_max + 1):
        if n > 1:
            sig_pow = compose(sig_pow, sigma)
            pi_pow = compose(pi_pow, pi)
        retr = compose(pi_pow, sig_pow)
        conditions.append(ConditionResult(
            f"retraction-n{n}",
            "pass" if retr == IDENTITY_OMEGA else "fail",
            "" if retr == IDENTITY_OMEGA else f"pi^{n} o sigma^{n} = {retr!r}",
        ))
        comp = compose(sig_pow, pi_pow)
        if comp.shift:  # the support of a shifted tail is infinite
            supports.append(None)
            conditions.append(ConditionResult(
                f"support-finite-n{n}", "fail", f"supp(sigma^{n} o pi^{n}) infinite"))
            continue
        # compose's normal form with shift 0 overrides exactly the moved
        # points, in increasing order: the support, sorted
        points = tuple(k for k, _ in comp.override)
        supports.append(points)
        conditions.append(ConditionResult(f"support-finite-n{n}", "pass"))
        stray = [m for m in points if sig_pow.in_range(m)]
        conditions.append(ConditionResult(
            f"support-outside-range-n{n}",
            "pass" if not stray else "fail",
            "" if not stray else f"{stray} lie inside Rg(sigma^{n})",
        ))

    truncated = None
    if ambient is not None:
        closure = semigroup_closure(ambient)
        truncated = closure.truncated
        in_closure = set(closure.elements)
        unresolved = "unresolved" if truncated else "violated"
        for name, t in (("sigma", sigma), ("pi", pi)):
            status = "confirmed" if t in in_closure else unresolved
            conditions.append(ConditionResult(f"closure-contains-{name}",
                                              status))
        for t in closure.elements[:sample]:
            for i in range(ij_bound):
                for j in range(ij_bound):
                    status = ("confirmed" if t.modify(i, j) in in_closure
                              else unresolved)
                    conditions.append(ConditionResult(
                        f"closure-modify[{i}|{j}]-{t!r}", status))
            conj = compose(sigma, compose(t, pi))
            fixed = conj
            for m in sigma.missing_values():
                fixed = fixed.modify(m, m)
            status = "confirmed" if fixed in in_closure else unresolved
            conditions.append(ConditionResult(f"closure-conjugate-{t!r}", status))

    return RichnessReport(tuple(conditions), tuple(supports), truncated)


def parse_transformation(text, domain=None):
    """Read the CLI literal syntax.

    id | suc | pred | [i|j] | [i,j] | {0->2,1->2} | f.g  (f after g).
    With a finite domain the named maps become finite tables; suc/pred are
    only meaningful on the naturals.
    """
    text = text.strip()
    parts = _split_compositions(text)
    if len(parts) > 1:
        result = parse_transformation(parts[-1], domain)
        for part in reversed(parts[:-1]):
            result = compose(parse_transformation(part, domain), result)
        return result

    if text == "id":
        return (FinTransformation.identity(domain) if domain is not None
                else IDENTITY_OMEGA)
    if text == "suc":
        if domain is not None:
            raise ValueError("suc is not a finite-set transformation")
        return SUC
    if text == "pred":
        if domain is not None:
            raise ValueError("pred is not a finite-set transformation")
        return PRED
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1]
        if "|" in body:
            i, j = (int(p) for p in body.split("|"))
            if domain is not None:
                return FinTransformation.replacement(domain, i, j)
            return OmegaMap.make({i: j}, 0)
        if "," in body:
            i, j = (int(p) for p in body.split(","))
            if domain is not None:
                return FinTransformation.transposition(domain, i, j)
            return OmegaMap.make({i: j, j: i}, 0)
        raise ValueError(f"bad bracket literal {text!r}")
    if text.startswith("{") and text.endswith("}"):
        mapping = {}
        body = text[1:-1].strip()
        if body:
            for chunk in body.split(","):
                src, _, dst = chunk.partition("->")
                mapping[int(src)] = int(dst)
        if domain is not None:
            return FinTransformation.from_dict(mapping, domain)
        return FinTransformation.from_dict(mapping)
    raise ValueError(f"cannot parse transformation literal {text!r}")


def _split_compositions(text):
    parts = []
    depth = 0
    start = 0
    for pos, ch in enumerate(text):
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == "." and depth == 0:
            parts.append(text[start:pos])
            start = pos + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]
