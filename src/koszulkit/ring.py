"""Exact multivariate polynomials over named generator families.

A :class:`FamilyRegistry` owns two kinds of generator families: commuting
families (ordinary polynomial variables, indexed by a global integer) and odd
families (anticommuting generators that come in primal/dual pairs, indexed by
a global rank).  Registration order is significant: it fixes the canonical
sort order used everywhere else in the package, so algebra objects built over
the same registry compose without any renaming.

Polynomials are sparse: a monomial is a tuple of ``(generator_index,
exponent)`` pairs sorted by generator index with all exponents positive, and a
polynomial maps monomials to nonzero rational coefficients: the constructor
drops zeros, and ``accumulate``, the one idiom sums are built with, never
stores one.  Every monomial that ``mono_mul`` or ``mono_divide`` builds
passes through one table of distinct monomials, so polynomials built from
products share their keys instead of holding equal copies.  One coefficient
rule holds where coefficients enter (``Poly.const``, and through it the
parser, ``as_poly`` and every constant; ``Poly.variable``): a coefficient is an
``int`` when it is integral and a :class:`fractions.Fraction` otherwise, never
a float or a bool.  ``rational`` applies it, there and on the dual side's
values.  Sums and products of ``int`` coefficients then stay
``int``, so integral inputs never pay for ``Fraction`` arithmetic.  All
arithmetic is exact; nothing in this module (or the package) touches floating
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import attrgetter

Mono = tuple  # tuple[tuple[int, int], ...], sorted by generator index
MONO_ONE: Mono = ()

PRIMAL = 0
DUAL = 1


class ParseError(ValueError):
    """Raised for malformed polynomial expressions."""


@dataclass(frozen=True)
class CommFamily:
    """A family of commuting generators; ``base`` is the global index of generator 1."""

    name: str
    arity: int
    base: int

    def gens(self) -> range:
        return range(self.base, self.base + self.arity)


@dataclass(frozen=True)
class OddFamily:
    """A family of paired odd generators; ``base`` is the global rank of primal 1.

    Generator i (1-based) occupies ranks ``base + 2*(i-1)`` (primal) and
    ``base + 2*(i-1) + 1`` (dual), so within a family the canonical order is
    primal 1, dual 1, primal 2, dual 2, ...
    """

    name: str
    arity: int
    base: int

    def primal_ranks(self) -> list[int]:
        return [self.base + 2 * i for i in range(self.arity)]

    def dual_ranks(self) -> list[int]:
        return [self.base + 2 * i + 1 for i in range(self.arity)]

    def owns_rank(self, rank: int) -> bool:
        return self.base <= rank < self.base + 2 * self.arity


class FamilyRegistry:
    """Append-only registry of generator families with globally unique names."""

    def __init__(self) -> None:
        self._families: dict[str, object] = {}
        self._next_index = 0
        self._next_rank = 0
        self._comm_labels: list[str] = []
        self._comm_owner: list[tuple[str, int]] = []
        self._odd_owner: list[tuple[str, int, int]] = []

    def commuting(self, name: str, arity: int, labels: list[str] | None = None) -> CommFamily:
        """Register a commuting family and return its handle.

        ``labels`` optionally supplies display names per generator; the
        default is ``name`` for arity 1 and ``name1 .. nameN`` otherwise.
        """
        self._check_name(name, arity)
        if labels is None:
            labels = [name] if arity == 1 else [f"{name}{i}" for i in range(1, arity + 1)]
        if len(labels) != arity:
            raise ValueError(f"expected {arity} labels, got {len(labels)}")
        fam = CommFamily(name, arity, self._next_index)
        self._families[name] = fam
        self._next_index += arity
        self._comm_labels.extend(labels)
        self._comm_owner.extend((name, i) for i in range(1, arity + 1))
        return fam

    def odd(self, name: str, arity: int) -> OddFamily:
        """Register an odd family of ``arity`` primal/dual generator pairs."""
        self._check_name(name, arity)
        fam = OddFamily(name, arity, self._next_rank)
        self._families[name] = fam
        self._next_rank += 2 * arity
        for i in range(1, arity + 1):
            self._odd_owner.append((name, i, PRIMAL))
            self._odd_owner.append((name, i, DUAL))
        return fam

    def _check_name(self, name: str, arity: int) -> None:
        if not name:
            raise ValueError("family name must be nonempty")
        if name in self._families:
            raise ValueError(f"family name {name!r} already registered")
        if arity < 1:
            raise ValueError(f"family arity must be >= 1, got {arity}")

    def family(self, name: str):
        try:
            return self._families[name]
        except KeyError:
            raise KeyError(f"unknown family {name!r}") from None

    def comm_family(self, fam) -> CommFamily:
        if isinstance(fam, str):
            fam = self.family(fam)
        if not isinstance(fam, CommFamily):
            raise TypeError(f"{fam!r} is not a commuting family")
        return fam

    def odd_family(self, fam) -> OddFamily:
        if isinstance(fam, str):
            fam = self.family(fam)
        if not isinstance(fam, OddFamily):
            raise TypeError(f"{fam!r} is not an odd family")
        return fam

    def comm_gen(self, fam, i: int) -> int:
        """Global index of commuting generator ``i`` (1-based) of ``fam``."""
        fam = self.comm_family(fam)
        if not 1 <= i <= fam.arity:
            raise IndexError(f"generator index {i} out of range for {fam.name!r}")
        return fam.base + i - 1

    def comm_label(self, gidx: int) -> str:
        return self._comm_labels[gidx]

    def comm_owner(self, gidx: int) -> tuple[str, int]:
        """Family name and 1-based index owning a global commuting index."""
        return self._comm_owner[gidx]

    def odd_rank(self, fam, i: int, dual: bool = False) -> int:
        """Global rank of odd generator ``i`` (1-based), primal or dual."""
        fam = self.odd_family(fam)
        if not 1 <= i <= fam.arity:
            raise IndexError(f"generator index {i} out of range for {fam.name!r}")
        return fam.base + 2 * (i - 1) + (1 if dual else 0)

    def rank_info(self, rank: int) -> tuple[str, int, int]:
        """Family name, 1-based index and polarity of a global rank."""
        return self._odd_owner[rank]

    def odd_label(self, rank: int) -> str:
        name, i, pol = self._odd_owner[rank]
        return f"{name}*{i}" if pol == DUAL else f"{name}{i}"

    def comm_label_map(self) -> dict[str, int]:
        """Display label -> global index for every commuting generator."""
        return {label: g for g, label in enumerate(self._comm_labels)}

    @property
    def num_comm(self) -> int:
        return self._next_index

    @property
    def num_ranks(self) -> int:
        return self._next_rank


def accumulate(acc: dict, key, value) -> None:
    """Add ``value`` into ``acc[key]``, so that ``acc`` never holds a zero.

    The one accumulate-and-prune idiom of the package, for coefficients and
    Poly values alike: a new key stores ``value`` itself, unless it is zero,
    so no zero is built and no addition is made; a sum that reaches zero
    drops its key.
    """
    old = acc.get(key)
    if old is None:
        if value:
            acc[key] = value
    else:
        s = old + value
        if s:
            acc[key] = s
        else:
            del acc[key]


def rational(c) -> int | Fraction:
    """``c`` by the coefficient rule: an ``int`` when integral, else a
    Fraction; anything ``Fraction`` accepts goes in."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def ratio(n: int, den: int) -> int | Fraction:
    """n / den by the coefficient rule: an ``int`` when den divides n, else a
    Fraction."""
    q, rem = divmod(n, den)
    return Fraction(n, den) if rem else q


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def cleared(values: dict) -> tuple[int, dict]:
    """``(d, {key: n})`` with each nonzero ``values[key]`` equal to n / d, d
    the lcm of their denominators; zero values are left out.  ``ratio``
    turns each n back into its value."""
    vals = values.values()
    if 0 in vals:
        values = {k: v for k, v in values.items() if v}
        vals = values.values()
    d = lcm(*map(_denominator, vals))
    if d == 1:
        return 1, dict(zip(values, map(_numerator, vals)))
    return d, {k: v.numerator * (d // v.denominator) for k, v in values.items()}


# The one table of distinct monomials: every monomial that ``mono_mul`` or
# ``mono_divide`` builds is replaced by the first equal one, so polynomials
# built from their products share their keys instead of holding copies.  It
# holds immutable tuples only, so sharing it changes no result, and it grows
# with the distinct monomials a process meets, not with the polynomials.
_MONOMIALS: dict[Mono, Mono] = {}


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    # merge the two sorted pair lists, reusing the pairs a generator of only
    # one factor keeps
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        p1, p2 = m1[i], m2[j]
        if p1[0] < p2[0]:
            out.append(p1)
            i += 1
        elif p2[0] < p1[0]:
            out.append(p2)
            j += 1
        else:
            out.append((p1[0], p1[1] + p2[1]))
            i += 1
            j += 1
    out.extend(m1[i:] if i < n1 else m2[j:])
    m = tuple(out)
    return _MONOMIALS.setdefault(m, m)


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_exponent(m: Mono, gidx: int) -> int:
    for g, e in m:
        if g == gidx:
            return e
    return 0


def mono_divide(m1: Mono, m2: Mono) -> Mono | None:
    """m1 / m2 as a monomial, or None when m2 does not divide m1."""
    out = []
    i, n1 = 0, len(m1)
    for g, e in m2:
        while i < n1 and m1[i][0] < g:
            out.append(m1[i])
            i += 1
        if i == n1 or m1[i][0] != g or m1[i][1] < e:
            return None
        if m1[i][1] > e:
            out.append((g, m1[i][1] - e))
        i += 1
    out.extend(m1[i:])
    m = tuple(out)
    return _MONOMIALS.setdefault(m, m)


def mono_lcm(m1: Mono, m2: Mono) -> Mono:
    acc = dict(m1)
    for g, e in m2:
        acc[g] = max(acc.get(g, 0), e)
    return tuple(sorted(acc.items()))


class Poly:
    """Sparse exact polynomial over a registry's commuting generators."""

    __slots__ = ("reg", "terms")

    def __init__(self, reg: FamilyRegistry, terms: dict | None = None):
        self.reg = reg
        if terms is None:
            terms = {}
        elif not all(terms.values()):
            terms = {m: c for m, c in terms.items() if c}
        self.terms: dict[Mono, int | Fraction] = terms

    @staticmethod
    def _wrap(reg: FamilyRegistry, terms: dict, _new=object.__new__) -> "Poly":
        """The Poly holding ``terms`` itself, unchecked: for maps that hold no
        zero by construction, such as those ``accumulate`` builds."""
        p = _new(Poly)
        p.reg = reg
        p.terms = terms
        return p

    @classmethod
    def zero(cls, reg: FamilyRegistry) -> "Poly":
        return cls._wrap(reg, {})

    @classmethod
    def const(cls, reg: FamilyRegistry, c) -> "Poly":
        if type(c) is not int:  # the coefficient rule: int when integral
            c = rational(c)
        return cls._wrap(reg, {MONO_ONE: c} if c else {})

    @classmethod
    def variable(cls, reg: FamilyRegistry, gidx: int) -> "Poly":
        if not 0 <= gidx < reg.num_comm:
            raise IndexError(f"no commuting generator with index {gidx}")
        return cls._wrap(reg, {((gidx, 1),): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.reg is other.reg and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == (Poly.const(self.reg, other).terms)
        return NotImplemented

    __hash__ = None

    def __neg__(self) -> "Poly":
        return Poly._wrap(self.reg, {m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            accumulate(acc, m, c)
        return Poly._wrap(self.reg, acc)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        # the exact type first: Fraction's ABC instance check is slow
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                # a scalar times each coefficient: int and Fraction products
                # are exact, and a zero scalar leaves no term
                return Poly(self.reg, {m: other * v for m, v in self.terms.items()})
            if not isinstance(other, Poly):
                return NotImplemented
        acc: dict[Mono, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                accumulate(acc, mono_mul(m1, m2), c1 * c2)
        return Poly._wrap(self.reg, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative powers are not polynomial")
        if n == 0:
            return Poly.const(self.reg, 1)
        # right-to-left square-and-multiply: no squaring after the top bit,
        # and the first factor is taken as is rather than multiplied into 1
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.reg is not self.reg:
                raise ValueError("polynomials built over different registries")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.reg, other)
        raise TypeError(f"cannot combine Poly with {type(other).__name__}")

    def total_degree(self) -> int:
        """Largest monomial degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def coeff(self, m: Mono) -> int | Fraction:
        """Coefficient of ``m`` (0 when absent): an ``int`` when integral, else a Fraction."""
        return self.terms.get(m, 0)

    def support_gens(self) -> set[int]:
        gens: set[int] = set()
        for m in self.terms:
            gens.update(g for g, _ in m)
        return gens

    def sorted_terms(self) -> list[tuple[Mono, int | Fraction]]:
        """Terms in descending graded-lexicographic order (canonical)."""
        return sorted(self.terms.items(), key=_grlex_key, reverse=True)

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"Poly({render_poly(self)})"


def as_poly(reg: FamilyRegistry, x) -> Poly:
    """``x`` itself when it is a Poly, else the constant polynomial ``x`` over ``reg``."""
    return x if isinstance(x, Poly) else Poly.const(reg, x)


def _grlex_key(item):
    """(degree, -g1, e1, -g2, e2, ...) of a term's monomial: one flat tuple,
    which sorts as (degree, ((-g1, e1), (-g2, e2), ...)) does, since every
    pair has two entries."""
    key = [0]
    d = 0
    for g, e in item[0]:
        key += (-g, e)
        d += e
    key[0] = d
    return tuple(key)


def render_mono(reg: FamilyRegistry, m: Mono) -> str:
    if not m:
        return "1"
    parts = []
    for g, e in m:
        label = reg.comm_label(g)
        parts.append(label if e == 1 else f"{label}^{e}")
    return "*".join(parts)


def render_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
    chunks: list[str] = []
    for m, c in p.sorted_terms():
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if not m:
            body = str(mag)
        elif mag == 1:
            body = render_mono(p.reg, m)
        else:
            body = f"{mag}*{render_mono(p.reg, m)}"
        if not chunks:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)


def divided_diff(F: Poly, xfam, yfam) -> list[Poly]:
    """Telescoping divided differences of ``F`` between two variable families.

    Returns ``[D_1, ..., D_n]`` with ``sum_k (x_k - y_k) * D_k = F(x) - F(y)``,
    where ``D_k`` is the exact quotient splitting the k-th variable: take F
    with ``x_1..x_{k-1}`` already replaced by ``y_1..y_{k-1}`` and divide out
    ``x_k - y_k`` from the ``x_k -> y_k`` difference.  Everything is exact; no
    polynomial division loop is needed because the quotient of
    ``x^a - y^a`` is ``sum_{i+j=a-1} x^i y^j`` termwise.
    """
    reg = F.reg
    xfam = reg.comm_family(xfam)
    yfam = reg.comm_family(yfam)
    if xfam.arity != yfam.arity:
        raise ValueError("divided_diff needs families of equal arity")
    if xfam.name == yfam.name:
        raise ValueError("divided_diff needs two distinct families")
    out: list[Poly] = []
    cur = F.terms
    for k in range(1, xfam.arity + 1):
        xg = reg.comm_gen(xfam, k)
        yg = reg.comm_gen(yfam, k)
        # D_k, and the next stage: cur with x_k renamed to y_k
        quo: dict[Mono, int | Fraction] = {}
        nxt: dict[Mono, int | Fraction] = {}
        for m, c in cur.items():
            a = mono_exponent(m, xg)
            if a == 0:
                accumulate(nxt, m, c)
                continue
            rest = tuple(pair for pair in m if pair[0] != xg)
            for i in range(a):
                extra = []
                if i:
                    extra.append((xg, i))
                if a - 1 - i:
                    extra.append((yg, a - 1 - i))
                accumulate(quo, mono_mul(rest, tuple(sorted(extra))), c)
            accumulate(nxt, mono_mul(rest, ((yg, a),)), c)
        out.append(Poly(reg, quo))
        cur = nxt
    return out


_OPS = set("+-*^()")

# Parenthesis nesting allowed in one expression; each level costs the
# recursive-descent parser five stack frames.
MAX_NESTING = 100


def _tokenize(text: str):
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            try:
                tokens.append(("num", int(text[i:j]), i))
            except ValueError:  # more digits than int() converts
                raise ParseError(f"number too long at position {i}") from None
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in _OPS or ch == "/":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive-descent parser for polynomial expressions.

    Grammar: expr := term (('+'|'-') term)*; term := unary ('*' unary)*;
    unary := ('-'|'+')* power; power := atom ('^' INT)?;
    atom := INT ('/' INT)? | NAME | '(' expr ')'.  Parentheses nest at most
    MAX_NESTING deep.
    """

    def __init__(self, reg: FamilyRegistry, text: str, names: dict[str, int]):
        self.reg = reg
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = names
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r} at position {tok[2]}")
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input at position {tok[2]}")
        return p

    def expr(self) -> Poly:
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly:
        p = self.unary()
        while self.peek()[0] == "*":
            self.take()
            p = p * self.unary()
        return p

    def unary(self) -> Poly:
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        p = self.power()
        return p if sign == 1 else -p

    def power(self) -> Poly:
        p = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.expect("num")
            p = p ** tok[1]
        return p

    def atom(self) -> Poly:
        tok = self.take()
        kind, value, at = tok
        if kind == "num":
            if self.peek()[0] == "/":
                self.take()
                den = self.expect("num")[1]
                if den == 0:
                    raise ParseError(f"zero denominator at position {at}")
                return Poly.const(self.reg, Fraction(value, den))
            return Poly.const(self.reg, value)
        if kind == "name":
            gidx = self.names.get(value)
            if gidx is None:
                raise ParseError(f"unknown variable {value!r} at position {at}")
            return Poly.variable(self.reg, gidx)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} at position {at}")
            self.depth += 1
            p = self.expr()
            self.expect(")")
            self.depth -= 1
            return p
        raise ParseError(f"unexpected token at position {at}")


def parse_poly(reg: FamilyRegistry, text: str, names: dict[str, int] | None = None) -> Poly:
    """Parse an expression over declared variable names into a Poly.

    ``names`` maps variable tokens to global commuting indices; by default it
    is the registry's display-label map.  '/' is only legal between two
    integer literals (rational constants); exponents are nonnegative integers.
    """
    if names is None:
        names = reg.comm_label_map()
    return _Parser(reg, text, names).parse()
