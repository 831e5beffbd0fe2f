"""The all-``Fraction`` ``Functional1D`` and ``Staircase``, the oracle of
the dual side's coefficient rule.

They are the classes the package ran before its functionals followed the
rule of ``ring`` (an ``int`` when integral, a ``Fraction`` only where a
denominator exists): the same recurrence, memo, square-and-multiply and
staircase walks, with every recurrence coefficient, initial value, memo
entry, power row, coordinate and Gram entry a ``Fraction``.  The package
itself needs none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from koszulkit.dual_element import DIGIT_LIMIT, MEMO_LIMIT, _too_long
from koszulkit.ring import accumulate


@dataclass
class FractionFunctional1D:
    """Linear functional on polynomials in one variable, given by a monic
    recurrence plus initial values.

    ``rec`` holds the non-leading coefficients a_0..a_{d-1} of the monic
    annihilator T; evaluation beyond the initial segment follows
    eval(d + k) = -sum_i a_i * eval(i + k), so the functional vanishes on
    the ideal (T).  Values below ``MEMO_LIMIT``, up to the first one past
    ``DIGIT_LIMIT`` digits, and the powers x^k mod T are cached on demand;
    any other value pairs x^k mod T, found by square-and-multiply, with the
    initial values.
    """

    rec: tuple
    initials: tuple
    _memo: list = field(default_factory=list, init=False, compare=False, repr=False)
    _powers: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.initials) != len(self.rec):
            raise ValueError("need exactly one initial value per recurrence order")
        self.rec = tuple(Fraction(c) for c in self.rec)
        self.initials = tuple(Fraction(c) for c in self.initials)
        self._memo = list(self.initials)
        # x^0 mod T is 1, or nothing at all when T = 1
        self._powers = [tuple(Fraction(int(i == 0)) for i in range(self.degree))]

    @property
    def degree(self) -> int:
        return len(self.rec)

    def eval(self, k: int) -> Fraction:
        d = self.degree
        if d == 0:
            return Fraction(0)
        if k >= MEMO_LIMIT:
            return self.eval_by_squaring(k)
        memo = self._memo
        while len(memo) <= k:
            base = len(memo) - d
            v = -sum((self.rec[i] * memo[base + i] for i in range(d)), Fraction(0))
            if _too_long(v):
                # the memo stops short of the first value past the digit cap,
                # so it holds at most MEMO_LIMIT values of capped size
                return self.eval_by_squaring(k)
            memo.append(v)
        return memo[k]

    def eval_by_squaring(self, k: int) -> Fraction:
        """eval(k) in O(d^2 log k) operations, caching nothing: l(x^k) is
        sum_i r_i l(x^i) for r = x^k mod T, and l(x^i) = initials[i].  As
        for ``reduced_power``, only an index past ``MEMO_LIMIT`` is held to
        ``DIGIT_LIMIT`` digits."""
        r = self.reduced_power(k)
        return sum((c * v for c, v in zip(r, self.initials) if c), Fraction(0))

    def reduced_power(self, k: int) -> list:
        """Coefficients of x^k mod T, by left-to-right binary powering; as for
        ``eval``, only an index past ``MEMO_LIMIT`` is held to ``DIGIT_LIMIT``
        digits (ValueError once a coefficient passes them)."""
        d, rec = self.degree, self.rec
        r = [Fraction(int(i == 0)) for i in range(d)]
        for bit in bin(k)[2:]:
            full = [Fraction(0)] * (2 * d - 1)
            for i, a in enumerate(r):
                if a:
                    for j, b in enumerate(r):
                        full[i + j] += a * b
            if bit == "1":
                full.insert(0, Fraction(0))
            for top in range(len(full) - 1, d - 1, -1):
                c = full.pop()
                if c:
                    for i in range(d):
                        full[top - d + i] -= c * rec[i]
            r = full
            if k >= MEMO_LIMIT and any(_too_long(c) for c in r):
                raise ValueError(
                    f"power {k} of a variable, reduced modulo its annihilator, "
                    f"needs more than {DIGIT_LIMIT} digits"
                )
        return r

    def power(self, k: int) -> tuple:
        """Coefficients of x^k mod T on 1, x, ..., x^(d-1)."""
        d = self.degree
        pows = self._powers
        while len(pows) <= k:
            prev = pows[-1]
            top = prev[d - 1] if d else 0
            pows.append(tuple((prev[i - 1] if i else 0) - top * self.rec[i] for i in range(d)))
        return pows[k]

    def hankel_row(self, b: int) -> tuple:
        """Row b of the Hankel form on the staircase: eval(a + b), a < d."""
        return tuple(self.eval(a + b) for a in range(self.degree))



class FractionStaircase:
    """The quotient algebra A = k[x]/(f) in its staircase basis.

    ``exponents`` are the exponent vectors of the standard monomials,
    ascending in the monomial order; ``mats[j]`` is the multiplication matrix
    M_j of the j-th variable as ``mul_matrix`` returns it, sparse columns
    with column c the coordinates of x_j times the c-th standard monomial; and
    ``funcs[j]`` carries the annihilator T_j of that variable, the
    characteristic polynomial of M_j.  Nothing here names a generator, so the
    same algebra serves the x and the y copies of the variables.
    """

    def __init__(self, exponents: tuple, mats: tuple, funcs: tuple):
        self.exponents = exponents
        self.mats = mats
        self.funcs = funcs
        self._memo: dict = {}
        self._remainders: dict = {}

    def coords(self, b: tuple) -> dict:
        """Coordinates {staircase index: c} of the normal form of x^b.

        An exponent b_j at or past deg T_j is first brought below it, since
        T_j(M_j) = 0: x_j^b_j mod T_j comes from ``reduced_power`` (which
        raises ValueError past ``MEMO_LIMIT`` when the value passes
        ``DIGIT_LIMIT`` digits), once per variable and exponent.  Below
        those degrees x^b is reached from 1 one variable at a time, x_j * p
        having the coordinates M_j c(p); every vector on the way is cached.
        """
        memo = self._memo
        if b in memo:
            return memo[b]
        for j, func in enumerate(self.funcs):
            if b[j] >= func.degree:
                rem = self._remainders.get((j, b[j]))
                if rem is None:
                    rem = self._remainders[j, b[j]] = func.reduced_power(b[j])
                out: dict = {}
                for k, r in enumerate(rem):
                    if r:
                        for i, c in self.coords(b[:j] + (k,) + b[j + 1 :]).items():
                            accumulate(out, i, r * c)
                memo[b] = out
                return out
        cur = (0,) * len(b)
        vec = memo.get(cur)
        if vec is None:
            # 1 is the least monomial in every supported order: index 0
            vec = memo[cur] = {0: Fraction(1)}
        for j, e in enumerate(b):
            for _ in range(e):
                cur = cur[:j] + (cur[j] + 1,) + cur[j + 1 :]
                nxt = memo.get(cur)
                if nxt is None:
                    nxt = {}
                    cols = self.mats[j]
                    for i, c in vec.items():
                        for k, v in cols[i].items():
                            accumulate(nxt, k, c * v)
                    memo[cur] = nxt
                vec = nxt
        return vec

    def reduce(self, terms: dict) -> dict:
        """Coordinates of the normal form of sum c * x^mu over ``terms``."""
        out: dict = {}
        for mu, c in terms.items():
            for i, v in self.coords(mu).items():
                accumulate(out, i, c * v)
        return out

    def gram(self, values) -> tuple:
        """The Gram matrix [tau(x^beta x^gamma)] over the staircase of the
        functional tau with the given staircase values, row by row: row
        beta + e_j is row beta times M_j, entry c the row dotted with column
        c of M_j, starting from row 0 = ``values``."""
        zero = Fraction(0)
        rows = {}
        for beta in sorted(self.exponents, key=sum):
            if not any(beta):
                rows[beta] = tuple(values)
                continue
            j = next(j for j, e in enumerate(beta) if e)
            prev = rows[beta[:j] + (beta[j] - 1,) + beta[j + 1 :]]
            rows[beta] = tuple(
                sum((prev[i] * v for i, v in col.items() if prev[i]), zero)
                for col in self.mats[j]
            )
        return tuple(rows[beta] for beta in self.exponents)

