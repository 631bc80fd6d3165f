"""Exponent-vector monomials.

A monomial in K[x_0, ..., x_n] is stored as its exponent vector, a tuple of
n+1 non-negative ints (index i <-> variable x_i, so the ambient n is
``len - 1``).  Exponents are Python ints, so nothing overflows; each passes
``require_int``, so a bool, float, string or NumPy exponent raises
ParameterError rather than being converted.  Instances are immutable and
hashable.

``Monomial.__lt__`` is the graded lexicographic order: compare by total
degree first, then by the exponent tuple.  Every deterministic listing is
in the reverse of that order, descending graded-lex, which
``ideals._canonical`` writes.
"""

import re
from itertools import chain
from operator import add, getitem

from .errors import DimensionError, MonomialParseError, require_int

_FACTOR = re.compile(r"x([0-9]+)(?:\^([0-9]+))?$")


def _factor_text(i, e):
    # the factor x_i^e of a monomial, e >= 1
    return f"x{i}^{e}" if e > 1 else f"x{i}"


def exps_text(exps):
    """The canonical text of the monomial with exponent tuple ``exps``:
    ``x<i>^<e>`` factors joined by ``*``, ``^1`` dropped, ``1`` for the unit.
    ``Monomial.__str__``, ``MonomialIdeal.__repr__`` and, for a listing of
    one row, ``exps_lines`` use it.
    """
    parts = [_factor_text(i, e) for i, e in enumerate(exps) if e]
    return "*".join(parts) or "1"


class _Factors(dict):
    # the "*x<i>^<e>" text of column i, keyed by e and made on first use
    __slots__ = ("i",)

    def __init__(self, i):
        super().__init__({0: ""})
        self.i = i

    def __missing__(self, e):
        text = self[e] = "*" + _factor_text(self.i, e)
        return text


def exps_lines(stream, length):
    """``exps_text(exps) + "\\n"`` for each exponent tuple of ``stream``, lazily.

    Every tuple must have ``length`` entries.  Once a second row comes,
    each factor string is made once, on the first row that needs it, and
    kept in a table indexed by variable and exponent, so a row is one join;
    the table never holds an exponent that no row has.  A listing of one
    row, such as a power of I(n,1), is joined by exps_text with no table,
    whose ``length`` columns would cost more than the row.  The streamed
    ``sideal gens`` listing and ``MonomialIdeal.to_text`` write these lines.
    """
    rows = iter(stream)
    first = next(rows, None)
    second = next(rows, None)
    if second is None:
        if first is not None:
            yield exps_text(first) + "\n"
        return
    table = [_Factors(i) for i in range(length)]
    yield from (("".join(map(getitem, table, exps))[1:] or "1") + "\n"
                for exps in chain((first, second), rows))


class Monomial:
    __slots__ = ("exps",)

    def __init__(self, exps):
        exps = tuple(exps)
        if len(exps) < 2:
            raise DimensionError(
                f"monomial needs at least 2 variables, got length {len(exps)}")
        for e in exps:
            require_int("exponent", e, 0)
        self.exps = exps

    @classmethod
    def _trusted(cls, exps):
        """Wrap an exponent tuple without validating it.

        ``exps`` must already be a tuple of at least 2 non-negative ints.
        Only package code whose tuple holds that by construction may call
        this: ``__mul__`` and ``lcm``, and ``MonomialIdeal.gens``, which
        wraps the exponent tuples every ideal keeps: the minimal tuples
        among validated exponent vectors of one ring, or their sums and
        maxima; the face-prime powers and the symbolic power oracle's
        lifts (such tuples plus compositions placed in n+1 >= 2
        coordinates); and the stream of ``simplicial._orbits``.
        Input from users goes through ``__init__``, which validates it.
        """
        self = object.__new__(cls)
        self.exps = exps
        return self

    @classmethod
    def parse(cls, text, n):
        """Parse ``x<i>^<e>`` factors joined by ``*`` into a length-n+1 monomial.

        ``^1`` may be omitted, unused variables default to exponent 0, and the
        string ``1`` denotes the unit monomial.  Whitespace around factors is
        ignored.  Repeated variables multiply (exponents add).
        """
        require_int("n", n)
        exps = [0] * (n + 1)
        s = text.strip()
        if not s:
            raise MonomialParseError("empty monomial string")
        for part in s.split("*"):
            tok = part.strip()
            if tok == "1":
                continue
            match = _FACTOR.fullmatch(tok)
            if match is None:
                raise MonomialParseError(f"bad monomial factor {tok!r}")
            try:
                i = int(match.group(1))
                e = int(match.group(2)) if match.group(2) is not None else 1
            except ValueError:  # past the interpreter's int-string limit
                raise MonomialParseError(
                    f"factor {tok[:20]}... has too many digits") from None
            if i > n:
                raise MonomialParseError(
                    f"variable x{i} out of range for n={n} (have x0..x{n})")
            exps[i] += e
        return cls(exps)

    @property
    def n(self):
        """Ambient projective dimension: number of variables minus one."""
        return len(self.exps) - 1

    @property
    def degree(self):
        """Total degree (sum of exponents)."""
        return sum(self.exps)

    def _check_same_ring(self, other):
        if len(self.exps) != len(other.exps):
            raise DimensionError(
                f"monomials of lengths {len(self.exps)} and {len(other.exps)}")

    def divides(self, other):
        """True iff every exponent of self is <= the matching one of other."""
        self._check_same_ring(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def lcm(self, other):
        self._check_same_ring(other)
        return Monomial._trusted(tuple(map(max, self.exps, other.exps)))

    def __mul__(self, other):
        self._check_same_ring(other)
        return Monomial._trusted(tuple(map(add, self.exps, other.exps)))

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __lt__(self, other):
        # graded lexicographic
        return (self.degree, self.exps) < (other.degree, other.exps)

    def __str__(self):
        return exps_text(self.exps)

    def __repr__(self):
        return f"Monomial({self.exps})"
