"""Exact linear algebra over Q and over prime fields.

A Mat is a dense value: slotted, compared and hashed by (field, rows, cols,
entries) and never stored to after __init__ (tests/test_imports.py lints
this), so it can live in hashable representation nodes.  A SparseMat, such
as ext.py's arrow complex, keeps only its nonzeros.  rank, ranks, rref, the
kernels and outside_span read the one elimination, on the sparse integer
rows that both give (sparse_rows), so a step costs the nonzeros it
combines.  Kernel and cokernel bases are those read off the reduced
echelon form, back-substituted through the forward elimination; no
pivoting is random.

Every scalar has one canonical form.  Over GF(p) it is an int in [0, p).
Over Q it is an int when it is integral and otherwise a Fraction with
denominator > 1, so integral entries never pay for Fraction arithmetic.  An
int equals, hashes and prints as the Fraction of the same value, so the form
does not show in equality, hashing or output.
"""
from __future__ import annotations

import operator
from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .record import Frozen, ParseError, Record


class Field(Frozen):
    """Scalar field: characteristic 0 means Q, a prime p means GF(p)."""

    __slots__ = _fields = ("char",)
    zero, one = 0, 1  # class constants, not fields: canonical in every field

    def __init__(self, char: int = 0):
        if char and (char < 2 or any(char % d == 0
                                     for d in range(2, int(char ** 0.5) + 1))):
            raise ParseError(
                "", f"field characteristic must be 0 or a prime, got {char}")
        Record.__init__(self, char)

    def of(self, x):
        """The canonical element for an int, a Fraction or, over Q, a string
        such as "-3/4" (over GF(p) a string must name an integer)."""
        if self.char:
            if isinstance(x, Fraction):
                den = x.denominator % self.char
                if den == 0:
                    raise ZeroDivisionError(
                        f"denominator divisible by {self.char}")
                return (x.numerator * pow(den, self.char - 2, self.char)) \
                    % self.char
            return int(x) % self.char
        if type(x) is int:
            return x
        return _canon(x if isinstance(x, Fraction) else Fraction(x))

    def scalar(self, x, pointer: str = ""):
        """of(x) for an int, a Fraction or a string naming one (over GF(p)
        an integer); anything else is refused at pointer."""
        if type(x) in (int, str, Fraction):
            try:
                return self.of(x)
            except ZeroDivisionError:
                raise ParseError(pointer, f"bad scalar {x!r}: zero denominator")
            except ValueError:
                pass
        hint = "" if self.char else ', or a rational as a string such as "1/2"'
        raise ParseError(pointer, f"bad scalar {x!r}: write an integer{hint}")

    def add(self, a, b):
        return (a + b) % self.char if self.char else _canon(a + b)

    def sub(self, a, b):
        return (a - b) % self.char if self.char else _canon(a - b)

    def mul(self, a, b):
        return (a * b) % self.char if self.char else _canon(a * b)

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


class Mat(Record):
    """Dense matrix over a Field; a value, equal to another Mat, hashed and
    printed by (field, rows, cols, entries), the rows a tuple of tuples.
    Not Frozen: a plain __init__ keeps the most built object cheap."""

    __slots__ = _fields = ("field", "rows", "cols", "entries")
    __hash__ = Frozen.__hash__

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence]) -> "Mat":
        rows = tuple(tuple(field.of(x) for x in r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return Mat(field, len(rows), ncols, rows)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        z = field.zero
        return Mat(field, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        z, o = field.zero, field.one
        return Mat(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def from_columns(field: Field, rows: int, cols: Sequence) -> "Mat":
        """The rows x len(cols) matrix whose j-th column is cols[j]."""
        return Mat(field, rows, len(cols),
                   tuple(zip(*cols)) if cols else ((),) * rows)

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def is_zero(self) -> bool:
        F = self.field
        return all(F.is_zero(x) for r in self.entries for x in r)

    def transpose(self) -> "Mat":
        return Mat.from_columns(self.field, self.cols, self.entries)

    def add(self, other: "Mat") -> "Mat":
        return self._entrywise(self.field.add, other)

    def sub(self, other: "Mat") -> "Mat":
        return self._entrywise(self.field.sub, other)

    def _entrywise(self, op, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in {op.__name__}")
        return Mat(self.field, self.rows, self.cols,
                   tuple(tuple(map(op, r1, r2))
                         for r1, r2 in zip(self.entries, other.entries)))

    def scale(self, c) -> "Mat":
        F = self.field
        c = F.of(c)
        return Mat(F, self.rows, self.cols, tuple(tuple(F.mul(c, x) for x in r) for r in self.entries))

    def mul(self, other: "Mat") -> "Mat":
        """Product on plain ints: over GF(p) each entry is one sum of raw
        products reduced mod p once; over Q each row of self and each column
        of other is scaled to integers first (an all-int one as it is), so an
        entry is one integer dot product over the product of the two
        denominators, returned in canonical form (an int when integral)."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in mul: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        p = self.field.char
        ot = tuple(zip(*other.entries)) if other.rows else ((),) * other.cols
        if p:
            out = tuple(tuple(sum(map(operator.mul, r, c)) % p for c in ot)
                        for r in self.entries)
        else:
            cols = [_int_row(c) for c in ot]
            out = tuple(tuple(_frac(sum(map(operator.mul, r, c)), dr * dc)
                              for c, dc in cols)
                        for r, dr in map(_int_row, self.entries))
        return Mat(self.field, self.rows, other.cols, out)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector (vector given as a flat sequence)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return self.mul(Mat(self.field, self.cols, 1,
                            tuple((x,) for x in vec))).col(0)

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Mat(self.field, self.rows, self.cols + other.cols,
                   tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        return Mat(self.field, self.rows + other.rows, self.cols, self.entries + other.entries)

    def sparse_rows(self) -> list:
        """Fresh dicts column -> int of the nonzeros of each row: over GF(p)
        reduced mod p (a Mat checks nothing), over Q scaled to integers."""
        p = self.field.char
        if p:
            return [{j: x % p for j, x in enumerate(r) if x % p}
                    for r in self.entries]
        return [{j: x for j, x in enumerate(_int_row(r)[0]) if x}
                for r in self.entries]


class SparseMat:
    """A matrix over a Field kept as its nonzeros, one dict column -> entry
    per row, each entry canonical and nonzero.  Not a value: it is built
    to be eliminated (rank, kernels, cokernels) without being made dense."""

    __slots__ = ("field", "rows", "cols", "nonzeros")

    def __init__(self, field: Field, rows: int, cols: int, nonzeros: tuple):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.nonzeros = nonzeros

    def sparse_rows(self) -> list:
        """Fresh dicts column -> int, as Mat.sparse_rows, but over Q each
        row scaled by the one common denominator of all the entries."""
        d = 1 if self.field.char else lcm(
            *[x.denominator for r in self.nonzeros for x in r.values()])
        if d == 1:
            return [dict(r) for r in self.nonzeros]
        return [{j: x.numerator * (d // x.denominator) for j, x in r.items()}
                for r in self.nonzeros]

    def transpose(self) -> "SparseMat":
        cols = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nonzeros):
            for j, x in r.items():
                cols[j][i] = x
        return SparseMat(self.field, self.cols, self.rows, tuple(cols))


def _int_row(row):
    """(ints, d) with row == ints / d: a row of rationals over one
    denominator; a row of ints is returned as it is, with d = 1."""
    for x in row:
        if type(x) is not int:
            break
    else:
        return row, 1
    d = lcm(*[x.denominator for x in row])
    return [x.numerator * (d // x.denominator) for x in row], d


def _canon(x: Fraction):
    """The canonical form of a rational: its numerator when it is integral."""
    return x.numerator if x.denominator == 1 else x


def _frac(n: int, d: int):
    """n / d in canonical form: n // d when d divides n, else a Fraction."""
    if d == 1:
        return n
    return n // d if n % d == 0 else Fraction(n, d)


def block_matrix(field: Field, blocks: Sequence[Sequence[Optional[Mat]]],
                 row_dims: Sequence[int], col_dims: Sequence[int]) -> Mat:
    """Assemble a block matrix; None blocks mean zero."""
    rows = []
    for bi, rdim in enumerate(row_dims):
        for r in range(rdim):
            row = []
            for bj, cdim in enumerate(col_dims):
                blk = blocks[bi][bj]
                if blk is None:
                    row.extend([field.zero] * cdim)
                else:
                    if blk.rows != rdim or blk.cols != cdim:
                        raise ValueError("block shape mismatch")
                    row.extend(blk.entries[r])
            rows.append(tuple(row))
    return Mat(field, sum(row_dims), sum(col_dims), tuple(rows))


def _eliminate(m, full: bool, head: int = 0):
    """(rows, pivots, head_rank): one forward elimination of
    m.sparse_rows(), each pivot row as (pivot, its other nonzeros as a dict
    column -> int), in the order of the pivot columns, and, when full, each
    pivot column cleared above its pivot too; head_rank is the rank of the
    first head rows.

    Each row in turn is reduced at its leading column until it starts a new
    pivot or vanishes, so a step costs the nonzeros of the two rows it
    combines, and the pivots that the first head rows start are their rank.
    Over GF(p) every step is reduced mod p and each pivot is scaled to 1.
    """
    p, at, rows = m.field.char, {}, m.sparse_rows()
    _forward(at, rows[:head], p)
    head_rank = len(at)
    _forward(at, rows[head:], p)
    pivots = sorted(at)
    for k in range(len(pivots) - 1, 0, -1) if full else ():
        c = pivots[k]
        for b in pivots[:k]:
            a, row = at[b]
            if c in row:
                f = row.pop(c)
                row[b] = a
                row = _combine(row, f, at[c], p)
                at[b] = row.pop(b), row
    return [at[c] for c in pivots], tuple(pivots), head_rank


def _forward(at: dict, rows, p: int):
    """Reduce each row against the pivot rows at (pivot column -> (pivot,
    tail)) until it vanishes or starts a new pivot, which joins at."""
    for row in rows:
        while row:
            c = min(row)
            f = row.pop(c)
            if c in at:
                row = _combine(row, f, at[c], p)
                continue
            if p and f != 1:
                inv = pow(f, p - 2, p)
                f, row = 1, {j: x * inv % p for j, x in row.items()}
            at[c] = f, row
            break


def _combine(row: dict, f: int, piv: tuple, p: int) -> dict:
    """row minus f / a times the pivot row piv = (a, tail), where row's
    entry f at the pivot column is already taken out; over Q by integer
    cross-multiplication, the result divided by the gcd of its entries."""
    a, tail = piv
    if a != 1:  # over GF(p) the pivot is 1
        g = gcd(a, f)
        if a != g:
            row = {j: a // g * x for j, x in row.items()}
        f //= g
    for j, y in tail.items():
        x = row.get(j, 0) - f * y
        if p:
            x %= p
        if x:
            row[j] = x
        else:
            del row[j]
    g = 0 if p else gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def rref(m):
    """Reduced row echelon form of a Mat or SparseMat, a dense Mat.
    Returns (R, pivot_cols).

    A pivot row over Q is divided by its pivot only when R is built, and
    each entry of R is in canonical form (an int when integral).
    """
    rows, pivots, _ = _eliminate(m, True)
    out = []
    for (a, tail), c in zip(rows, pivots):
        dense = [0] * m.cols
        dense[c] = 1
        for j, x in tail.items():
            dense[j] = x if a == 1 else _frac(x, a)
        out.append(tuple(dense))
    out += [(0,) * m.cols] * (m.rows - len(pivots))
    return Mat(m.field, m.rows, m.cols, tuple(out)), pivots


def rank(m) -> int:
    """The number of pivots of a Mat or SparseMat, by forward elimination
    only: clearing above each pivot as rref does fills a bidiagonal matrix
    in above its pivots and changes no pivot."""
    return len(_eliminate(m, False)[1])


def ranks(m, head: int) -> tuple:
    """(rank of the first head rows of m, rank of m), by one forward
    elimination of the rows in order."""
    _, pivots, head_rank = _eliminate(m, False, head)
    return head_rank, len(pivots)


def _null_rows(m):
    """(rows, free): the canonical null-space basis of m as rows, the row for
    free column f being 1 at f, 0 at the other free columns and rref's
    -R[i][f] at each pivot, back-substituted through the forward elimination
    from the last pivot left of f up (an rref fills a bidiagonal m in), over
    Q as integers w over one denominator d, divided out once."""
    p = m.field.char
    rows, pivots, _ = _eliminate(m, False)
    free = tuple(sorted(set(range(m.cols)).difference(pivots)))
    # each pivot row as (pivot column, pivot, its nonzeros right of the pivot)
    tails = [(pc, a, tail.items()) for pc, (a, tail) in zip(pivots, rows)]
    out = []
    for fc in free:
        w, d = [0] * m.cols, 1
        w[fc] = 1
        for pc, a, tail in reversed(tails[:bisect(pivots, fc)]):
            s = sum([x * w[j] for j, x in tail])
            if s and p:  # over GF(p) the pivot is 1
                w[pc] = -s % p
            elif s:
                f = abs(a) // gcd(s, a)
                if f > 1:
                    w, d, s = [x * f for x in w], d * f, s * f
                w[pc] = -s // a
        out.append(tuple(w) if d == 1 else tuple(_frac(x, d) for x in w))
    return tuple(out), free


def free_columns(m) -> tuple:
    """The columns of m with no pivot in its forward elimination, in order:
    the free columns of rref(m), so for m = Aᵀ the rows of A at which its
    cokernel projection is the identity."""
    pivots = set(_eliminate(m, False)[1])
    return tuple(c for c in range(m.cols) if c not in pivots)


def kernel_span(m):
    """(K, free): the canonical kernel basis, the identity at the free rows."""
    rows, free = _null_rows(m)
    return Mat.from_columns(m.field, m.cols, rows), free


def kernel_basis(m) -> Mat:
    """Columns form the canonical kernel basis (one per free column of rref)."""
    return kernel_span(m)[0]


def column_span(m: Mat):
    """(B, pivots): the canonical column space basis, identity at pivots."""
    R, pivots = rref(m.transpose())
    return Mat.from_columns(m.field, m.rows, R.entries[:len(pivots)]), pivots


def coker_projection(m):
    """Projection onto a canonical complement of the column space.

    Returns (P, free_rows) with P*m == 0, P of shape (rows-rank) x rows, and
    free_rows naming the coordinate labels of the quotient basis, where P is
    the identity: its rows are the null-space rows of m transposed.
    """
    rows, free = _null_rows(m.transpose())
    return Mat(m.field, len(free), m.rows, rows), free


def solve_matrix(m: Mat, b: Mat) -> Optional[Mat]:
    """One exact solution X of m X = b, free variables set to zero; None if
    any column of b is outside the column space of m."""
    R, pivots = rref(m.hstack(b))
    if pivots and pivots[-1] >= m.cols:
        return None
    F = m.field
    x = [(F.zero,) * b.cols] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = R.entries[i][m.cols:]
    return Mat(F, m.cols, b.cols, tuple(x))


def outside_span(m, k: int) -> tuple:
    """The indices i of the columns k + i of m outside the span of its first
    k columns, by one forward elimination: the pivot rows right of those k
    columns are zero in them, so a later column is in their span exactly
    when it is zero in those rows too."""
    rows, pivots, _ = _eliminate(m, False)
    r = bisect(pivots, k - 1)
    return tuple(sorted({j - k for c, (_, tail) in zip(pivots[r:], rows[r:])
                         for j in (c, *tail)}))


def inverse(m: Mat) -> Optional[Mat]:
    """Inverse of a square matrix, the solution of m X = I; None if m is not
    square or is singular."""
    if m.rows != m.cols:
        return None
    return solve_matrix(m, Mat.identity(m.field, m.rows))


def is_invertible(m: Mat) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def min_poly(m: Mat) -> tuple:
    """Monic minimal polynomial of a square matrix, low degree first.

    Returned as a coefficient tuple (c0, c1, ..., 1).  One elimination of
    the vectorized powers I, m, ..., m^n as columns: the first free column d
    is the first power that depends on the earlier ones, which are pivots,
    so m^d = sum of R[i][d] m^i over i < d.
    """
    if m.rows != m.cols:
        raise ValueError("min_poly needs a square matrix")
    F = m.field
    n = m.rows
    powers = [Mat.identity(F, n)]
    for _ in range(n):
        powers.append(powers[-1].mul(m))
    flat = [tuple(x for r in p.entries for x in r) for p in powers]
    R, pivots = rref(Mat(F, n * n, n + 1, tuple(zip(*flat))))
    d = len(pivots)  # Cayley-Hamilton: m^n depends on the lower powers
    return tuple(F.neg(R.entries[i][d]) for i in range(d)) + (F.one,)
