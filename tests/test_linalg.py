import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arknit import linalg
from arknit.linalg import (GF, QQ, Mat, coker_projection, column_span,
                           inverse, is_invertible, kernel_basis, kernel_span,
                           min_poly, outside_span, rank, rref, solve_matrix)

from arknit.quiver import Arrow
from oracles import FrozenArrow, FrozenMat, null_rows_by_rref, rref_rank


def rmat(rng, rows, cols, field=QQ):
    return Mat(field, rows, cols, tuple(
        tuple(field.of(rng.randrange(-3, 4)) for _ in range(cols))
        for _ in range(rows)))


def test_rank_matches_independent_elimination():
    rng = random.Random(7)
    for _ in range(60):
        m = rmat(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        naive = rref_rank([[Fraction(x) for x in row] for row in m.entries])
        assert rank(m) == naive


def test_kernel_columns_annihilate():
    rng = random.Random(11)
    for _ in range(40):
        m = rmat(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        ker = kernel_basis(m)
        assert ker.cols == m.cols - rank(m)
        if ker.cols:
            assert m.mul(ker).is_zero()


def test_solve_and_inverse():
    rng = random.Random(17)
    done = 0
    while done < 25:
        n = rng.randrange(1, 5)
        m = rmat(rng, n, n)
        if not is_invertible(m):
            continue
        done += 1
        inv = inverse(m)
        assert m.mul(inv).entries == Mat.identity(QQ, n).entries
        b = Mat.from_rows(QQ, [[rng.randrange(-3, 4)] for _ in range(n)])
        x = solve_matrix(m, b)
        assert x is not None and m.mul(x) == b


def test_solve_reports_inconsistency():
    m = Mat.from_rows(QQ, [[1], [2]])
    b = Mat.from_rows(QQ, [[1, 1], [1, 2]])
    assert solve_matrix(m, b) is None
    assert solve_matrix(m, Mat.from_rows(QQ, [[1], [2]])) == \
        Mat.from_rows(QQ, [[1]])
    # column 0 of b is outside the span of m, column 1 is m itself
    assert outside_span(m.hstack(b), 1) == (0,)


def test_solve_matrix_consistency():
    rng = random.Random(19)
    for _ in range(30):
        a = rmat(rng, 3, 2)
        x0 = rmat(rng, 2, 2)
        b = a.mul(x0)
        x = solve_matrix(a, b)
        assert x is not None
        assert a.mul(x).entries == b.entries


def test_min_poly_annihilates_and_is_monic():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randrange(1, 4)
        m = rmat(rng, n, n)
        coeffs = min_poly(m)
        acc = Mat.zeros(QQ, n, n)
        p = Mat.identity(QQ, n)
        for c in coeffs:
            acc = acc.add(p.scale(c))
            p = p.mul(m)
        assert acc.is_zero()
        assert coeffs[-1] == QQ.one


def test_prime_field_arithmetic():
    F = GF(5)
    m = Mat(F, 2, 2, ((F.of(2), F.of(3)), (F.of(1), F.of(1))))
    assert is_invertible(m)
    assert m.mul(inverse(m)).entries == Mat.identity(F, 2).entries
    s = Mat(F, 2, 2, ((F.of(1), F.of(2)), (F.of(2), F.of(4))))
    assert rank(s) == 1
    assert kernel_basis(s).cols == 1


def test_field_conversions():
    assert QQ.of(Fraction(3, 2)) == Fraction(3, 2)
    F = GF(7)
    assert F.of(10) == 3
    assert F.of(Fraction(1, 2)) == 4
    with pytest.raises(ZeroDivisionError):
        F.of(Fraction(1, 7))


# ---------------------------------------------------------------------------
# properties of the elimination kernel, checked with naive arithmetic that
# does not go through arknit.linalg

FIELDS = (QQ, GF(2), GF(7), GF(101))
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True,
                    database=None)


def _entries(F):
    if F.char:
        return st.one_of(st.just(0), st.integers(0, F.char - 1))
    big = st.integers(2 ** 64, 2 ** 70)
    return st.one_of(st.just(0),
                     st.fractions(-9, 9, max_denominator=6),
                     big, big.map(lambda x: Fraction(-x, 7)))


@st.composite
def matrices(draw, field=None, rows=None, cols=None):
    F = draw(st.sampled_from(FIELDS)) if field is None else field
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    if draw(st.integers(0, 9)) == 0:
        return Mat.zeros(F, r, c)
    row = st.lists(_entries(F), min_size=c, max_size=c)
    data = draw(st.lists(row, min_size=r, max_size=r))
    return Mat(F, r, c, tuple(tuple(F.of(x) for x in rw) for rw in data))


def _reduce(F, x):
    return x % F.char if F.char else x


def naive_mul(a: Mat, b: Mat):
    F = a.field
    return [[_reduce(F, sum((x * b.entries[k][j]
                             for k, x in enumerate(row)), 0))
             for j in range(b.cols)] for row in a.entries]


def naive_rank(m: Mat) -> int:
    if not m.field.char:
        return rref_rank([list(r) for r in m.entries])
    p = m.field.char
    rows = [list(r) for r in m.entries]
    rank = 0
    for c in range(m.cols):
        piv = next((i for i in range(rank, m.rows) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(m.rows):
            if i != rank and rows[i][c] % p:
                f = rows[i][c] * inv
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _entry_ok(F, x):
    """Canonical form: over GF(p) an int in [0, p); over Q an int, or a
    Fraction only when it is not integral."""
    if F.char:
        return type(x) is int and 0 <= x < F.char
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@PROPERTY
@given(matrices())
def test_rref_is_reduced_echelon(m):
    F = m.field
    R, pivots = rref(m)
    assert (R.rows, R.cols) == (m.rows, m.cols)
    assert all(_entry_ok(F, x) for row in R.entries for x in row)
    assert list(pivots) == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert all(x == 0 for x in R.entries[i][:c])
        assert R.col(c) == tuple(1 if k == i else 0 for k in range(m.rows))
    for i in range(len(pivots), m.rows):
        assert all(x == 0 for x in R.entries[i])


@PROPERTY
@given(st.data())
def test_mul_matches_naive_product(data):
    a = data.draw(matrices())
    b = data.draw(matrices(a.field, rows=a.cols))
    c = a.mul(b)
    assert (c.rows, c.cols) == (a.rows, b.cols)
    assert all(_entry_ok(a.field, x) for row in c.entries for x in row)
    assert [list(r) for r in c.entries] == naive_mul(a, b)


@PROPERTY
@given(matrices())
def test_rref_rows_span_the_matrix(m):
    F = m.field
    R, pivots = rref(m)
    assert len(pivots) == naive_rank(m) == rank(m)
    for row in m.entries:
        combo = [_reduce(F, sum((row[c] * R.entries[i][j]
                                 for i, c in enumerate(pivots)), 0))
                 for j in range(m.cols)]
        assert combo == list(row)


@PROPERTY
@given(matrices())
def test_kernel_basis_is_a_basis_of_the_kernel(m):
    K = kernel_basis(m)
    assert K.rows == m.cols
    assert K.cols == m.cols - naive_rank(m)
    assert all(x == 0 for row in naive_mul(m, K) for x in row)
    assert naive_rank(K) == K.cols


@PROPERTY
@given(matrices())
def test_kernel_and_column_spans_are_the_identity_at_their_units(m):
    # KernelOfRep reads an arrow map off these rows instead of solving
    F = m.field
    for B, units in (kernel_span(m), column_span(m)):
        assert [B.entries[r] for r in units] == \
            list(Mat.identity(F, B.cols).entries)
    assert column_span(m)[0].cols == naive_rank(m)
    assert kernel_span(m)[0] == kernel_basis(m)


@PROPERTY
@given(matrices())
def test_coker_projection_kills_column_space(m):
    P, free = coker_projection(m)
    assert (P.rows, P.cols) == (len(free), m.rows)
    assert P.rows == m.rows - naive_rank(m)
    assert all(x == 0 for row in naive_mul(P, m) for x in row)
    assert [list(P.col(r)) for r in free] == \
        [[int(i == j) for i in range(P.rows)] for j in range(P.rows)]


@PROPERTY
@given(st.data())
def test_solve_matrix_recovers_a_consistent_system(data):
    m = data.draw(matrices())
    x = data.draw(matrices(m.field, rows=m.cols))
    b = Mat(m.field, m.rows, x.cols,
            tuple(tuple(r) for r in naive_mul(m, x)))
    y = solve_matrix(m, b)
    assert y is not None and (y.rows, y.cols) == (m.cols, x.cols)
    assert naive_mul(m, y) == [list(r) for r in b.entries]
    assert outside_span(m.hstack(b), m.cols) == ()


@PROPERTY
@given(st.data())
def test_outside_span_is_a_rank_test(data):
    # column k + i is outside the span of the first k columns exactly when
    # appending it to them raises the rank
    m = data.draw(matrices())
    k = data.draw(st.integers(0, m.cols))
    head = Mat(m.field, m.rows, k, tuple(r[:k] for r in m.entries))
    want = tuple(i for i in range(m.cols - k) if naive_rank(head.hstack(
        Mat.from_columns(m.field, m.rows, [m.col(k + i)]))) > naive_rank(head))
    assert outside_span(m, k) == want


@PROPERTY
@given(st.data())
def test_inverse_exactly_when_full_rank(data):
    n = data.draw(st.integers(0, 5))
    m = data.draw(matrices(rows=n, cols=n))
    inv = inverse(m)
    if naive_rank(m) < n:
        assert inv is None
        assert not is_invertible(m)
    else:
        assert inv is not None and is_invertible(m)
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert naive_mul(inv, m) == ident
        assert naive_mul(m, inv) == ident


@pytest.mark.parametrize("F", FIELDS)
def test_empty_and_zero_matrices(F):
    for rows, cols in ((0, 0), (3, 0), (0, 3), (2, 3)):
        z = Mat.zeros(F, rows, cols)
        R, pivots = rref(z)
        assert pivots == () and R.entries == z.entries
        assert kernel_basis(z) == Mat.identity(F, cols)
        assert column_span(z) == (Mat(F, rows, 0, ((),) * rows), ())
        assert solve_matrix(z, Mat.zeros(F, rows, 2)).entries == \
            Mat.zeros(F, cols, 2).entries
        assert z.mul(Mat.zeros(F, cols, 4)).entries == \
            Mat.zeros(F, rows, 4).entries
    assert inverse(Mat.zeros(F, 0, 0)).entries == ()
    # a trivial kernel has zero columns and one empty row per column of m
    assert kernel_basis(Mat.identity(F, 3)) == Mat(F, 3, 0, ((),) * 3)


@PROPERTY
@given(st.data())
def test_min_poly_is_the_first_dependency_among_powers(data):
    # p(m) = 0 with p monic of degree d, and I, m, ..., m^(d-1) independent
    F = data.draw(st.sampled_from((QQ, GF(7))))
    n = data.draw(st.integers(0, 4))
    m = data.draw(matrices(F, rows=n, cols=n))
    coeffs = min_poly(m)
    d = len(coeffs) - 1
    assert coeffs[-1] == 1 and all(_entry_ok(F, c) for c in coeffs)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(d):
        powers.append(naive_mul(Mat(F, n, n, tuple(map(tuple, powers[-1]))), m))
    value = [[_reduce(F, sum(c * pk[i][j] for c, pk in zip(coeffs, powers)))
              for j in range(n)] for i in range(n)]
    assert all(x == 0 for row in value for x in row)
    flat = Mat(F, d, n * n, tuple(tuple(F.of(x) for row in pk for x in row)
                                  for pk in powers[:d]))
    assert naive_rank(flat) == d


def _canonical(m: Mat) -> bool:
    return all(_entry_ok(m.field, x) for row in m.entries for x in row)


@PROPERTY
@given(st.data())
def test_every_result_is_in_canonical_form(data):
    # rationals stay ints while they are integral, whatever the route
    m = data.draw(matrices())
    F = m.field
    other = data.draw(matrices(F, rows=m.cols))
    assert _canonical(rref(m)[0]) and _canonical(m.mul(other))
    assert _canonical(kernel_basis(m)) and _canonical(column_span(m)[0])
    assert _canonical(coker_projection(m)[0])
    assert all(_entry_ok(F, x) for x in m.apply((F.one,) * m.cols))
    b = Mat(F, m.rows, other.cols, tuple(map(tuple, naive_mul(m, other))))
    assert _canonical(solve_matrix(m, b))
    if m.rows == m.cols:
        inv = inverse(m)
        assert inv is None or _canonical(inv)
        assert all(_entry_ok(F, c) for c in min_poly(m))
    xs = [x for row in m.entries for x in row][:6] + [F.zero, F.one]
    for x in xs:
        assert _entry_ok(F, x) and _entry_ok(F, F.neg(x))
        if not F.is_zero(x):
            assert _entry_ok(F, F.inv(x)) and F.mul(x, F.inv(x)) == 1
        for y in xs:
            for op in (F.add, F.sub, F.mul):
                assert _entry_ok(F, op(x, y))
            if not F.is_zero(y):
                assert _entry_ok(F, F.div(x, y))


def test_of_gives_the_canonical_form():
    assert [type(QQ.of(x)) for x in (Fraction(4, 2), 3, "6/3", "-0")] == \
        [int] * 4
    assert QQ.of("3/6") == Fraction(1, 2) and type(QQ.zero) is type(QQ.one) is int
    assert QQ.inv(-1) == -1 and QQ.inv(Fraction(1, 3)) == 3
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert GF(7).of("10") == 3


def test_rank_reduces_unreduced_gf_p_entries():
    # a Mat checks nothing: 3 is 0 in GF(3), so it is no pivot
    m = Mat(GF(3), 2, 2, ((3, 0), (0, 1)))
    assert rank(m) == 1
    assert rref(m) == (Mat(GF(3), 2, 2, ((0, 1), (0, 0))), (1,))
    assert kernel_basis(m).entries == ((1,), (0,))


@st.composite
def unreduced(draw, m: Mat):
    """m with each GF(p) entry shifted by a multiple of p, negative too."""
    p = m.field.char
    return Mat(m.field, m.rows, m.cols,
               tuple(tuple(x + p * draw(st.integers(-3, 3)) for x in row)
                     for row in m.entries))


@PROPERTY
@given(st.data())
def test_unreduced_gf_p_input_reads_as_its_reduction(data):
    F = data.draw(st.sampled_from([F for F in FIELDS if F.char]))
    m = data.draw(matrices(F))
    u = data.draw(unreduced(m))
    assert rank(u) == rank(m) == naive_rank(m)
    assert rref(u) == rref(m)
    assert kernel_basis(u) == kernel_basis(m)
    x = data.draw(matrices(F, rows=m.cols))
    b = Mat(F, m.rows, x.cols, tuple(map(tuple, naive_mul(m, x))))
    assert solve_matrix(u, data.draw(unreduced(b))) == solve_matrix(m, b)


# ---------------------------------------------------------------------------
# Mat and Arrow are slotted values: ==, hash, repr, order and dict lookup are
# those of the frozen dataclasses they replaced (tests/oracles.py)


def _twins_agree(news, olds, fields):
    """Each new value against its frozen twin, pairwise and as dict keys."""
    for a, A in zip(news, olds):
        assert hash(a) == hash(A) and repr(a) == repr(A)
        assert a != fields(a) and not a == fields(a) and A != fields(A)
        for b, B in zip(news, olds):
            assert (a == b, a != b) == (A == B, A != B)
    index = {a: i for i, a in enumerate(news)}
    twin_index = {A: i for i, A in enumerate(olds)}
    assert len(index) == len(twin_index)
    assert [index[a] for a in news] == [twin_index[A] for A in olds]


@st.composite
def value_mats(draw):
    """Mats over QQ with int and Fraction entries and over GF(7), 0 x n and
    n x 0 among them, each with a copy built from fresh tuples."""
    F = draw(st.sampled_from((QQ, GF(7))))
    r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entry = st.integers(0, 6) if F.char else st.one_of(
        st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    rows = draw(st.lists(st.tuples(*[entry] * c), min_size=r, max_size=r))
    m = Mat(F, r, c, tuple(rows))
    return [m, Mat(F, r, c, tuple(tuple(list(row)) for row in rows))]


@PROPERTY
@given(st.lists(value_mats(), min_size=1, max_size=4))
def test_mat_value_semantics_match_the_frozen_dataclass(pairs):
    news = [m for pair in pairs for m in pair]
    olds = [FrozenMat(m.field, m.rows, m.cols, m.entries) for m in news]
    _twins_agree(news, olds, lambda m: (m.field, m.rows, m.cols, m.entries))


VERTICES = st.one_of(st.integers(-2, 2), st.sampled_from("ab"),
                     st.tuples(st.sampled_from("ab"), st.integers(0, 2)))


@PROPERTY
@given(st.lists(st.tuples(VERTICES, VERTICES, st.sampled_from(("x", "1>2"))),
                min_size=1, max_size=8))
def test_arrow_value_semantics_match_the_frozen_dataclass(triples):
    news = [Arrow(*t) for t in triples] + [Arrow(*t) for t in triples]
    olds = [FrozenArrow(*t) for t in triples] * 2
    _twins_agree(news, olds, lambda a: (a.src, a.dst, a.label))
    as_triples = [(a.src, a.dst, a.label) for a in sorted(news)]
    assert as_triples == [(a.src, a.dst, a.label) for a in sorted(olds)]


# ---------------------------------------------------------------------------
# the kernels back-substitute through the forward elimination: the same
# canonical bases as the rows read off rref, with no rref called

KERNEL_FIELDS = (QQ, GF(2), GF(3), GF(7))


@st.composite
def kernel_matrices(draw):
    """Dense or mostly-zero matrices of up to 7 rows and 7 columns, 0 of
    either included, over Q (ints and fractions) and GF(2), GF(3), GF(7)."""
    F = draw(st.sampled_from(KERNEL_FIELDS))
    r, c = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    value = st.integers(1, F.char - 1) if F.char else st.one_of(
        st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))
    zeros = 4 if draw(st.booleans()) else 1  # mostly zero, or dense
    entry = st.one_of(*[st.just(0)] * zeros, value)
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return Mat(F, r, c, tuple(tuple(F.of(x) for x in row) for row in rows))


def _typed(entries):
    """Entries with their types: an int and an equal Fraction compare equal,
    and the canonical form is part of what the kernels return."""
    return [[(type(x), x) for x in row] for row in entries]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kernel_matrices())
def test_kernels_are_the_rows_read_off_rref(m):
    F = m.field
    rows, free = null_rows_by_rref(m)
    K, kfree = kernel_span(m)
    assert kfree == free
    assert _typed(K.entries) == \
        _typed(Mat.from_columns(F, m.cols, rows).entries)
    assert _typed(kernel_basis(m).entries) == _typed(K.entries)
    assert all(x == 0 for row in naive_mul(m, K) for x in row)
    trows, tfree = null_rows_by_rref(m.transpose())
    P, pfree = coker_projection(m)
    assert pfree == tfree and _typed(P.entries) == _typed(trows)
    assert all(x == 0 for row in naive_mul(P, m) for x in row)


def test_kernels_do_not_call_rref(monkeypatch):
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(m) or real(m))
    rng = random.Random(5)
    for F in KERNEL_FIELDS:
        for rows, cols in ((0, 3), (3, 0), (4, 6), (6, 4)):
            m = rmat(rng, rows, cols, F)
            kernel_basis(m), kernel_span(m), coker_projection(m)
    assert calls == []
    column_span(m)  # the spy sees a reader of rref
    assert calls == [m.transpose()]
