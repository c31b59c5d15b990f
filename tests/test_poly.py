"""Exact univariate factoring (arknit.poly) and the idempotents it yields.

The properties check factorizations with naive arithmetic written here; the
oracle test compares factor lists and idempotents with sympy when it is
installed, multiplying in the algebra with naive table arithmetic written
here too.
"""
import itertools
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arknit import poly
from arknit.hom import (EndAlgebra, _candidate_elements, _find_idempotent,
                        end_algebra)
from arknit.linalg import GF, QQ, Mat, min_poly
from arknit.rep import direct_sum, injective_at, projective_at, simple_at

FIELDS = (QQ, GF(2), GF(3), GF(7))


# ---------------------------------------------------------------------------
# naive polynomial arithmetic, low-first coefficient lists


def _norm(F, f):
    f = [F.of(c) for c in f]
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def naive_mul(F, f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _norm(F, out)


def naive_div(F, a, b):
    return F.of(Fraction(a) / b)


def naive_rem(F, f, g):
    r = list(f)
    while len(r) >= len(g):
        c = naive_div(F, r[-1], g[-1])
        shift = len(r) - len(g)
        for j, b in enumerate(g):
            r[shift + j] = F.sub(r[shift + j], F.mul(c, b))
        r = list(_norm(F, r))
    return tuple(r)


def naive_gcd(F, f, g):
    """Monic gcd of f and g, not both zero, by Euclid's algorithm."""
    while g:
        f, g = g, naive_rem(F, f, g)
    return monic(F, f)


def naive_coprime(F, f, g):
    return len(naive_gcd(F, f, g)) == 1


def monic(F, f):
    return _norm(F, [naive_div(F, c, f[-1]) for c in f])


def has_rational_root(f):
    """Rational root test on the primitive integer form of f."""
    d = math.lcm(*[Fraction(c).denominator for c in f])
    ints = [int(Fraction(c) * d) for c in f]
    if ints[0] == 0:
        return True
    divisors = [k for k in range(1, abs(ints[0]) + 1) if ints[0] % k == 0]
    leads = [k for k in range(1, abs(ints[-1]) + 1) if ints[-1] % k == 0]
    return any(sum(c * r ** i for i, c in enumerate(ints)) == 0
               for a, b in itertools.product(divisors, leads)
               for r in (Fraction(a, b), Fraction(-a, b)))


def is_irreducible(F, f):
    """Trial division by every monic polynomial of degree <= deg/2 over
    GF(p); the rational root test in degree <= 3 over Q (None: unchecked)."""
    d = len(f) - 1
    if F.char:
        for k in range(1, d // 2 + 1):
            for low in itertools.product(range(F.char), repeat=k):
                if not naive_rem(F, f, low + (1,)):
                    return False
        return True
    if d <= 3:
        return d == 1 or not has_rational_root(f)
    return None


# ---------------------------------------------------------------------------
# sympy-free properties


@st.composite
def products(draw):
    """(F, f): f a product of random polynomials of degree <= 4 with
    multiplicities, times a nonzero scalar."""
    F = draw(st.sampled_from(FIELDS + (GF(5),)))
    coeff = (st.integers(0, F.char - 1) if F.char
             else st.fractions(-6, 6, max_denominator=4))
    f = (F.one,)
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(1, 4))
        g = tuple(draw(st.lists(coeff, min_size=d, max_size=d))) + \
            (draw(coeff.filter(lambda c: c != 0)),)
        for _ in range(draw(st.integers(1, 3))):
            f = naive_mul(F, f, _norm(F, g))
    scale = draw(coeff.filter(lambda c: c != 0))
    return F, naive_mul(F, f, (F.of(scale),))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(products())
def test_factor_is_an_irreducible_coprime_factorization(case):
    F, f = case
    factors = poly.factor(F, f)
    prod = (F.one,)
    for g, e in factors:
        assert g[-1] == 1 and len(g) > 1 and e >= 1
        assert is_irreducible(F, g) is not False
        for _ in range(e):
            prod = naive_mul(F, prod, g)
    assert prod == monic(F, f)
    for (g, _), (h, _) in itertools.combinations(factors, 2):
        assert naive_coprime(F, g, h)
    assert [(len(g), e) for g, e in factors] == \
        sorted((len(g), e) for g, e in factors)


def _from_high(F, *coeffs):
    return tuple(F.of(c) for c in reversed(coeffs))


def test_factor_order_is_sympys():
    # orders sympy 1.14 gives: residues in [0, p) over GF(p), the primitive
    # integer form over Q
    F = GF(7)
    assert poly.factor(F, _from_high(F, 1, 0, -1)) == \
        [(_from_high(F, 1, 1), 1), (_from_high(F, 1, -1), 1)]
    assert poly.factor(QQ, _from_high(QQ, 1, 0, -5, 0, 4)) == \
        [(_from_high(QQ, 1, r), 1) for r in (-2, -1, 1, 2)]
    assert poly.factor(QQ, _from_high(QQ, 1, -1, 0, 0)) == \
        [(_from_high(QQ, 1, -1), 1), (_from_high(QQ, 1, 0), 2)]
    # (x + 1)(2x - 1): x + 1 sorts first although x - 1/2 is smaller monic
    assert poly.factor(QQ, _from_high(QQ, 2, 1, -1)) == \
        [(_from_high(QQ, 1, 1), 1), (_from_high(QQ, 1, Fraction(-1, 2)), 1)]


def test_factor_splits_two_cubics_over_gf2():
    # x^3+x+1 and x^3+x^2+1 have the same degree, so only the equal-degree
    # split separates them; over GF(2) it uses the trace a + a^2 + a^4
    F = GF(2)
    g, h = _from_high(F, 1, 0, 1, 1), _from_high(F, 1, 1, 0, 1)
    assert poly.factor(F, naive_mul(F, g, h)) == [(g, 1), (h, 1)]


def test_gcdex_and_div():
    for F in FIELDS:
        rng = random.Random(F.char)
        for _ in range(30):
            f = _norm(F, [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
            g = _norm(F, [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
            if not g:
                continue
            q, r = poly.div(F, f, g)
            assert len(r) < len(g)
            assert _norm(F, [a + b for a, b in itertools.zip_longest(
                naive_mul(F, q, g), r, fillvalue=0)]) == f
            s, t, h = poly.gcdex(F, f, g)
            assert h == naive_gcd(F, f, g)
            assert not naive_rem(F, f, h) and not naive_rem(F, g, h)
            assert _norm(F, [a + b for a, b in itertools.zip_longest(
                naive_mul(F, s, f), naive_mul(F, t, g), fillvalue=0)]) == h


# ---------------------------------------------------------------------------
# naive arithmetic in an algebra given by its structure table


def table_mul(E, x, y):
    """x o y, summing x_i y_j table[i][j] term by term."""
    F = E.obj.field
    out = [F.zero] * E.dimension
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            for r, t in enumerate(E.table[i][j]):
                out[r] = F.add(out[r], F.mul(F.mul(a, b), t))
    return tuple(out)


def left_mult_columns(E, x):
    """The matrix of y -> x o y: column j holds x o basis[j]."""
    F = E.obj.field
    n = E.dimension
    cols = [table_mul(E, x, tuple(F.one if t == j else F.zero
                                  for t in range(n))) for j in range(n)]
    return Mat(F, n, n, tuple(zip(*cols)))


def power_sum(E, coeffs, x):
    """sum of coeffs[k] x^k (low first), with x^0 the identity."""
    F = E.obj.field
    acc = tuple(F.zero for _ in range(E.dimension))
    power = E.identity
    for c in coeffs:
        acc = tuple(F.add(a, F.mul(F.of(c), p)) for a, p in zip(acc, power))
        power = table_mul(E, power, x)
    return acc


# ---------------------------------------------------------------------------
# idempotents of F[x]/(f): the candidate x has minimal polynomial f


def quotient_algebra(F, f):
    """EndAlgebra-shaped F[x]/(f) on the basis 1, x, ..., x^(n-1)."""
    f = monic(F, f)
    n = len(f) - 1

    def coords(i):
        r = naive_rem(F, tuple(F.zero for _ in range(i)) + (F.one,), f)
        return tuple(r) + (F.zero,) * (n - len(r))
    table = tuple(tuple(coords(i + j) for j in range(n)) for i in range(n))
    return EndAlgebra(SimpleNamespace(field=F), n, tuple(range(n)), table,
                      coords(0), (), False)


def test_recombination_cap_returns_uncertified_quickly():
    # (x-1)...(x-r) has r linear factors modulo its smallest good prime
    def roots(r):
        f = (QQ.one,)
        for k in range(1, r + 1):
            f = naive_mul(QQ, f, (QQ.of(-k), QQ.one))
        return f
    cap = poly.MAX_MODULAR_FACTORS
    start = time.perf_counter()
    assert poly.factor(QQ, roots(cap + 1)) is None
    assert _find_idempotent(quotient_algebra(QQ, roots(cap + 1))) is None
    assert time.perf_counter() - start < 5
    assert poly.factor(QQ, roots(cap)) == \
        [((QQ.of(-k), QQ.one), 1) for k in range(cap, 0, -1)]


def test_idempotent_of_a_split_quotient():
    F = GF(7)
    E = quotient_algebra(F, _from_high(F, 1, 0, -1))
    e = E.idempotent
    assert e is not None and table_mul(E, e, e) == e
    assert E.idempotent is e  # searched once


# ---------------------------------------------------------------------------
# sympy as an oracle


def _sympy_factor(sympy, F, f):
    x = sympy.Symbol("x")
    dom = {"modulus": F.char} if F.char else {"domain": sympy.QQ}
    P = sympy.Poly([sympy.Rational(c.numerator, c.denominator) if not F.char
                    else c for c in reversed(f)], x, **dom)
    return P, P.factor_list()[1]


def _sympy_monic(F, g):
    out = []
    for c in reversed(g.monic().all_coeffs()):
        out.append(F.of(int(c)) if F.char else
                   F.of(Fraction(int(c.p), int(c.q))))
    return tuple(out)


def sympy_idempotent(sympy, E):
    """_find_idempotent as computed with sympy's factor_list and gcdex."""
    F = E.obj.field
    for cand in _candidate_elements(E):
        P, factors = _sympy_factor(sympy, F,
                                   min_poly(left_mult_columns(E, cand)))
        if P.degree() == 1:  # a scalar multiple of the identity
            continue
        if len(factors) < 2:
            continue
        f0, e0 = factors[0]
        g = P.div(f0 ** e0)[0]
        s, _, _ = g.gcdex(f0 ** e0)
        idem_poly = (s * g).rem(P)
        coeffs = [F.of(int(c)) if F.char else
                  F.of(Fraction(int(c.p), int(c.q)))
                  for c in reversed(idem_poly.all_coeffs())]
        idem = power_sum(E, coeffs, cand)
        if all(F.is_zero(c) for c in idem) or idem == E.identity:
            continue
        assert table_mul(E, idem, idem) == idem
        return idem
    return None


def _random_factor(rng, F, d):
    if F.char:
        return _norm(F, [rng.randrange(F.char) for _ in range(d)] + [1])
    return _norm(F, [Fraction(rng.randint(-7, 7), rng.choice((1, 1, 2, 3)))
                     for _ in range(d)] + [rng.choice((1, 2, 3, -1))])


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_factor_and_idempotent_match_sympy(F):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1000 + F.char)
    for _ in range(80):
        f = (F.one,)
        for _ in range(rng.randint(1, 3)):
            g = _random_factor(rng, F, rng.randint(1, 4))
            for _ in range(rng.choice((1, 1, 2, 3))):
                f = naive_mul(F, f, g)
        _, ref = _sympy_factor(sympy, F, f)
        assert poly.factor(F, f) == [(_sympy_monic(F, g), e) for g, e in ref]
        if 2 < len(f) <= 6:
            E = quotient_algebra(F, f)
            assert _find_idempotent(E) == sympy_idempotent(sympy, E)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_end_algebra_idempotents_match_sympy(F, a3, kron):
    sympy = pytest.importorskip("sympy")
    objs = [
        direct_sum(projective_at(a3, 1, F), simple_at(a3, 2, F),
                   simple_at(a3, 2, F)),
        direct_sum(projective_at(a3, 1, F), injective_at(a3, 3, F),
                   projective_at(a3, 2, F), injective_at(a3, 2, F)),
        direct_sum(projective_at(kron, 2, F), projective_at(kron, 2, F),
                   simple_at(kron, 1, F)),
    ]
    for m in objs:
        E = end_algebra(m)
        assert E.idempotent == sympy_idempotent(sympy, E)
