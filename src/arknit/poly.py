"""Exact univariate polynomials over Q and over prime fields.

A polynomial is a tuple of field elements, lowest degree first, without
trailing zeros (the zero polynomial is ``()``): the format of
``linalg.min_poly``.  The public functions take the ``linalg.Field`` first.

``factor`` splits a polynomial into irreducibles: squarefree decomposition
first, then over GF(p) distinct-degree and equal-degree factoring
(Cantor-Zassenhaus, Math. Comp. 36, 1981), and over Q factoring modulo a
small prime, Hensel lifting and recombination of the modular factors
(Zassenhaus, J. Number Theory 1, 1969; von zur Gathen-Gerhard, Modern
Computer Algebra, ch. 14-15).

Internally a polynomial is a list or tuple of coefficients with a modulus
``m``: integers reduced mod ``m`` when ``m`` is nonzero, and exact rationals
when ``m`` is 0.
"""
from __future__ import annotations

import math
import random
from itertools import combinations

from .linalg import Field, _frac

# Over Q, recombination tries subsets of the modular factors, so its cost
# grows as 2^r in their number r; above this many, factor gives up.
MAX_MODULAR_FACTORS = 12


# ---------------------------------------------------------------------------
# arithmetic on coefficient lists, modulo m (exact over Q when m is 0)


def _red(f, m):
    """f reduced mod m (when m) with trailing zeros dropped, as a tuple."""
    f = [c % m for c in f] if m else list(f)
    while f and not f[-1]:
        f.pop()
    return tuple(f)


def _inv(a, m):
    return pow(a, -1, m) if m else _frac(a.denominator, a.numerator)


def _add(f, g, m, sign=1):
    """f + sign*g."""
    if len(f) < len(g):
        f = list(f) + [0] * (len(g) - len(f))
    out = list(f)
    for i, c in enumerate(g):
        out[i] += sign * c
    return _red(out, m)


def _mul(f, g, m):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _red(out, m)


def _divmod(f, g, m):
    """(q, r) with f = q*g + r and deg r < deg g; lc(g) must be a unit."""
    dg = len(g) - 1
    inv = _inv(g[-1], m)
    r = list(f)
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg] * inv
        if m:
            c %= m
        q[k] = c
        if c:
            for j, b in enumerate(g):
                r[k + j] -= c * b
    return _red(q, m), _red(r[:dg], m)


def _monic(f, m):
    inv = _inv(f[-1], m)
    return _red([c * inv for c in f], m)


def _gcd(f, g, m):
    """Monic gcd over a field (m a prime, or 0 for Q)."""
    while g:
        f, g = g, _divmod(f, g, m)[1]
    return _monic(f, m) if f else ()


def _gcdex(f, g, m):
    """(s, t, h) with s*f + t*g = h, the monic gcd, over a field."""
    r0, r1, s0, s1, t0, t1 = f, g, (1,), (), (), (1,)
    while r1:
        q, r = _divmod(r0, r1, m)
        r0, r1 = r1, r
        s0, s1 = s1, _add(s0, _mul(q, s1, m), m, -1)
        t0, t1 = t1, _add(t0, _mul(q, t1, m), m, -1)
    if not r0:
        return (), (), ()
    inv = _inv(r0[-1], m)
    return tuple(_red([c * inv for c in h], m) for h in (s0, t0, r0))


def _deriv(f, m):
    return _red([i * c for i, c in enumerate(f)][1:], m)


def _powmod(b, e, f, m):
    """b^e mod f."""
    out, b = (1,), _divmod(b, f, m)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, b, m), f, m)[1]
        e >>= 1
        if e:
            b = _divmod(_mul(b, b, m), f, m)[1]
    return out


# ---------------------------------------------------------------------------
# squarefree decomposition


def _sqf(f, p):
    """[(a, e)] with monic f = prod a^e, each a squarefree, nonconstant and
    coprime to the others, the e distinct.  The loop peels off the factors
    whose multiplicity is prime to p; what is left is a p-th power in
    characteristic p, decomposed through its p-th root."""
    out = []
    c = _gcd(f, _deriv(f, p), p)
    w = _divmod(f, c, p)[0]
    e = 1
    while len(w) > 1:
        y = _gcd(w, c, p)
        a = _divmod(w, y, p)[0]
        if len(a) > 1:
            out.append((a, e))
        w, c, e = y, _divmod(c, y, p)[0], e + 1
    if len(c) > 1:
        # f' vanishes on c, so c = r(x^p) and c = r^p over GF(p)
        out += [(a, k * p) for a, k in _sqf(c[::p], p)]
    return out


# ---------------------------------------------------------------------------
# factoring a squarefree polynomial over GF(p)


def _distinct_degree(f, p):
    """[(g, d)]: g the product of the irreducible factors of degree d of the
    monic squarefree f."""
    out = []
    x = h = (0, 1)
    d = 1
    while 2 * d < len(f):
        h = _powmod(h, p, f, p)
        g = _gcd(_add(h, x, p, -1), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
        d += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d, p, rng):
    """The irreducible factors of f, a monic squarefree product of factors
    of degree d, split by random gcds (Cantor-Zassenhaus)."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _red([rng.randrange(p) for _ in range(n)], p)
        if len(a) < 2:
            continue
        if p == 2:
            b, t = a, a
            for _ in range(d - 1):
                t = _divmod(_mul(t, t, p), f, p)[1]
                b = _add(b, t, p)
        else:
            b = _add(_powmod(a, (p ** d - 1) // 2, f, p), (1,), p, -1)
        g = _gcd(b, f, p)
        if 1 < len(g) < len(f):
            return (_equal_degree(g, d, p, rng)
                    + _equal_degree(_divmod(f, g, p)[0], d, p, rng))


def _factor_mod_p(f, p):
    """Monic irreducible factors of the monic squarefree f over GF(p)."""
    rng = random.Random(0)
    return [g for part, d in _distinct_degree(f, p)
            for g in _equal_degree(part, d, p, rng)]


# ---------------------------------------------------------------------------
# factoring a squarefree integer polynomial


def _primes():
    p = 2
    while True:
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def _symmetric(f, m):
    return tuple(c - m if 2 * c > m else c for c in f)


def _primitive(f):
    """f over its content, with a positive leading coefficient."""
    c = math.gcd(*f)
    if f[-1] < 0:
        c = -c
    return tuple(x // c for x in f)


def _exact_quotient(f, g):
    """q with f = q*g over Z, or None."""
    dg, lc = len(g) - 1, g[-1]
    r = list(f)
    q = [0] * (len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + dg], lc)
        if rem:
            return None
        q[k] = c
        if c:
            for j, b in enumerate(g):
                r[k + j] -= c * b
    return None if any(r[:dg]) else tuple(q)


def _hensel_step(f, g, h, s, t, m):
    """From f = g*h and s*g + t*h = 1 mod m, h monic, the same mod m^2
    (von zur Gathen-Gerhard, Algorithm 15.10)."""
    M = m * m
    e = _add(f, _mul(g, h, M), M, -1)
    q, r = _divmod(_mul(s, e, M), h, M)
    g = _add(g, _add(_mul(t, e, M), _mul(q, g, M), M), M)
    h = _add(h, r, M)
    b = _add(_add(_mul(s, g, M), _mul(t, h, M), M), (1,), M, -1)
    c, d = _divmod(_mul(s, b, M), h, M)
    s = _add(s, d, M, -1)
    t = _add(t, _add(_mul(t, b, M), _mul(c, g, M), M), M, -1)
    return g, h, s, t


def _hensel_lift(f, mods, p, M):
    """Monic h_i = mods[i] mod p with f = lc(f) * prod h_i mod M, a power of
    p; the mods are the monic factors of f mod p, pairwise coprime."""
    if len(mods) == 1:
        return [_monic(_red(f, M), M)]
    k = len(mods) // 2
    g = (f[-1] % p,)
    for a in mods[:k]:
        g = _mul(g, a, p)
    h = (1,)
    for a in mods[k:]:
        h = _mul(h, a, p)
    s, t, _ = _gcdex(g, h, p)
    m = p
    while m < M:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return (_hensel_lift(_red(g, M), mods[:k], p, M)
            + _hensel_lift(_red(h, M), mods[k:], p, M))


def _factor_sqf_zz(f):
    """Irreducible factors of a primitive squarefree integer polynomial with
    positive leading coefficient, primitive with positive leading
    coefficients; None above MAX_MODULAR_FACTORS modular factors."""
    if len(f) <= 2:
        return [f]
    lc = f[-1]
    for p in _primes():
        fp = _red(f, p)
        if len(fp) == len(f) and len(_gcd(fp, _deriv(fp, p), p)) == 1:
            break
    mods = _factor_mod_p(_monic(fp, p), p)
    if len(mods) == 1:
        return [f]
    if len(mods) > MAX_MODULAR_FACTORS:
        return None
    # a factor of f, scaled to leading coefficient lc, has coefficients of
    # absolute value at most lc * 2^deg * |f|_2 (Mignotte)
    bound = lc * 2 ** (len(f) - 1) * (math.isqrt(sum(c * c for c in f)) + 1)
    M = p
    while M <= 2 * bound:
        M *= p
    lifted = _hensel_lift(f, mods, p, M)
    out = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = (lc,)
            for i in subset:
                g = _mul(g, lifted[i], M)
            g = _primitive(_symmetric(g, M))
            q = _exact_quotient(f, g)
            if q is not None:
                out.append(g)
                f, lc = q, q[-1]
                lifted = [a for i, a in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


# ---------------------------------------------------------------------------
# public interface


def _out(F: Field, f) -> tuple:
    return tuple(F.of(c) for c in f)


def mul(F: Field, f, g) -> tuple:
    return _out(F, _mul(_red(f, F.char), _red(g, F.char), F.char))


def div(F: Field, f, g) -> tuple:
    """(quotient, remainder) of f by a nonzero g."""
    q, r = _divmod(_red(f, F.char), _red(g, F.char), F.char)
    return _out(F, q), _out(F, r)


def gcdex(F: Field, f, g) -> tuple:
    """(s, t, h) with s*f + t*g = h, the monic gcd of f and g."""
    return tuple(_out(F, a)
                 for a in _gcdex(_red(f, F.char), _red(g, F.char), F.char))


def factor(F: Field, f):
    """Factorization of a nonzero polynomial into monic irreducibles, as a
    list of (factor, multiplicity); None over Q when a squarefree part has
    more than MAX_MODULAR_FACTORS factors modulo its prime (uncertified).

    The list is in the order of sympy's ``Poly.factor_list``: by degree,
    then multiplicity, then coefficients from the top down, where over Q a
    factor is compared in its primitive integer form with a positive
    leading coefficient and over GF(p) as residues in [0, p).
    """
    p = F.char
    factors = []
    for a, e in _sqf(_monic(_red(f, p), p), p):
        if p:
            parts = _factor_mod_p(a, p)
        else:
            d = math.lcm(*[c.denominator for c in a])
            parts = _factor_sqf_zz(_primitive([int(c * d) for c in a]))
            if parts is None:
                return None
        factors += [(g, e) for g in parts]
    factors.sort(key=lambda ge: (len(ge[0]), ge[1], ge[0][::-1]))
    return [(_out(F, _monic(g, p)), e) for g, e in factors]
