"""Polynomials with chain-ring coefficients (little-endian element lists).

Thin functional layer: a polynomial is just a list of ring elements.  The
cyclic variants work mod X^N - 1, which is where codes of length N live.
"""

from .errors import ParameterError


def trim(a):
    a = list(a)
    while a and a[-1].is_zero():
        a.pop()
    return a


def pad(ring, a, n):
    return list(a) + [ring.zero] * (n - len(a))


def padd(ring, a, b):
    n = max(len(a), len(b))
    a, b = pad(ring, a, n), pad(ring, b, n)
    return [x + y for x, y in zip(a, b)]


def pscale(a, c):
    return [x * c for x in a]


def pmul(ring, a, b):
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    out = [ring.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def pmul_mod_xn1(ring, a, b, n):
    """Product in R[X]/<X^N - 1>, returned as a length-N vector."""
    out = [ring.zero] * n
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                idx = (i + j) % n
                out[idx] = out[idx] + x * y
    return out


def peval(ring, a, x):
    acc = ring.zero
    for c in reversed(a):
        acc = acc * x + c
    return acc


def pdivmod_monic(ring, a, b):
    """Long division by a monic polynomial over the ring."""
    b = trim(b)
    if not b or b[-1] != ring.one:
        raise ParameterError("divisor must be monic")
    r = list(a)
    db = len(b) - 1
    if db == 0:
        return list(a), []
    q = [ring.zero] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if not c.is_zero():
            q[i - db] = c
            for j in range(db + 1):
                r[i - db + j] = r[i - db + j] - c * b[j]
    return q, trim(r)


def mu_reverse(ring, a, n):
    """The involution a(X) -> X^N a(1/X) on length-N vectors: index j -> N - j."""
    a = pad(ring, a, n)
    return [a[0]] + [a[n - j] for j in range(1, n)]


def shift_mod_xn1(ring, a, e, n):
    a = pad(ring, a, n)
    e %= n
    return [a[(j - e) % n] for j in range(n)]


def poly_eq(a, b):
    return trim(a) == trim(b)
