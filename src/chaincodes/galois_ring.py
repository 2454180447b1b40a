"""Galois rings Z_M[y]/<F(y)> on integer tuples, and the cyclic algebra over them.

With M = p and F primitive mod p this is the residue field F_{p^d}; with
M = p^n and F basic primitive it is the Galois ring GR(p^n, d).  The
idempotent system is computed in these rings alone: a DFT over F_{p^(rs)},
then Newton lifts over GR(p^n, r), so the chain-ring extension of
polyfactory is never formed on that path.
"""

from __future__ import annotations

from . import intpoly
from .errors import ParameterError


class GaloisRing:
    """Z_M[y]/<F(y)> for a monic F; elements are d-tuples of ints in [0, M)."""

    def __init__(self, modulus, F):
        F = [int(c) % modulus for c in F]
        if len(F) < 2 or F[-1] != 1:
            raise ParameterError("F must be monic of positive degree")
        self.m, self.F, self.d = modulus, F, len(F) - 1
        self.zero = (0,) * self.d
        self.one = self.scalar(1)

    def scalar(self, c):
        return (c % self.m,) + (0,) * (self.d - 1)

    def reduce(self, coeffs):
        """The element given by an integer list in y of any length."""
        rest = intpoly.pdivmod_monic(coeffs, self.F, self.m)[1]
        return tuple(rest) + (0,) * (self.d - len(rest))

    def add(self, a, b):
        return tuple((x + y) % self.m for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.m for x, y in zip(a, b))

    def mul(self, a, b):
        return self.reduce(intpoly.pmul(a, b, self.m))

    def pow(self, a, e):
        result, acc = self.one, a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result


def root_product(gr, roots):
    """prod (X - root) over the given roots, low coefficients first."""
    poly = [gr.one]
    for root in roots:
        out = [gr.zero] + poly
        for k, c in enumerate(poly):
            out[k] = gr.sub(out[k], gr.mul(root, c))
        poly = out
    return poly


def cyclic_mul(gr, a, b, N):
    """a*b in gr[X]/<X^N - 1>.

    a and b are flat lists of reduced ints whose entry j*d + t is the y^t part
    of the X^j coefficient.  One integer product does all the work (Kronecker
    substitution): each (X^j, y^t) gets a slot wide enough for its whole sum.
    """
    d, m = gr.d, gr.m
    span = 2 * d - 1
    width = ((N * d * (m - 1) ** 2).bit_length() + 8) // 8

    def pack(v):
        buf = bytearray(N * span * width)
        for j in range(N):
            for t in range(d):
                c = v[j * d + t]
                if c:
                    pos = (j * span + t) * width
                    buf[pos : pos + width] = c.to_bytes(width, "little")
        return int.from_bytes(buf, "little")

    raw = (pack(a) * pack(b)).to_bytes((2 * N - 1) * span * width, "little")
    wide = [0] * (N * span)
    for slot in range((2 * N - 1) * span):
        c = int.from_bytes(raw[slot * width : (slot + 1) * width], "little")
        if c:
            wide[slot % (N * span)] += c
    if d == 1:
        return [c % m for c in wide]
    out = []
    for j in range(N):
        out.extend(gr.reduce(wide[j * span : (j + 1) * span]))
    return out


def lift_idempotent(gr, ebar, N, p):
    """The idempotent of gr[X]/<X^N - 1> that reduces to ebar mod p.

    e <- 3e^2 - 2e^3 takes an idempotent mod p^k to one mod p^2k.
    """
    e = [c % gr.m for c in ebar]
    precision = p
    while precision < gr.m:
        e2 = cyclic_mul(gr, e, e, N)
        e3 = cyclic_mul(gr, e2, e, N)
        e = [(3 * x - 2 * y) % gr.m for x, y in zip(e2, e3)]
        precision *= precision
    return e


def _mulmod(gr, a, b, F):
    """a*b mod the monic F, all polynomials lists of gr elements."""
    kappa = len(F) - 1
    wide = [gr.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != gr.zero:
            for j, y in enumerate(b):
                wide[i + j] = gr.add(wide[i + j], gr.mul(x, y))
    for k in range(len(wide) - 1, kappa - 1, -1):
        c = wide[k]
        if c != gr.zero:
            for t in range(kappa):
                wide[k - kappa + t] = gr.sub(wide[k - kappa + t], gr.mul(c, F[t]))
    wide = wide[:kappa]
    return wide + [gr.zero] * (kappa - len(wide))


def _one_mod(gr, F):
    return [gr.one] + [gr.zero] * (len(F) - 2)


def x_power_mod(gr, e, F):
    """X^e mod the monic F (of degree at least 1), as its low coefficients.

    e multiplications by X, so O(e deg F) ring products: less than square
    and multiply for the low-degree factors of X^N - 1 this is used on.
    """
    cur = _one_mod(gr, F)
    for _ in range(e):
        top = cur[-1]
        cur = [gr.zero] + cur[:-1]
        if top != gr.zero:
            cur = [gr.sub(c, gr.mul(top, fc)) for c, fc in zip(cur, F)]
    return cur


def divides_xn1(gr, F, N):
    """Whether the monic F divides X^N - 1 over gr."""
    return x_power_mod(gr, N, F) == _one_mod(gr, F)


def lift_divisor(gr, fbar, N, p):
    """The monic divisor of X^N - 1 over gr that reduces to fbar mod p.

    Newton-Hensel on the factor alone.  From X^N - 1 = F G and the derivative
    N X^(N-1) = F' G mod F, the cofactor inverts as G^-1 = X F'(X) / N mod F,
    so F <- F + ((X^N - 1) mod F) * X F' / N mod F takes a divisor exact mod
    p^k to one exact mod p^2k.  fbar must be a monic divisor of X^N - 1 mod
    p, coprime to its cofactor (gcd(N, p) = 1 makes X^N - 1 squarefree).
    """
    F = [gr.reduce(c) for c in fbar]
    kappa = len(F) - 1
    n_inv = gr.scalar(pow(N, -1, gr.m))
    one = _one_mod(gr, F)
    precision = p
    while precision < gr.m:
        rem = [gr.sub(a, b) for a, b in zip(x_power_mod(gr, N, F), one)]
        x_deriv = [gr.zero] + [gr.mul(gr.scalar(t), F[t]) for t in range(1, kappa + 1)]
        inv_cofactor = _mulmod(gr, x_deriv, [n_inv], F)
        delta = _mulmod(gr, rem, inv_cofactor, F)
        F = [gr.add(c, dc) for c, dc in zip(F, delta)] + [F[-1]]
        precision *= precision
    return F
