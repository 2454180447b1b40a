"""Exact arithmetic in finite commutative chain rings.

A ring here is R = Z_{p^n}[w][x] / <g(x), p^(n-1) x^t>, where g(x) = x^k +
p*(a_{k-1} x^{k-1} + ... + a_0) with a_0 a unit (Eisenstein shape) and w is a
root of a basic primitive polynomial f of degree r over Z_{p^n}.  Every
element has a unique integer grid a[i][j] <-> sum a_{i,j} w^i x^j with
a_{i,j} in [0, p^n) for j < t and [0, p^(n-1)) for j >= t; that grid is the
canonical form used for equality and hashing.  The maximal ideal is <x>, the
nilpotency index of x is m = k(n-1) + t, and |R| = p^(r*m).

The rank-1 subring S = Z_{p^n}[x] / <g(x), p^(n-1) x^t> sits inside R as the
grid rows with w-degree zero; frobenius() generates the automorphisms of R
fixing S and trace_to_base() sums its powers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, NotAUnitError, ParameterError, RingMismatchError
from .intpoly import fp_is_irreducible, fp_is_primitive, is_prime

_CHAR_CAP = 2**31  # machine-word residues only; p^n beyond this is refused


@dataclass(frozen=True)
class RingParams:
    """Defining tuple (p, n, r, k, t, g, f) of a chain ring."""

    p: int
    n: int
    r: int
    k: int
    t: int
    g_tail: tuple
    f: tuple | None = None


class ChainRingElement:
    """One ring element, stored as its canonical coefficient grid."""

    __slots__ = ("ring", "grid", "_hash")

    def __init__(self, ring, grid):
        self.ring = ring
        self.grid = grid
        self._hash = None

    def __repr__(self):
        terms = []
        for i, row in enumerate(self.grid):
            for j, c in enumerate(row):
                if c == 0:
                    continue
                part = "" if (c == 1 and (i or j)) else str(c)
                if i:
                    part += "w" if i == 1 else f"w^{i}"
                if j:
                    part += "x" if j == 1 else f"x^{j}"
                terms.append(part)
        return "<%s in %s>" % (" + ".join(terms) or "0", self.ring.short_name())

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, ChainRingElement):
            return NotImplemented
        return self.ring == other.ring and self.grid == other.grid

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.key, self.grid))
        return self._hash

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.from_int(other)
        if not isinstance(other, ChainRingElement):
            raise RingMismatchError(f"cannot combine ring element with {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError("elements live in different rings")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        ring = self.ring
        grid = tuple(
            tuple((a + b) % ring.col_mod[j] for j, (a, b) in enumerate(zip(ra, rb)))
            for ra, rb in zip(self.grid, other.grid)
        )
        return ChainRingElement(ring, grid)

    __radd__ = __add__

    def __neg__(self):
        ring = self.ring
        grid = tuple(
            tuple((-a) % ring.col_mod[j] for j, a in enumerate(row)) for row in self.grid
        )
        return ChainRingElement(ring, grid)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self.ring.from_int(other)

    def __mul__(self, other):
        other = self._coerce(other)
        return self.ring._mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.invert() ** (-e)
        result = self.ring.one
        acc = self
        while e:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result

    def is_zero(self):
        return all(c == 0 for row in self.grid for c in row)

    def is_unit(self):
        """Units are exactly the elements outside <x>."""
        p = self.ring.p
        return any(row[0] % p for row in self.grid)

    def invert(self):
        return self.ring._invert(self)

    def x_valuation(self):
        """Largest v with self in <x^v>; the zero element returns m."""
        return self.ring._x_valuation(self)

    def frobenius(self):
        return self.ring.frobenius(self)

    def trace(self):
        return self.ring.trace_to_base(self)

    def to_json(self):
        return [list(row) for row in self.grid]


class ChainRing:
    """Descriptor of one chain ring, with all derived tables precomputed."""

    def __init__(self, p, n, r, k, t, g_tail, f=None):
        if not is_prime(p):
            raise ParameterError(f"p = {p} is not prime")
        if n < 1 or r < 1 or k < 1:
            raise ParameterError("n, r, k must be positive")
        if n == 1:
            if t != k:
                raise ParameterError("t = k is forced when n = 1")
        elif not 1 <= t <= k:
            raise ParameterError(f"t = {t} out of range [1, {k}]")
        if p**n > _CHAR_CAP:
            raise ParameterError(f"characteristic p^n = {p**n} above cap {_CHAR_CAP}")
        if len(g_tail) != k:
            raise ParameterError(f"g_tail must list {k} coefficients")

        self.p, self.n, self.r, self.k, self.t = p, n, r, k, t
        self.pn = p**n
        self.pn1 = p ** (n - 1)
        self.g_tail = tuple(int(a) % self.pn1 for a in g_tail)
        if n >= 2 and self.g_tail[0] % p == 0:
            raise ParameterError("a_0 must be a unit mod p (Eisenstein condition)")
        self.m = k * (n - 1) + t
        self.log_p_card = r * self.m
        self.card = p**self.log_p_card
        self.col_mod = tuple(self.pn if j < t else self.pn1 for j in range(k))

        if f is None:
            from .polyfactory import find_basic_primitive_poly

            f = find_basic_primitive_poly(p, n, r)
        f = tuple(int(c) % self.pn for c in f)
        if len(f) != r + 1 or f[-1] != 1:
            raise ParameterError("f must be monic of degree r")
        fbar = [c % p for c in f]
        if not fp_is_irreducible(fbar, p):
            raise ParameterError("f is not basic irreducible (reducible mod p)")
        if not fp_is_primitive(fbar, p):
            raise ParameterError("f is not basic primitive (mod-p image not primitive)")
        self.f = f

        self.key = (p, n, r, k, t, self.g_tail, self.f)
        # w^r folds to this row, x^k folds to this row (each x-fold gains a p)
        self._f_fold = tuple((-c) % self.pn for c in f[:r])
        self._x_fold = tuple((-p * a) % self.pn for a in self.g_tail)

        self.zero = ChainRingElement(self, tuple(tuple(0 for _ in range(k)) for _ in range(r)))
        self.one = self.from_int(1)
        if k == 1:
            # no x-column of its own: x = -p*a_0 through the fold rule
            self.x = self.from_int(self._x_fold[0])
        else:
            self.x = self.element_from_term(0, 1, 1)
        self.omega = self.element_from_term(1, 0, 1) if r > 1 else self._rank1_omega()

        if self.omega ** (p**r - 1) != self.one:
            raise ParameterError("f is not basic primitive (root order below p^r - 1)")

        self._x_pows = self._powers(self.x, self.m)
        self._frob_pows = None
        self._w_inv = None
        self._subring = None

        if t < k:
            # defining relation of the non-free case: p^(n-1) x^t = 0, p^(n-1) != 0
            pn1 = self.from_int(self.pn1)
            if not (pn1 * self._x_pows[t]).is_zero() or pn1.is_zero():
                raise CertificateError(f"p^(n-1) x^{t} = 0 with p^(n-1) != 0 fails")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_params(cls, params):
        return cls(params.p, params.n, params.r, params.k, params.t, params.g_tail, params.f)

    def _rank1_omega(self):
        # for r = 1, f = X - tau with tau the lift of a primitive root mod p
        return self.from_int((-self.f[0]) % self.pn)

    def _powers(self, base, upto):
        pows = [self.one]
        for _ in range(upto):
            pows.append(pows[-1] * base)
        return pows

    def short_name(self):
        g_terms = f"x^{self.k}+p(...)" if any(self.g_tail) else f"x^{self.k}"
        return f"Z_{self.pn}[w_{self.r}][x]/<{g_terms},{self.pn1}x^{self.t}>"

    def __repr__(self):
        return f"ChainRing(p={self.p}, n={self.n}, r={self.r}, k={self.k}, t={self.t})"

    def __eq__(self, other):
        return isinstance(other, ChainRing) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    @property
    def params(self):
        return RingParams(self.p, self.n, self.r, self.k, self.t, self.g_tail, self.f)

    # -- element constructors ------------------------------------------------

    def element(self, rows):
        """Build an element from an r x k integer grid (entries get reduced)."""
        if len(rows) != self.r or any(len(row) != self.k for row in rows):
            raise ParameterError(f"grid must be {self.r} x {self.k}")
        grid = tuple(
            tuple(int(c) % self.col_mod[j] for j, c in enumerate(row)) for row in rows
        )
        return ChainRingElement(self, grid)

    def from_int(self, c):
        grid = [[0] * self.k for _ in range(self.r)]
        grid[0][0] = c % self.pn
        return ChainRingElement(self, tuple(tuple(row) for row in grid))

    def element_from_term(self, i, j, c):
        grid = [[0] * self.k for _ in range(self.r)]
        grid[i][j] = c % self.col_mod[j]
        return ChainRingElement(self, tuple(tuple(row) for row in grid))

    def x_pow(self, e):
        """x**e, with everything from e = m on collapsing to zero."""
        return self._x_pows[min(e, self.m)]

    # -- canonical enumeration ------------------------------------------------

    def index_of(self, elem):
        idx = 0
        weight = 1
        for i in range(self.r):
            for j in range(self.k):
                idx += elem.grid[i][j] * weight
                weight *= self.col_mod[j]
        return idx

    def element_from_index(self, idx):
        if not 0 <= idx < self.card:
            raise ParameterError("element index out of range")
        grid = [[0] * self.k for _ in range(self.r)]
        for i in range(self.r):
            for j in range(self.k):
                idx, grid[i][j] = divmod(idx, self.col_mod[j])
        return ChainRingElement(self, tuple(tuple(row) for row in grid))

    def elements(self):
        """All p^(r*m) elements in canonical index order."""
        return [self.element_from_index(i) for i in range(self.card)]

    # -- core arithmetic -------------------------------------------------------

    def _mul(self, a, b):
        r, k, pn = self.r, self.k, self.pn
        wide = [[0] * (2 * k - 1) for _ in range(2 * r - 1)]
        for i1 in range(r):
            row1 = a.grid[i1]
            for j1 in range(k):
                c1 = row1[j1]
                if c1 == 0:
                    continue
                for i2 in range(r):
                    row2 = b.grid[i2]
                    tgt = wide[i1 + i2]
                    for j2 in range(k):
                        c2 = row2[j2]
                        if c2:
                            tgt[j1 + j2] += c1 * c2
        # fold w-degrees >= r down through w^r = -(f - X^r)
        for i in range(2 * r - 2, r - 1, -1):
            row = wide[i]
            if any(row):
                for l, fc in enumerate(self._f_fold):
                    if fc:
                        tgt = wide[i - r + l]
                        for j in range(2 * k - 1):
                            if row[j]:
                                tgt[j] += fc * row[j]
            wide[i] = None
        # fold x-degrees >= k down through x^k = -p(a_{k-1} x^{k-1} + ... + a_0);
        # every fold gains a factor p, so the cascade dies inside the row
        out = []
        for i in range(r):
            row = wide[i]
            for j in range(2 * k - 2, k - 1, -1):
                c = row[j] % pn
                if c:
                    for l, xc in enumerate(self._x_fold):
                        if xc:
                            row[j - k + l] += c * xc
                row[j] = 0
            out.append(tuple(row[j] % self.col_mod[j] for j in range(k)))
        return ChainRingElement(self, tuple(out))

    def _invert(self, a):
        if not a.is_unit():
            raise NotAUnitError(f"{a!r} is not a unit")
        from .intpoly import fp_ext_gcd, pmod

        p = self.p
        residue = [row[0] % p for row in a.grid]
        fbar = [c % p for c in self.f]
        g, s, _ = fp_ext_gcd(residue, fbar, p)
        if g != [1]:
            raise CertificateError("the residue of a unit is not prime to f mod p")
        inv0 = pmod(s, p)
        grid = [[0] * self.k for _ in range(self.r)]
        for i, c in enumerate(inv0):
            grid[i][0] = c
        b = self.element(grid)
        # Newton lifting b <- b(2 - ab); error 1 - ab squares its x-valuation
        steps = max(1, (self.m - 1).bit_length()) + 1
        two = self.from_int(2)
        for _ in range(steps):
            b = b * (two - a * b)
        if a * b != self.one:
            raise CertificateError("the Newton lift did not reach the inverse")
        return b

    def _x_valuation(self, a):
        if a.is_zero():
            return self.m
        v = 0
        cur = a
        while not any(row[0] % self.p for row in cur.grid):
            cur = self.div_x(cur)
            v += 1
        return v

    def div_x(self, a):
        """The canonical b with x*b = a; requires a in <x>."""
        p, k = self.p, self.k
        col0 = [row[0] for row in a.grid]
        if any(c % p for c in col0):
            raise ParameterError("element is not divisible by x")
        shifted = [[0] * k for _ in range(self.r)]
        for i in range(self.r):
            for j in range(1, k):
                shifted[i][j - 1] = a.grid[i][j]
        b = self.element(shifted)
        if any(col0):
            d0 = self.element([[row[0] // p if j == 0 else 0 for j in range(k)] for row in a.grid])
            if self._w_inv is None:
                w = self.element([self.g_tail if i == 0 else [0] * k for i in range(self.r)])
                self._w_inv = w.invert()
            b = b - d0 * self._w_inv * self.x_pow(k - 1)
        return b

    # -- Teichmuller structure -------------------------------------------------

    def teichmuller_set(self):
        """{0} plus the cyclic group generated by w: all solutions of z^(p^r) = z."""
        out = [self.zero]
        z = self.one
        for _ in range(self.p**self.r - 1):
            out.append(z)
            z = z * self.omega
        if z != self.one:
            raise CertificateError(f"w^{self.p**self.r - 1} is not 1")
        return out

    def teichmuller_lift(self, a):
        """The unique z with z^(p^r) = z and z = a mod <x>."""
        q = self.p**self.r
        z = a
        for _ in range(max(self.m - 1, 1)):
            z = z**q
        return z

    def x_adic_digits(self, a):
        """Digits d_i in the Teichmuller set with a = sum d_i x^i, i < m.

        div_x picks one canonical preimage (unique only up to ann(x)), so the
        working remainder after m steps need not vanish; exactness comes from
        cur_i = d_i + x * cur_{i+1} telescoping with x^m = 0, and the round
        trip is checked.
        """
        digits = []
        cur = a
        for _ in range(self.m):
            d = self.teichmuller_lift(cur)
            digits.append(d)
            cur = self.div_x(cur - d)
        if self.from_digits(digits) != a:
            raise CertificateError("the x-adic digits do not sum back to the element")
        return digits

    def from_digits(self, digits):
        acc = self.zero
        for i, d in enumerate(digits):
            acc = acc + d * self.x_pow(i)
        return acc

    # -- Galois structure -------------------------------------------------------

    def s_row(self, a, i):
        """Row i of a as an element of the rank-1 part (w-degree 0)."""
        grid = [[0] * self.k for _ in range(self.r)]
        grid[0] = list(a.grid[i])
        return self.element(grid)

    def frobenius(self, a):
        """The automorphism w -> w^p extended S-linearly; generates Aut(R/S)."""
        if self.r == 1:
            return a
        if self._frob_pows is None:
            self._frob_pows = self._powers(self.omega**self.p, self.r - 1)
        acc = self.zero
        for i in range(self.r):
            acc = acc + self.s_row(a, i) * self._frob_pows[i]
        return acc

    def trace_to_base(self, a):
        """Tr(a) = sum of frobenius powers; always lands in S."""
        acc = a
        cur = a
        for _ in range(self.r - 1):
            cur = self.frobenius(cur)
            acc = acc + cur
        if not self.in_subring_s(acc):
            raise CertificateError("trace left S")
        return acc

    def in_subring_s(self, a):
        return all(c == 0 for row in a.grid[1:] for c in row)

    def subring_s(self):
        """The rank-1 chain ring Z_{p^n}[x]/<g, p^(n-1) x^t> inside this one."""
        if self.r == 1:
            return self
        if self._subring is None:
            self._subring = ChainRing(self.p, self.n, 1, self.k, self.t, self.g_tail)
        return self._subring

    def lift_from_s(self, s_elem):
        grid = [list(s_elem.grid[0])] + [[0] * self.k for _ in range(self.r - 1)]
        return self.element(grid)

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        return {
            "p": self.p,
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "t": self.t,
            "g_tail": list(self.g_tail),
            "f": list(self.f),
        }

    @classmethod
    def from_json(cls, obj):
        try:
            return cls(
                int(obj["p"]),
                int(obj["n"]),
                int(obj["r"]),
                int(obj["k"]),
                int(obj["t"]),
                [int(c) for c in obj["g_tail"]],
                [int(c) for c in obj["f"]] if obj.get("f") is not None else None,
            )
        except KeyError as exc:
            raise ParameterError(f"ring spec missing field {exc}") from exc


def make_ring(params):
    """Construct the ring descriptor for a parameter tuple."""
    if isinstance(params, RingParams):
        return ChainRing.from_params(params)
    if isinstance(params, dict):
        return ChainRing.from_json(params)
    raise ParameterError(f"cannot build a ring from {params!r}")
