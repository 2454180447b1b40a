"""Cyclotomic cosets, basic primitive polynomials, Hensel lifting, and the
extension ring that realizes N-th roots of unity.

Everything in here is exact.  The extension machinery builds R_hat = R[zeta]
with coefficient ring GR(p^n, r*s), locates a primitive N-th root of unity
eta inside it, and knows how to push coefficients that are fixed by the
right Frobenius power back down to the base ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from . import intpoly, polyops
from .errors import (
    CertificateError,
    CoercionFailedError,
    NonCoprimeError,
    ParameterError,
    ProductMismatchError,
    RankNotPrimeError,
    TooLargeError,
)
from .galois_ring import GaloisRing, root_product
from .rings import ChainRing

_EXT_CAP = 2**31  # p^(r*s) stays below this, mirroring the base-ring cap


def cyclotomic_cosets(N, b):
    """Partition of Z_N into orbits of multiplication by b, sorted by leader."""
    if N < 1:
        raise ParameterError("N must be positive")
    if gcd(N, b) != 1:
        raise NonCoprimeError(f"gcd({N}, {b}) != 1")
    seen = [False] * N
    cosets = []
    for lead in range(N):
        if seen[lead]:
            continue
        orbit = []
        j = lead
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = (j * b) % N
        cosets.append(tuple(sorted(orbit)))
    return cosets


@dataclass(frozen=True)
class CosetClassification:
    """p- and p^r-cosets mod N with the leader / kappa bookkeeping.

    Leaders come in two blocks: indices 0..u are the cosets with
    gcd(kappa, r) = 1 (where the p- and p^r-cosets agree), indices u+1..v are
    the ones whose p-coset splits into r distinct p^r-cosets.  Within each
    block leaders are ascending, and j_0 = 0 always sits first.
    """

    N: int
    p: int
    r: int
    leaders: tuple
    cosets_p: tuple
    cosets_pr: tuple
    u: int
    v: int
    kappa: tuple
    kappa_split: dict = field(hash=False)
    split_cosets: dict = field(hash=False)

    def coset_index_of(self, value):
        value %= self.N
        for i, coset in enumerate(self.cosets_p):
            if value in coset:
                return i
        raise ParameterError(f"{value} not classified")

    def shape(self):
        return self.v + 1, self.r


def classify_cosets(N, p, r):
    """Classify p-cosets mod N against p^r-cosets; r must be 1 or prime."""
    if r != 1 and not intpoly.is_prime(r):
        raise RankNotPrimeError(f"rank r = {r} must be 1 or a prime")
    if gcd(N, p) != 1:
        raise NonCoprimeError(f"gcd({N}, {p}) != 1")
    cosets_p = cyclotomic_cosets(N, p % N if N > 1 else 1)
    cosets_pr = cyclotomic_cosets(N, (p**r) % N if N > 1 else 1)
    pr_by_member = {}
    for coset in cosets_pr:
        for x in coset:
            pr_by_member[x] = coset

    galois_type, split_type = [], []
    for coset in cosets_p:
        kappa = len(coset)
        if gcd(kappa, r) == 1:
            galois_type.append(coset)
        elif kappa % r == 0:
            split_type.append(coset)
        else:  # cannot happen for prime r
            raise RankNotPrimeError(f"coset size {kappa} incompatible with r = {r}")
    ordered = sorted(galois_type, key=min) + sorted(split_type, key=min)
    leaders = tuple(min(c) for c in ordered)
    u = len(galois_type) - 1
    v = len(ordered) - 1
    kappa = tuple(len(c) for c in ordered)

    kappa_split = {}
    split_cosets = {}
    for i in range(u + 1, v + 1):
        lead = leaders[i]
        pieces = []
        for h in range(r):
            piece = pr_by_member[(lead * p**h) % N]
            split_cosets[(i, h)] = piece
            kappa_split[(i, h)] = len(piece)
            pieces.append(piece)
        union = sorted(x for piece in pieces for x in piece)
        if len(set(map(tuple, pieces))) != r or tuple(union) != ordered[i]:
            raise RankNotPrimeError(f"p-coset of {lead} does not split into r pieces")
    for i in range(u + 1):
        if pr_by_member[leaders[i]] != ordered[i]:
            raise RankNotPrimeError(f"p-coset of {leaders[i]} differs from its p^r-coset")

    return CosetClassification(
        N=N,
        p=p,
        r=r,
        leaders=leaders,
        cosets_p=tuple(ordered),
        cosets_pr=tuple(cosets_pr),
        u=u,
        v=v,
        kappa=kappa,
        kappa_split=kappa_split,
        split_cosets=split_cosets,
    )


# -- basic primitive polynomials ---------------------------------------------


def first_primitive_fbar(p, d):
    """The first monic primitive degree-d polynomial over F_p.

    The scan runs over monic candidates in ascending coefficient order, which
    keeps the output deterministic for serialization.
    """
    if d < 1:
        raise ParameterError("degree must be positive")
    for code in range(p**d):
        coeffs = []
        c = code
        for _ in range(d):
            c, digit = divmod(c, p)
            coeffs.append(digit)
        if coeffs[0] == 0:
            continue
        fbar = coeffs + [1]
        if intpoly.fp_is_primitive(fbar, p):
            return fbar
    raise ParameterError(f"no primitive polynomial of degree {d} over F_{p}")


def find_basic_primitive_poly(p, n, d):
    """Smallest monic degree-d polynomial over Z_{p^n} that is basic primitive
    and divides X^(p^d - 1) - 1 (so its root is a Teichmuller generator):
    the Teichmuller lift of first_primitive_fbar(p, d).

    In GaloisRing(p^n, fbar), y^(p^(d(n-1))) is the Teichmuller root tau of
    fbar, and its minimal polynomial is the product over its conjugates
    tau^(p^i), i < d.
    """
    pn = p**n
    gr = GaloisRing(pn, first_primitive_fbar(p, d))
    tau = gr.pow(gr.reduce([0, 1]), p ** (d * (n - 1)))
    conjugates = [tau]
    for _ in range(d - 1):
        conjugates.append(gr.pow(conjugates[-1], p))
    poly = root_product(gr, conjugates)
    if any(c[1:] != gr.zero[1:] for c in poly):
        raise CertificateError(f"Teichmuller minimal polynomial leaves Z_{pn}")
    lifted = tuple(c[0] for c in poly)
    if intpoly.ppowmod([0, 1], p**d - 1, list(lifted), pn) != [1]:
        raise CertificateError(f"X^{p**d - 1} is not 1 modulo the Teichmuller lift")
    return lifted


# -- Hensel lifting -----------------------------------------------------------


def _lift_pair(h, f, g, p, n):
    """Lift h = f*g from mod p to mod p^n, one modulus step at a time."""
    pn = p**n
    fbar, gbar = intpoly.pmod(f, p), intpoly.pmod(g, p)
    one, a, b = intpoly.fp_ext_gcd(fbar, gbar, p)
    if one != [1]:
        raise NonCoprimeError("factors are not coprime mod p")
    f, g = intpoly.pmod(f, pn), intpoly.pmod(g, pn)
    for j in range(1, n):
        step = p ** (j + 1)
        diff = intpoly.psub(intpoly.pmod(h, step), intpoly.pmul(f, g, step), step)
        if any(c % p**j for c in diff):
            raise CertificateError(f"the lift is not exact mod p^{j}")
        e = intpoly.pmod([c // p**j for c in diff], p)
        q, fc = intpoly.pdivmod_monic(intpoly.pmul(b, e, p), fbar, p)
        gc = intpoly.padd(intpoly.pmul(a, e, p), intpoly.pmul(q, gbar, p), p)
        f = intpoly.padd(f, intpoly.pscale(fc, p**j, pn), pn)
        g = intpoly.padd(g, intpoly.pscale(gc, p**j, pn), pn)
    if intpoly.pmul(f, g, pn) != intpoly.pmod(h, pn):
        raise CertificateError(f"the lifted pair does not multiply to h mod {pn}")
    return f, g


def hensel_lift(h, factors_modp, p, n):
    """Lift a coprime mod-p factorization of monic h to an exact one mod p^n."""
    pn = p**n
    h = intpoly.pmod(h, pn)
    if not h or h[-1] != 1:
        raise ParameterError("h must be monic")
    factors = [intpoly.pmod(fi, p) for fi in factors_modp]
    for fi in factors:
        if not fi or fi[-1] != 1:
            raise ParameterError("each factor must be monic mod p")
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if intpoly.fp_gcd(factors[i], factors[j], p) != [1]:
                raise NonCoprimeError("factors are not pairwise coprime mod p")
    product = [1]
    for fi in factors:
        product = intpoly.pmul(product, fi, p)
    if product != intpoly.pmod(h, p):
        raise ProductMismatchError("product of factors differs from h mod p")

    lifted = []
    rest = h
    for i in range(len(factors) - 1):
        cofactor = [1]
        for fj in factors[i + 1 :]:
            cofactor = intpoly.pmul(cofactor, fj, p)
        fi, rest = _lift_pair(rest, factors[i], cofactor, p, n)
        lifted.append(fi)
    lifted.append(intpoly.pmod(rest, pn))
    check = [1]
    for fi in lifted:
        check = intpoly.pmul(check, fi, pn)
    if check != h:
        raise CertificateError(f"the lifted factors do not multiply to h mod {pn}")
    return lifted


# -- the extension tower -------------------------------------------------------


@dataclass
class ExtensionDescriptor:
    """R_hat = R[zeta] together with eta, the embedded omega, and down-maps."""

    base_ring: ChainRing
    N: int
    s: int
    big_ring: ChainRing
    zeta: object
    eta: object
    omega_embed: object
    _embed_cols: list = field(repr=False, default=None)
    _eta_pows: list = field(repr=False, default=None)
    _omega_pows: list = field(repr=False, default=None)

    def eta_pow(self, j):
        return self._eta_pows[j % self.N]

    def fixed_by_frobenius_power(self, elem, e):
        cur = elem
        for _ in range(e):
            cur = self.big_ring.frobenius(cur)
        return cur == elem

    def embed(self, a):
        """Push a base-ring element into R_hat via omega -> omega_embed."""
        big = self.big_ring
        if big is self.base_ring:
            return a
        acc = big.zero
        for i in range(self.base_ring.r):
            for j in range(self.base_ring.k):
                c = a.grid[i][j]
                if c:
                    acc = acc + self._omega_pows[i] * big.x_pow(j) * c
        return acc

    def down(self, elem, target="full"):
        """Express an R_hat element over the base ring.

        target "full" expects phi^r-fixed input and lands in R; target "base"
        expects phi-fixed input and lands in S (checked).  Raises
        CoercionFailedError when the element is not expressible, which signals
        a non-fixed input.
        """
        base, big = self.base_ring, self.big_ring
        if big is base:
            if target == "base" and not base.in_subring_s(elem):
                raise CoercionFailedError("element has omega-components, not in S")
            return elem
        order = base.r if target == "full" else 1
        if not self.fixed_by_frobenius_power(elem, order):
            raise CoercionFailedError("element is not fixed by the expected Frobenius power")
        grid = [[0] * base.k for _ in range(base.r)]
        for j in range(base.k):
            col = [elem.grid[idx][j] for idx in range(big.r)]
            sol = self._solve_embed(col, base.col_mod[j])
            for i in range(base.r):
                grid[i][j] = sol[i]
        out = base.element(grid)
        if target == "base" and not base.in_subring_s(out):
            raise CoercionFailedError("element has omega-components, not in S")
        if self.embed(out) != elem:
            raise CoercionFailedError("solved coordinates do not reproduce the element")
        return out

    def _solve_embed(self, col, modulus):
        """Solve sum_i c_i * omega_embed^i = col over Z/modulus."""
        base, big = self.base_ring, self.big_ring
        p, r, rows = base.p, base.r, big.r
        aug = [
            [self._embed_cols[i][row] % modulus for i in range(r)] + [col[row] % modulus]
            for row in range(rows)
        ]
        perm = []
        for cidx in range(r):
            piv = next(
                (row for row in range(rows) if row not in perm and aug[row][cidx] % p),
                None,
            )
            if piv is None:
                raise CoercionFailedError("embedding matrix degenerate")
            perm.append(piv)
            inv = pow(aug[piv][cidx], -1, modulus) if modulus > 1 else 0
            aug[piv] = [(c * inv) % modulus for c in aug[piv]]
            for row in range(rows):
                if row != piv and aug[row][cidx]:
                    q = aug[row][cidx]
                    aug[row] = [(a - q * b) % modulus for a, b in zip(aug[row], aug[piv])]
        for row in range(rows):
            if row not in perm and aug[row][r] % modulus:
                raise CoercionFailedError("element is outside the embedded base ring")
        return [aug[perm[i]][r] for i in range(r)]


def extension_degree(p, r, N):
    """The least s with N | p^(r*s) - 1, refused when p^(r*s) passes the cap."""
    if N < 1:
        raise ParameterError("N must be positive")
    if gcd(N, p) != 1:
        raise NonCoprimeError(f"gcd({N}, {p}) != 1")
    q = p**r
    s = 1
    acc = q % N
    while acc != 1 % N:
        acc = (acc * q) % N
        s += 1
        if p ** (r * s) > _EXT_CAP:
            raise TooLargeError(f"p^(r*s) exceeds {_EXT_CAP} for N = {N}")
    if p ** (r * s) > _EXT_CAP:
        raise TooLargeError(f"p^(r*s) exceeds {_EXT_CAP} for N = {N}")
    return s


def build_extension(ring, N):
    """Construct R_hat containing a primitive N-th root of unity."""
    s = extension_degree(ring.p, ring.r, N)
    q = ring.p**ring.r
    if s == 1:
        big = ring
        zeta = ring.omega
        omega_embed = ring.omega
    else:
        f_hat = find_basic_primitive_poly(ring.p, ring.n, ring.r * s)
        big = ChainRing(ring.p, ring.n, ring.r * s, ring.k, ring.t, ring.g_tail, f_hat)
        zeta = big.omega
        step = zeta ** ((ring.p ** (ring.r * s) - 1) // (q - 1))
        omega_embed = None
        cand = step
        for _ in range(q - 1):
            value = big.zero
            for c in reversed(ring.f):
                value = value * cand + c
            if value.is_zero():
                omega_embed = cand
                break
            cand = cand * step
        if omega_embed is None:
            raise CoercionFailedError("no root of f among Teichmuller candidates")

    eta = zeta ** ((ring.p ** (ring.r * s) - 1) // N)
    ext = ExtensionDescriptor(
        base_ring=ring, N=N, s=s, big_ring=big, zeta=zeta, eta=eta, omega_embed=omega_embed
    )
    pows = [big.one]
    for _ in range(N - 1):
        pows.append(pows[-1] * eta)
    if pows[-1] * eta != big.one:
        raise CertificateError("eta is not an N-th root of unity")
    for d in range(1, N):
        if N % d == 0 and pows[d] == big.one:
            raise CertificateError(f"eta has order {d} < N")
    ext._eta_pows = pows
    ext._omega_pows = [big.one]
    for _ in range(ring.r - 1):
        ext._omega_pows.append(ext._omega_pows[-1] * omega_embed)
    ext._embed_cols = [
        [ext._omega_pows[i].grid[idx][0] for idx in range(big.r)] for i in range(ring.r)
    ]
    return ext


def minimal_polynomial(coset, ext, target):
    """prod_{j in coset} (X - eta^j), expanded and coerced down.

    target "base" is for p-cosets (coefficients land in S); target "full" is
    for p^r-cosets (coefficients land in R).
    """
    if target not in ("base", "full"):
        raise ParameterError("target must be 'base' or 'full'")
    big = ext.big_ring
    poly = [big.one]
    for j in coset:
        poly = polyops.pmul(big, poly, [-ext.eta_pow(j), big.one])
    order = 1 if target == "base" else ext.base_ring.r
    for c in poly:
        if not ext.fixed_by_frobenius_power(c, order):
            raise CoercionFailedError("coefficient not fixed; input is not a coset")
    return [ext.down(c, target) for c in poly]
