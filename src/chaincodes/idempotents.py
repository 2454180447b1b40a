"""Primitive idempotents of S[X]/<X^N - 1> and R[X]/<X^N - 1>.

For each p-coset there is one idempotent eps_i with coefficients in S; each
splitting coset additionally carries r idempotents eps_{i,h} over R.  They cut
the cyclic ambient into the components K_i (over S) and L_i, K_{i,h} (over R)
that every additive cyclic code decomposes along.

Every eps_i lies in Z_{p^n}[X] and every eps_{i,h} and m-poly in
GR(p^n, r)[X], so the system depends on (p, n, r, f, N) only.  It is computed
mod p in F_{p^(rs)}, by the DFT eps_i = N^-1 sum_{l in C_i} eta^(-jl), and
lifted by Newton iteration; certify() then checks it with work linear in the
number of idempotents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import polyops
from .errors import CertificateError, CoercionFailedError, UnknownComponentError
from .galois_ring import (
    GaloisRing,
    cyclic_mul,
    divides_xn1,
    lift_divisor,
    lift_idempotent,
    root_product,
)
from .intpoly import factorize
from .polyfactory import classify_cosets, extension_degree, first_primitive_fbar


@dataclass
class IdempotentSystem:
    """The eps_i / eps_{i,h} family for one (ring, N) pair.

    ext is the extension descriptor the system was derived against when one
    was passed to primitive_idempotents, else None.
    """

    ring: object
    N: int
    cls: object
    ext: object
    eps: tuple
    eps_split: dict
    m_polys: dict
    mu_perm: tuple
    theta: tuple = field(default=None)


class RootsModP:
    """The N-th roots of unity of F_{p^(rs)} = F_p[y]/<Fbar>, packed for sums.

    Fbar is f mod p when s = 1 and otherwise the first primitive polynomial
    of degree rs; the root y of Fbar is zeta, and omega maps to the first
    root of f mod p among the powers of zeta^((p^(rs)-1)/(p^r-1)).  These are
    the scan orders of find_basic_primitive_poly and build_extension, so
    eta = zeta^((p^(rs)-1)/N) is the residue of the extension's eta and the
    split labels h agree with it.

    An element a_0 + a_1 y + ... is packed as the integer sum a_t 2^(bits t);
    a slot holds any sum of N + 1 products of two residues, so the sums of
    packed roots taken here need no carries.
    """

    def __init__(self, ring, N):
        p, r = ring.p, ring.r
        s = extension_degree(p, r, N)
        d = r * s
        fbar = [c % p for c in ring.f]
        F = GaloisRing(p, fbar if s == 1 else first_primitive_fbar(p, d))
        zeta = F.reduce([0, 1])
        omega = zeta
        if s > 1:
            step = F.pow(zeta, (p**d - 1) // (p**r - 1))
            omega, cand = None, step
            for _ in range(p**r - 1):
                value = F.zero
                for c in reversed(fbar):
                    value = F.add(F.mul(value, cand), F.scalar(c))
                if value == F.zero:
                    omega = cand
                    break
                cand = F.mul(cand, step)
            if omega is None:
                raise CoercionFailedError("no root of f among Teichmuller candidates")
        self.p, self.N, self.field = p, N, F
        self.eta = F.pow(zeta, (p**d - 1) // N)
        self.eta_pows = [F.one]
        for _ in range(N - 1):
            self.eta_pows.append(F.mul(self.eta_pows[-1], self.eta))
        self.omega_pows = [F.one]
        for _ in range(r - 1):
            self.omega_pows.append(F.mul(self.omega_pows[-1], omega))
        self.bits = ((N + 1) * p * p).bit_length()
        self.packed = [sum(c << (self.bits * t) for t, c in enumerate(a)) for a in self.eta_pows]
        self.coords = _left_inverse(self.omega_pows, p)

    def unpack(self, value):
        mask = (1 << self.bits) - 1
        return tuple((value >> (self.bits * t) & mask) % self.p for t in range(self.field.d))

    def down(self, a, split):
        """Coordinates of a over F_p (split False) or over omega^t (split True).

        a must lie in that subfield; the certificate catches it if not.
        """
        if not split:
            return (a[0],)
        return tuple(sum(x * y for x, y in zip(row, a)) % self.p for row in self.coords)

    def idempotent_mod_p(self, coset, split):
        """N^-1 sum_{l in coset} eta^(-jl) for j < N, as flat down() coordinates."""
        N, p = self.N, self.p
        n_inv = pow(N, -1, p)
        out = []
        for j in range(N):
            acc = sum(self.packed[(-j * l) % N] for l in coset)
            out.extend(c * n_inv % p for c in self.down(self.unpack(acc), split))
        return out

    def minpoly_mod_p(self, coset, split):
        """prod_{l in coset} (X - eta^l), as a list of down() coordinates."""
        poly = root_product(self.field, [self.eta_pows[l] for l in coset])
        return [self.down(c, split) for c in poly]

    def evaluate(self, coeffs, rows, l):
        """The value at eta^l of sum_j c_j X^j mod p; c_j is given by its
        `rows` coordinates over omega^t at coeffs[j*rows : (j+1)*rows]."""
        F, N, p = self.field, self.N, self.p
        sums = [0] * rows
        for j in range(len(coeffs) // rows):
            root = self.packed[(j * l) % N]
            for t in range(rows):
                c = coeffs[j * rows + t] % p
                if c:
                    sums[t] += c * root
        value = F.zero
        for w, total in zip(self.omega_pows, sums):
            value = F.add(value, F.mul(w, self.unpack(total)))
        return value


def _left_inverse(cols, p):
    """Rows L with L M = I mod p, for the matrix M whose columns are cols."""
    d, r = len(cols[0]), len(cols)
    aug = [[col[row] for col in cols] + [int(row == k) for k in range(d)] for row in range(d)]
    for c in range(r):
        piv = next((row for row in range(c, d) if aug[row][c] % p), None)
        if piv is None:
            raise CoercionFailedError("omega powers are dependent mod p")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for row in range(d):
            if row != c and aug[row][c]:
                q = aug[row][c]
                aug[row] = [(x - q * y) % p for x, y in zip(aug[row], aug[c])]
    return [row[r:] for row in aug[:r]]


_SYSTEM_CACHE = {}


def idempotent_system(ring, N):
    key = (ring.key, N)
    if key not in _SYSTEM_CACHE:
        cls = classify_cosets(N, ring.p, ring.r)
        _SYSTEM_CACHE[key] = _build_system(ring, cls, None)
    return _SYSTEM_CACHE[key]


def primitive_idempotents(ext, cls):
    """The system of (ext.base_ring, cls.N), kept together with ext."""
    return _build_system(ext.base_ring, cls, ext)


def _coefficient_rings(ring):
    """Z_{p^n} and GR(p^n, r) = Z_{p^n}[w]/<f> as GaloisRings."""
    return GaloisRing(ring.pn, [0, 1]), GaloisRing(ring.pn, ring.f)


def _to_elements(ring, flat, rows):
    """Ring elements from flat coordinates, `rows` w-powers per element (x-degree 0)."""
    if rows == 1:
        return tuple(ring.from_int(c) for c in flat)
    pad = [0] * (ring.k - 1)
    return tuple(
        ring.element([[flat[j + t]] + pad for t in range(rows)])
        for j in range(0, len(flat), rows)
    )


def _build_system(ring, cls, ext):
    N, p, r = cls.N, ring.p, ring.r
    roots = RootsModP(ring, N)
    zpn, gr = _coefficient_rings(ring)

    def idempotent(coset, split):
        ebar = roots.idempotent_mod_p(coset, split)
        lifted = lift_idempotent(gr if split else zpn, ebar, N, p)
        return _to_elements(ring, lifted, r if split else 1)

    def minpoly(coset, split):
        mbar = roots.minpoly_mod_p(coset, split)
        lifted = lift_divisor(gr if split else zpn, mbar, N, p)
        return _to_elements(ring, [c for coeff in lifted for c in coeff], r if split else 1)

    split_keys = [(i, h) for i in range(cls.u + 1, cls.v + 1) for h in range(r)]
    sys = IdempotentSystem(
        ring=ring,
        N=N,
        cls=cls,
        ext=ext,
        eps=tuple(idempotent(coset, False) for coset in cls.cosets_p),
        eps_split={key: idempotent(cls.split_cosets[key], True) for key in split_keys},
        m_polys={
            "m": tuple(minpoly(coset, False) for coset in cls.cosets_p),
            "m_split": {key: minpoly(cls.split_cosets[key], True) for key in split_keys},
        },
        mu_perm=tuple(cls.coset_index_of(-lead) for lead in cls.leaders),
    )
    sys.theta = tuple(trace_dual_basis(ring))
    certify(sys, roots)
    return sys


def _coordinates(ring, poly, rows, what):
    """Flat Z_{p^n} coordinates of a polynomial over Z_{p^n} (rows 1) or
    GR(p^n, r) (rows r) inside R; raises if it leaves that subring."""
    out = []
    for c in poly:
        grid = c.grid
        if any(grid[i][j] for i in range(ring.r) for j in range(ring.k) if j or i >= rows):
            raise CertificateError(f"{what} has a coefficient outside its coefficient ring")
        out.extend(grid[t][0] for t in range(rows))
    return out


def certify(sys, roots=None):
    """Check an idempotent system with work linear in its number of idempotents.

    The checks, each raising CertificateError:
    - eta has order N mod p, so evaluation at its N powers is injective on
      F_{p^(rs)}[X]/<X^N - 1> (gcd(N, p) = 1);
    - every eps_i lies in Z_{p^n}[X] and every eps_{i,h} in GR(p^n, r)[X],
      with e^2 = e there;
    - mod p, eps_i is 1 at eta^l for l in C_i and 0 at the other p-coset
      leaders, and eps_{i,h} is 1 on C_{i,h} and 0 elsewhere at one root per
      p^r-coset: Frobenius maps the value at eta^l to the value at eta^(pl)
      (eta^(p^r l) over F_{p^r}), so one root per coset decides its coset;
    - each m-poly is monic of degree |C|, divides X^N - 1, and vanishes mod p
      at eta^l for the least l in C;
    - mu(eps_i) = eps_{mu(i)}, and mu keeps the two leader blocks.

    An idempotent lift is unique, so e^2 = e and its residue fix each eps
    exactly.  Orthogonality and the sum rules follow: e_i e_j is an
    idempotent that is 0 mod p, hence nilpotent, hence 0, and sum_i e_i is an
    idempotent that is 1 mod p, hence 1.
    """
    ring, N, cls = sys.ring, sys.N, sys.cls
    roots = roots or RootsModP(ring, N)
    field, r = roots.field, ring.r
    zpn, gr = _coefficient_rings(ring)

    eta_n = field.mul(roots.eta_pows[-1], roots.eta)
    if eta_n != field.one or any(roots.eta_pows[N // q] == field.one for q in factorize(N)):
        raise CertificateError(f"eta does not have order {N} mod p")
    split_keys = [(i, h) for i in range(cls.u + 1, cls.v + 1) for h in range(r)]
    if len(sys.eps) != cls.v + 1 or sorted(sys.eps_split) != split_keys:
        raise CertificateError("idempotent system does not match its coset classification")

    def check_idempotent(poly, rows, coeff_ring, what, checks):
        if len(poly) != N:
            raise CertificateError(f"{what} has length {len(poly)}, not {N}")
        coeffs = _coordinates(ring, poly, rows, what)
        if cyclic_mul(coeff_ring, coeffs, coeffs, N) != coeffs:
            raise CertificateError(f"{what} is not idempotent")
        for l, want in checks:
            if roots.evaluate(coeffs, rows, l) != (field.one if want else field.zero):
                raise CertificateError(f"{what} has the wrong value at eta^{l} mod p")

    def check_minpoly(poly, coset, rows, coeff_ring, what):
        coeffs = _coordinates(ring, poly, rows, what)
        lifted = [tuple(coeffs[j : j + rows]) for j in range(0, len(coeffs), rows)]
        if len(poly) != len(coset) + 1 or lifted[-1] != coeff_ring.one:
            raise CertificateError(f"{what} is not monic of degree {len(coset)}")
        if not divides_xn1(coeff_ring, lifted, N):
            raise CertificateError(f"{what} does not divide X^N - 1")
        if roots.evaluate(coeffs, rows, coset[0]) != field.zero:
            raise CertificateError(f"{what} does not vanish at eta^{coset[0]} mod p")

    for i, poly in enumerate(sys.eps):
        checks = [(lead, k == i) for k, lead in enumerate(cls.leaders)]
        check_idempotent(poly, 1, zpn, f"eps_{i}", checks)
        check_minpoly(sys.m_polys["m"][i], cls.cosets_p[i], 1, zpn, f"m_{i}")
    for key, poly in sys.eps_split.items():
        coset = cls.split_cosets[key]
        checks = [(c[0], c == coset) for c in cls.cosets_pr]
        check_idempotent(poly, r, gr, f"eps_{key}", checks)
        check_minpoly(sys.m_polys["m_split"][key], coset, r, gr, f"m_{key}")

    perm = sys.mu_perm
    blocks_kept = (
        perm[0] == 0
        and all(1 <= perm[i] <= cls.u for i in range(1, cls.u + 1))
        and all(cls.u + 1 <= perm[i] <= cls.v for i in range(cls.u + 1, cls.v + 1))
    )
    if not blocks_kept:
        raise CertificateError("mu does not keep the two leader blocks")
    for i, poly in enumerate(sys.eps):
        if mu_involution(ring, poly, N) != list(sys.eps[perm[i]]):
            raise CertificateError(f"mu(eps_{i}) != eps_{perm[i]}")


def mu_involution(ring, poly, N):
    """a(X) -> X^N a(X^{-1}) mod X^N - 1 (coefficient reversal)."""
    return polyops.mu_reverse(ring, poly, N)


def trace_dual_basis(ring):
    """theta_j with Tr(w^i theta_j) = delta_{ij}, from gamma(X)/(X - w)."""
    gamma = [ring.from_int(c) for c in ring.f]
    quotient, rem = polyops.pdivmod_monic(ring, gamma, [-ring.omega, ring.one])
    if rem:
        raise CertificateError("omega is not a root of its defining polynomial")
    denom = polyops.peval(ring, quotient, ring.omega).invert()
    theta = [c * denom for c in quotient]
    pows = [ring.one]
    for _ in range(ring.r - 1):
        pows.append(pows[-1] * ring.omega)
    for i in range(ring.r):
        for j in range(ring.r):
            want = ring.one if i == j else ring.zero
            if ring.trace_to_base(pows[i] * theta[j]) != want:
                raise CertificateError("trace dual basis failed")
    return theta


def component_basis(sys, kind, i, h=None):
    """Generators of K_i, L_i, or K_{i,h} as length-N coefficient vectors.

    K_i carries its S-basis {eps_i X^l : l < kappa_i}; K_{i,h} (= L_{i,h}) is
    spanned over S by {eps_{i,h} X^l : l < kappa_i}; L_i adds the omega powers.
    """
    ring, N, cls = sys.ring, sys.N, sys.cls
    if not 0 <= i <= cls.v:
        raise UnknownComponentError(f"no component index {i}")
    kappa = cls.kappa[i]
    if kind == "K" and h is None:
        base = sys.eps[i]
        return [polyops.shift_mod_xn1(ring, base, l, N) for l in range(kappa)]
    if kind == "K":
        if (i, h) not in sys.eps_split:
            raise UnknownComponentError(f"no split component ({i}, {h})")
        base = sys.eps_split[(i, h)]
        return [polyops.shift_mod_xn1(ring, base, l, N) for l in range(kappa)]
    if kind == "L" and h is None:
        out = []
        w = ring.one
        for _ in range(ring.r):
            scaled = polyops.pscale(sys.eps[i], w)
            out.extend(polyops.shift_mod_xn1(ring, scaled, l, N) for l in range(kappa))
            w = w * ring.omega
        return out
    raise UnknownComponentError(f"unknown component kind {kind!r}")
