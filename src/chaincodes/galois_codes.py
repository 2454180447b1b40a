"""S-linear cyclic codes over R, built from exponent matrices, with closed-form
trace duals.

A spec assigns one x-exponent e_{i,j} in [0, m] to every component of the
canonical decomposition: omega^j K_i for the non-splitting cosets, K_{i,j} for
the splitting ones.  Exponent m means the component is absent (x^m = 0).  The
dual recipe flips exponents to m - e across mu-paired components and swaps the
omega basis for its trace-dual basis theta (and back), which is why a spec
carries a basis tag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import codes, modlinalg, polyops
from .codes import CodeHandle
from .errors import NotCyclicError, NotDecomposableError, SpecShapeError
from .idempotents import idempotent_system


@dataclass(frozen=True)
class GaloisCodeSpec:
    """Exponent matrix e[i][j], 0 <= i <= v, 0 <= j <= r-1, entries in [0, m]."""

    ring: object
    N: int
    e: tuple
    basis: str = "omega"

    def __post_init__(self):
        object.__setattr__(self, "e", tuple(tuple(int(x) for x in row) for row in self.e))
        if self.basis not in ("omega", "theta"):
            raise SpecShapeError(f"unknown basis {self.basis!r}")

    def to_json(self):
        return {
            "family": "galois",
            "ring": self.ring.to_json(),
            "N": self.N,
            "e": [list(row) for row in self.e],
            "basis": self.basis,
        }


def _checked_system(spec):
    sys = idempotent_system(spec.ring, spec.N)
    rows, cols = sys.cls.v + 1, spec.ring.r
    if len(spec.e) != rows or any(len(row) != cols for row in spec.e):
        raise SpecShapeError(f"exponent matrix must be {rows} x {cols}")
    m = spec.ring.m
    if any(not 0 <= x <= m for row in spec.e for x in row):
        raise SpecShapeError(f"exponents must lie in [0, {m}]")
    return sys


def _basis_elements(sys, basis):
    ring = sys.ring
    if basis == "omega":
        pows = [ring.one]
        for _ in range(ring.r - 1):
            pows.append(pows[-1] * ring.omega)
        return pows
    return list(sys.theta)


def build_galois_code(spec) -> CodeHandle:
    """Generator stack {x^w x^e_{i,j} b_j eps_i X^l} spanning the spec's code.

    The x^w multiples (w < k) turn the S-span into a Z_{p^n} row span, which
    is what the linear algebra works over.
    """
    sys = _checked_system(spec)
    ring, N, cls = spec.ring, spec.N, sys.cls
    scalars = _basis_elements(sys, spec.basis)
    vectors = []

    def add_component(poly, exponent, kappa):
        if exponent >= ring.m:
            return
        for w in range(ring.k):
            mult = ring.x_pow(exponent) * ring.x_pow(w)
            if mult.is_zero():
                continue
            scaled = polyops.pscale(poly, mult)
            for l in range(kappa):
                vectors.append(polyops.shift_mod_xn1(ring, scaled, l, N))

    for i in range(cls.u + 1):
        for j in range(ring.r):
            add_component(polyops.pscale(sys.eps[i], scalars[j]), spec.e[i][j], cls.kappa[i])
    for i in range(cls.u + 1, cls.v + 1):
        for j in range(ring.r):
            add_component(sys.eps_split[(i, j)], spec.e[i][j], cls.kappa[i])
    return codes.handle_from_vectors("galois", ring, N, spec, vectors)


def dual_galois_code(spec) -> GaloisCodeSpec:
    """The trace dual's recipe: exponents m - e on mu-paired components, basis
    swapped with its trace dual.

    Component (i, j) of the dual constrains component (mu(i), j) of the code
    (for split cosets, additionally the h whose p^r-coset is the negative of
    the dual one): that is what a(X) mu(b(X)) couples, so the flipped exponent
    is read off the mu-partner.  When mu fixes every component label this
    collapses to the plain m - e_{i,j} recipe.
    """
    sys = _checked_system(spec)
    cls, m, N = sys.cls, spec.ring.m, spec.N
    mu = sys.mu_perm
    flipped = []
    for i in range(cls.v + 1):
        row = []
        for j in range(spec.ring.r):
            if i <= cls.u:
                row.append(m - spec.e[mu[i]][j])
            else:
                target = frozenset((-x) % N for x in cls.split_cosets[(i, j)])
                partner = next(
                    h
                    for h in range(spec.ring.r)
                    if frozenset(cls.split_cosets[(mu[i], h)]) == target
                )
                row.append(m - spec.e[mu[i]][partner])
        flipped.append(tuple(row))
    other = "theta" if spec.basis == "omega" else "omega"
    return replace(spec, e=tuple(flipped), basis=other)


def log_cardinality(spec) -> int:
    """Closed-form log_p |C| from the component sizes."""
    sys = _checked_system(spec)
    cls, m, r = sys.cls, spec.ring.m, spec.ring.r
    total = 0
    for i in range(cls.u + 1):
        total += sum(max(m - spec.e[i][j], 0) for j in range(r)) * cls.kappa[i]
    for i in range(cls.u + 1, cls.v + 1):
        for j in range(r):
            total += max(m - spec.e[i][j], 0) * r * cls.kappa_split[(i, j)]
    return total


def is_self_dual(spec) -> bool:
    """Self-duality happens exactly at the all-m/2 exponent matrix, m even."""
    _checked_system(spec)
    m = spec.ring.m
    return m % 2 == 0 and all(x == m // 2 for row in spec.e for x in row)


def decompose_to_spec(code: CodeHandle) -> GaloisCodeSpec:
    """Recover the omega-basis exponent matrix of an S-linear cyclic code.

    Verifies cyclicity and S-closure first, measures each component's minimal
    x-valuation by stack membership, then rebuilds and demands equality; a
    mismatch means the input is not of the canonical shape and is surfaced.
    """
    ring, N = code.ring, code.N
    sys = idempotent_system(ring, N)
    cls = sys.cls
    if not codes.is_shift_closed(code):
        raise NotCyclicError("code is not closed under the cyclic shift")
    if not codes.is_x_closed(code):
        raise NotDecomposableError("code is not closed under multiplication by x")
    scalars = _basis_elements(sys, "omega")

    def min_exponent(poly):
        for w in range(ring.m):
            probe = polyops.pscale(poly, ring.x_pow(w))
            flat = codes.flatten_vector(ring, polyops.pad(ring, probe, N))
            if modlinalg.contains(code.stack, flat):
                return w
        return ring.m

    e = []
    for i in range(cls.v + 1):
        row = []
        for j in range(ring.r):
            if i <= cls.u:
                row.append(min_exponent(polyops.pscale(sys.eps[i], scalars[j])))
            else:
                row.append(min_exponent(list(sys.eps_split[(i, j)])))
        e.append(tuple(row))
    spec = GaloisCodeSpec(ring=ring, N=N, e=tuple(e), basis="omega")
    rebuilt = build_galois_code(spec)
    if not modlinalg.stacks_equal(rebuilt.stack, code.stack):
        raise NotDecomposableError("code is not a sum of x^e component ideals")
    return spec
