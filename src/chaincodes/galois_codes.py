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

from . import codes, modlinalg
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


def _components(sys, basis):
    """(i, j, flat generator, scalar) per component: eps_i with the basis
    scalar b_j for the cosets that do not split, eps_{i,j} with 1 for the
    split ones."""
    ring, cls = sys.ring, sys.cls
    scalars = _basis_elements(sys, basis)
    for i in range(cls.v + 1):
        if i <= cls.u:
            flat = codes.flatten_vector(ring, sys.eps[i])
            for j in range(ring.r):
                yield i, j, flat, scalars[j]
        else:
            for j in range(ring.r):
                yield i, j, codes.flatten_vector(ring, sys.eps_split[(i, j)]), ring.one


def build_galois_code(spec) -> CodeHandle:
    """Generator stack {x^w x^e_{i,j} b_j eps_i X^l} spanning the spec's code.

    The x^w multiples (w < k) turn the S-span into a Z_{p^n} row span, which
    is what the linear algebra works over.
    """
    sys = _checked_system(spec)
    ring, N, cls = spec.ring, spec.N, sys.cls
    rows = []
    for i, j, flat, scalar in _components(sys, spec.basis):
        e = spec.e[i][j]
        for w in range(min(ring.k, ring.m - e)):
            gen = codes.times(ring, flat, scalar * ring.x_pow(e + w))
            rows.extend(codes.shift_row(ring, gen, l) for l in range(cls.kappa[i]))
    return codes.handle_from_rows("galois", ring, N, spec, rows)


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
    """Closed-form log_p |C|: component (i, j) at exponent e adds
    kappa_i (m - e), as |x^e S| = p^(m-e) and a split piece has
    r kappa_{i,h} = kappa_i."""
    sys = _checked_system(spec)
    m = spec.ring.m
    return sum(kappa * sum(m - x for x in row) for kappa, row in zip(sys.cls.kappa, spec.e))


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

    def min_exponent(flat, scalar):
        for w in range(ring.m):
            if modlinalg.contains(code.stack, codes.times(ring, flat, scalar * ring.x_pow(w))):
                return w
        return ring.m

    e = [[ring.m] * ring.r for _ in range(cls.v + 1)]
    for i, j, flat, scalar in _components(sys, "omega"):
        e[i][j] = min_exponent(flat, scalar)
    spec = GaloisCodeSpec(ring=ring, N=N, e=e, basis="omega")
    rebuilt = build_galois_code(spec)
    if not modlinalg.stacks_equal(rebuilt.stack, code.stack):
        raise NotDecomposableError("code is not a sum of x^e component ideals")
    return spec
