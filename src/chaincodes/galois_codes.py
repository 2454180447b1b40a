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

import numpy as np

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


def _ladder(sys, basis):
    """The (v+1) x r x m x L array of every component's x-power rungs: row
    [i, j, w] is x^w b_j eps_i with b_j the basis scalar on the cosets that
    do not split, and x^w eps_{i,j} on the split ones."""
    ring, cls = sys.ring, sys.cls
    eps = np.vstack([codes.flatten_vector(ring, eps_i) for eps_i in sys.eps[: cls.u + 1]])
    scalars = sys.theta if basis == "theta" else [ring.omega**j for j in range(ring.r)]
    scaled = np.stack([codes.times(ring, eps, b) for b in scalars], axis=1)
    split = [codes.flatten_vector(ring, sys.eps_split[key]) for key in sorted(sys.eps_split)]
    base = np.vstack([scaled.reshape(-1, eps.shape[1])] + split)
    return codes.x_ladder(ring, base, ring.m).reshape(cls.v + 1, ring.r, ring.m, -1)


def build_galois_code(spec) -> CodeHandle:
    """Generator stack {x^w x^e_{i,j} b_j eps_i X^l} spanning the spec's code.

    The x^w multiples (w < k) turn the S-span into a Z_{p^n} row span, which
    is what the linear algebra works over; they are ladder rungs [e, e + k).
    """
    sys = _checked_system(spec)
    return _code_from_ladder(spec, sys.cls.kappa, _ladder(sys, spec.basis))


def _code_from_ladder(spec, kappas, ladder):
    ring = spec.ring
    w = np.arange(ring.m)
    blocks = []
    for i, kappa in enumerate(kappas):
        e = np.array(spec.e[i])[:, None]
        blocks.append(codes.cyclic_rows(ring, ladder[i][(e <= w) & (w < e + ring.k)], kappa))
    return codes.handle_from_rows("galois", ring, spec.N, spec, blocks)


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
    """The closed-form spec predicate (m even, every exponent m/2), not a test
    on codes: demo N = 3 at e = ((1, 2), (0, 3)) builds a code equal to its
    trace dual.  A self-duality test on codes is ROADMAP item 18."""
    _checked_system(spec)
    m = spec.ring.m
    return m % 2 == 0 and all(x == m // 2 for row in spec.e for x in row)


def decompose_to_spec(code: CodeHandle) -> GaloisCodeSpec:
    """Recover the omega-basis exponent matrix of an S-linear cyclic code.

    Verifies cyclicity and S-closure first; e_{i,j} is the first ladder rung
    in the code (m if none), read off one membership pass.  It then rebuilds
    and demands equality: a mismatch means a non-canonical input.
    """
    ring, N = code.ring, code.N
    sys = idempotent_system(ring, N)
    if not codes.is_shift_closed(code):
        raise NotCyclicError("code is not closed under the cyclic shift")
    if not codes.is_x_closed(code):
        raise NotDecomposableError("code is not closed under multiplication by x")

    ladder = _ladder(sys, "omega")
    hits = modlinalg.members(code.stack, ladder.reshape(-1, ladder.shape[-1]))
    hits = hits.reshape(ladder.shape[:3])
    e = np.where(hits.any(axis=2), hits.argmax(axis=2), ring.m).tolist()
    spec = GaloisCodeSpec(ring=ring, N=N, e=e, basis="omega")
    rebuilt = _code_from_ladder(spec, sys.cls.kappa, ladder)
    if not modlinalg.stacks_equal(rebuilt.stack, code.stack):
        raise NotDecomposableError("code is not a sum of x^e component ideals")
    return spec
