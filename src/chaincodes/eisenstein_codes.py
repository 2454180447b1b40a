"""Z_{p^n}-linear cyclic codes over rank-1 chain rings, with character duals.

Here R = Z_{p^n}[x]/<g, p^(n-1) x^t> and the base is the integer subring
S = Z_{p^n}.  For t < k the ring is not free over S (p^(n-1) x^t = 0 kills
every candidate basis), so there is no trace pairing; duality runs through
additive characters instead.  Characters are handled as exponents mod p^n:
chi_a(z) = zeta_{p^n}^beta(a, z) with beta(a, z) = sum_{j<t} a_j z_j +
p * sum_{j>=t} a_j z_j, and every inner-product computation reduces to exact
root-of-unity cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import codes, modlinalg
from .codes import CodeHandle
from .errors import (
    CertificateError,
    ClosureChangedCodeError,
    NonFreeModuleError,
    RankNotOneError,
    SpecShapeError,
    TooLargeError,
)
from .idempotents import idempotent_system

_CHAR_TABLE_CAP = 2**10  # |R| above this would give more than 2^20 table entries


def _require_rank_one(ring):
    if ring.r != 1:
        raise RankNotOneError(f"ring has rank r = {ring.r}, this family needs r = 1")


@dataclass(frozen=True)
class EisensteinCodeSpec:
    """Binary indicator matrix a[i][j], 0 <= i <= v, 0 <= j <= m-1."""

    ring: object
    N: int
    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(tuple(int(x) for x in row) for row in self.a))

    def to_json(self):
        return {
            "family": "eisenstein",
            "ring": self.ring.to_json(),
            "N": self.N,
            "a": [list(row) for row in self.a],
        }


def _checked_system(spec):
    _require_rank_one(spec.ring)
    sys = idempotent_system(spec.ring, spec.N)
    rows, cols = sys.cls.v + 1, spec.ring.m
    if len(spec.a) != rows or any(len(row) != cols for row in spec.a):
        raise SpecShapeError(f"indicator matrix must be {rows} x {cols}")
    if any(x not in (0, 1) for row in spec.a for x in row):
        raise SpecShapeError("indicator entries must be 0 or 1")
    return sys


def build_eisenstein_code(spec) -> CodeHandle:
    """Span of {x^j eps_i X^l : a_{i,j} = 1} over Z_{p^n}, rungs of one ladder."""
    sys = _checked_system(spec)
    ring = spec.ring
    eps = np.vstack([codes.flatten_vector(ring, eps_i) for eps_i in sys.eps])
    ladder = codes.x_ladder(ring, eps, ring.m)
    blocks = [
        codes.cyclic_rows(ring, ladder[i][np.array(spec.a[i], dtype=bool)], kappa)
        for i, kappa in enumerate(sys.cls.kappa)
    ]
    return codes.handle_from_rows("eisenstein", ring, spec.N, spec, blocks)


# -- characters as exponent arithmetic ----------------------------------------


def pairing(a, z):
    """beta(a, z) mod p^n; chi_a(z) is the p^n-th root of unity at exponent beta."""
    ring = a.ring
    _require_rank_one(ring)
    if z.ring != ring:
        raise RankNotOneError("pairing arguments must share a ring")
    acc = 0
    for j in range(ring.k):
        weight = 1 if j < ring.t else ring.p
        acc += weight * a.grid[0][j] * z.grid[0][j]
    return acc % ring.pn


def pairing_gram(ring, N=1):
    """Gram matrix of beta on the flattened coordinates of R^N."""
    _require_rank_one(ring)
    diag = [1 if j < ring.t else ring.p for j in range(ring.k)] * N
    return np.diag(np.array(diag, dtype=np.int64))


def character_table(ring):
    """The |R| x |R| exponent matrix beta(a, z) in canonical element order."""
    _require_rank_one(ring)
    if ring.card > _CHAR_TABLE_CAP:
        raise TooLargeError(f"character table of |R| = {ring.card} > {_CHAR_TABLE_CAP} elements")
    elems = ring.elements()
    return np.array([[pairing(a, z) for z in elems] for a in elems], dtype=np.int64)


def char_inner_product(a, b):
    """Exact Hermitian product (chi_a, chi_b): 1 if a = b else 0.

    (1/|R|) sum_z zeta^(beta(a,z) - beta(b,z)) collapses by root-of-unity
    cancellation: the exponent map z -> beta(a-b, z) is a homomorphism onto a
    subgroup of Z_{p^n}, hit uniformly, so the sum is |R| or 0.
    """
    ring = a.ring
    _require_rank_one(ring)
    if ring.card > 2**20:
        raise TooLargeError("character inner product enumerates the ring")
    c = a - b
    counts = {}
    for z in ring.elements():
        e = pairing(c, z)
        counts[e] = counts.get(e, 0) + 1
    if set(counts) == {0}:
        return 1
    # nontrivial character: exponents form a coset-uniform family summing to 0
    image = sorted(counts)
    if len(set(counts.values())) != 1:
        raise CertificateError("character image not uniform")
    if image != list(range(0, ring.pn, image[1])):
        raise CertificateError("character image not a subgroup")
    return 0


def annihilator_subgroup(ring, generators):
    """Stack of {a in R : beta(a, z) = 0 for all z in the span of generators}."""
    _require_rank_one(ring)
    rows = (
        np.vstack([codes.flatten_vector(ring, [g]) for g in generators])
        if generators
        else np.zeros((0, ring.k), dtype=np.int64)
    )
    stack = modlinalg.GeneratorStack(rows, ring.p, ring.n, codes.ambient_caps(ring, 1))
    return modlinalg.solve_orthogonal(pairing_gram(ring), stack)


def eisenstein_dual_code(code: CodeHandle) -> CodeHandle:
    """Character-annihilator dual: solve beta-orthogonality against the code.

    The counting identity log|C| + log|C^dual| = N log|R| is checked before
    returning; it is exactly the one-to-oneness the character duality buys.
    """
    ring = code.ring
    _require_rank_one(ring)
    gram = pairing_gram(ring, code.N)
    dual_stack = modlinalg.solve_orthogonal(gram, code.stack)
    handle = codes.handle_from_stack("eisenstein", ring, code.N, None, dual_stack)
    if code.log_p_card + handle.log_p_card != code.N * ring.log_p_card:
        raise CertificateError("character duality violated the counting identity")
    return handle


def trace_dual_code(code: CodeHandle) -> CodeHandle:
    """Always refuses: this family has no trace pairing over Z_{p^n}.

    For t < k the generating set {1, x, ..., x^{k-1}} of R over Z_{p^n}
    satisfies p^(n-1) x^t = 0 with p^(n-1) != 0, so R is not free and no
    trace-dual basis can exist; duality must go through characters.
    """
    ring = code.ring
    _require_rank_one(ring)
    if ring.t < ring.k:
        raise NonFreeModuleError(
            f"R is not free over Z_{ring.pn} (p^{ring.n - 1} x^{ring.t} = 0 with "
            f"p^{ring.n - 1} != 0): no trace dual exists, use eisenstein_dual_code"
        )
    raise NonFreeModuleError(
        "trace duality is not defined for this family; use eisenstein_dual_code"
    )


def normalize_spec(spec) -> EisensteinCodeSpec:
    """Close indicator rows under j -> j + k and assert the code is unchanged.

    x^(j+k) K_i sits inside x^j K_i because x^k is p times a unit, so turning
    those indicators on is free; the closure is verified against the built
    code rather than assumed, and a change is surfaced as an error.
    """
    sys = _checked_system(spec)
    ring = spec.ring
    closed = [list(row) for row in spec.a]
    for i in range(sys.cls.v + 1):
        for j in range(ring.m):
            if spec.a[i][j]:
                step = j + ring.k
                while step < ring.m:
                    closed[i][step] = 1
                    step += ring.k
    closed_spec = replace(spec, a=tuple(tuple(row) for row in closed))
    before = build_eisenstein_code(spec)
    after = build_eisenstein_code(closed_spec)
    if not modlinalg.stacks_equal(before.stack, after.stack):
        raise ClosureChangedCodeError("index closure changed the built code")
    return closed_spec
