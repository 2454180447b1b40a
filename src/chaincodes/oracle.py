"""Definition-level verification by exhaustive enumeration.

This module deliberately shares only the element arithmetic with the main
path: no idempotents, no normal forms.  Codes are enumerated as additive
closures of their generator rows, duals are enumerated straight from the
orthogonality definitions over all of R^N, and the comparisons are set
comparisons of canonical codeword keys (lexicographic coordinate order, so
witnesses are reproducible and minimal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codes
from .errors import RankNotOneError, TooLargeError

_DEFAULT_CAP_LOG2 = 20
_ELEMENT_CAP = 2**16  # refuse to materialize rings beyond this many elements


@dataclass
class OracleReport:
    checked: str
    instance_size: float  # log2 of the ambient |R|^N
    verdict: str  # "pass" | "fail"
    witness: object = None
    details: tuple = ()

    def passed(self):
        return self.verdict == "pass"

    def to_json(self):
        return {
            "checked": self.checked,
            "instance_size_log2": self.instance_size,
            "verdict": self.verdict,
            "witness": self.witness,
            "details": list(self.details),
        }


class _Space:
    """Coordinate bookkeeping for R^N: caps, key weights, element tables."""

    def __init__(self, ring, N):
        if ring.card > _ELEMENT_CAP:
            raise TooLargeError(f"ring with {ring.card} elements is beyond the oracle cap")
        if ring.card**N > 2**62:
            raise TooLargeError(
                f"|R|^N = 2^{N * np.log2(ring.card):.1f} is beyond the oracle's 2^62 key range"
            )
        self.ring = ring
        self.N = N
        self.caps = np.array(list(ring.col_mod) * ring.r * N, dtype=np.int64)
        self.L = len(self.caps)
        # first coordinate most significant: ascending keys = lexicographic order
        self.weights = np.append(np.cumprod(self.caps[:0:-1])[::-1], 1)
        # element index of one position's block: the ring's mixed radix
        self.radix = np.cumprod(np.concatenate(([1], self.caps[: ring.r * ring.k - 1])))
        self.elems = ring.elements()
        self.elem_coords = np.array(
            [[c for row in e.grid for c in row] for e in self.elems], dtype=np.int64
        )

    def encode(self, coords):
        return (np.asarray(coords, dtype=np.int64) % self.caps) @ self.weights

    def decode(self, keys):
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 1)
        return (keys // self.weights) % self.caps

    def positions(self, coords):
        """Element index at every position of each flat coordinate row."""
        return np.asarray(coords).reshape(len(coords), self.N, -1) @ self.radix

    def keys_of(self, positions):
        """Keys of the vectors with these element indices at their positions."""
        return self.encode(self.elem_coords[positions].reshape(len(positions), -1))

    def key_of_vector(self, vec):
        flat = [c for e in vec for row in e.grid for c in row]
        return int(self.encode(np.array(flat, dtype=np.int64).reshape(1, -1))[0])


def enumerate_handle(space, handle):
    """Codewords of a built handle, via closure of its stack rows."""
    keys = np.zeros(1, dtype=np.int64)
    for row in handle.stack.rows:
        keys = _closure_keys_from(space, keys, row)
    return keys


def _check_cap(ring, N, cap_log2):
    size = N * ring.log_p_card * np.log2(ring.p)
    if size > cap_log2:
        raise TooLargeError(f"|R|^N = 2^{size:.1f} exceeds cap 2^{cap_log2}")
    return size


def _trace_pairing(ring):
    """S-coordinates of Tr(e c), each modulo its column order."""
    return (lambda e, c: ring.trace_to_base(e * c).grid[0]), ring.col_mod


def _character_pairing(ring):
    """beta(e, c) = sum_j w_j e_j c_j modulo p^n, with w_j = p from x^t on."""
    if ring.r != 1:
        raise RankNotOneError("character duality needs a rank-1 ring")
    wt = [1 if j < ring.t else ring.p for j in range(ring.k)]

    def beta(e, c):
        return (sum(w * a * z for w, a, z in zip(wt, e.grid[0], c.grid[0])) % ring.pn,)

    return beta, (ring.pn,)


def _pairing_tables(space, gens, pair):
    """Per generator and position: row j holds entry j of pair(elem, g_pos)."""
    return [[np.array([pair(e, c) for e in space.elems]).T.copy() for c in g] for g in gens]


def _survey_ambient(space, tables, mods):
    """Keys of all vectors in R^N whose pairing with every tabled generator,
    summed over the positions, is zero modulo mods."""
    card, N = space.ring.card, space.N
    total = card**N
    out = []
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        pos_idx = [(idx // card**pos) % card for pos in range(N)]
        mask = np.ones(len(idx), dtype=bool)
        for per_pos in tables:
            for j, mod in enumerate(mods):
                acc = per_pos[0][j][pos_idx[0]]
                for pos in range(1, N):
                    acc += per_pos[pos][j][pos_idx[pos]]
                mask &= acc % mod == 0
            if not mask.any():
                break
        if mask.any():
            out.append(space.keys_of(np.stack([at[mask] for at in pos_idx], axis=1)))
    return np.unique(np.concatenate(out)) if out else np.zeros(0, dtype=np.int64)


def _brute_dual(code, cap_log2, pairing):
    ring, N = code.ring, code.N
    _check_cap(ring, N, cap_log2)
    space = _Space(ring, N)
    pair, mods = pairing(ring)
    gens = [codes.unflatten_vector(ring, row, N) for row in code.stack.rows]
    return space, _survey_ambient(space, _pairing_tables(space, gens, pair), mods)


def brute_dual_trace(code, cap_log2=_DEFAULT_CAP_LOG2):
    """{a in R^N : (a, b)_Tr = 0 for all b in C} by full enumeration."""
    return _brute_dual(code, cap_log2, _trace_pairing)


def brute_dual_character(code, cap_log2=_DEFAULT_CAP_LOG2):
    """{a : sum_i beta(a_i, b_i) = 0 for all b in C} by full enumeration."""
    return _brute_dual(code, cap_log2, _character_pairing)


def _witness_vector(space, keys):
    if len(keys) == 0:
        return None
    vec = codes.unflatten_vector(space.ring, space.decode(keys[:1])[0], space.N)
    return [e.to_json() for e in vec]


def verify_additive_cyclic(space, keys, base="chain"):
    """Closure under addition, base scalars, and the cyclic shift.

    base "chain" additionally checks multiplication by x (S-scalars for the
    Galois family are Z_{p^n}-combinations of x powers); base "zpn" checks
    additive closure only, which is Z_{p^n}-linearity.
    """
    ring, per = space.ring, space.ring.r * space.ring.k
    keys = np.unique(np.asarray(keys, dtype=np.int64))
    size = float(np.log2(max(len(keys), 1)))
    if 0 not in keys:
        return OracleReport("additive+cyclic closure", size, "fail", witness=[0], details=("missing zero",))

    # regrow the keys from their least member not yet generated
    regenerated = np.zeros(1, dtype=np.int64)
    while len(regenerated) <= len(keys):
        missing = np.setdiff1d(keys, regenerated, assume_unique=True)
        if not len(missing):
            break
        regenerated = _closure_keys_from(space, regenerated, space.decode(missing[:1])[0])
    if not np.array_equal(regenerated, keys):
        extra = np.setdiff1d(regenerated, keys)
        witness = _witness_vector(space, extra if len(extra) else keys)
        return OracleReport(
            "additive+cyclic closure", size, "fail", witness=witness,
            details=("not closed under addition",),
        )

    coords = space.decode(keys)
    images = [("not shift closed", space.encode(np.roll(coords, per, axis=1)))]
    if base == "chain" and not ring.x.is_zero():
        x_index = np.array([ring.index_of(ring.x * e) for e in space.elems])
        images.append(("not closed under x", space.keys_of(x_index[space.positions(coords)])))
    for detail, image in images:
        bad = np.setdiff1d(image, keys)
        if len(bad):
            return OracleReport(
                "additive+cyclic closure", size, "fail",
                witness=_witness_vector(space, bad), details=(detail,),
            )
    return OracleReport("additive+cyclic closure", size, "pass")


def _closure_keys_from(space, keys, row):
    """Sorted keys of the subgroup keys + <row>, row in flat coordinates."""
    row = np.asarray(row, dtype=np.int64) % space.caps
    if not row.any():
        return keys
    while True:
        coords = space.decode(keys)
        shifted = space.encode(coords + row)
        merged = np.unique(np.concatenate([keys, shifted]))
        if len(merged) == len(keys):
            return merged
        keys = merged


def _mu_identity_samples(space, keys_a, keys_b, rng, samples):
    """Check a(X) mu(b(X)) = 0 <=> all shifted Euclidean products vanish."""
    ring, N = space.ring, space.N
    if len(keys_a) == 0 or len(keys_b) == 0:
        return None
    for _ in range(samples):
        ka = keys_a[rng.integers(0, len(keys_a))]
        kb = keys_b[rng.integers(0, len(keys_b))]
        a, b = (codes.unflatten_vector(ring, row, N) for row in space.decode([ka, kb]))
        # local cyclic convolution of a with the reversal of b
        prod = [ring.zero] * N
        for i in range(N):
            for j in range(N):
                prod[(i - j) % N] = prod[(i - j) % N] + a[i] * b[j]
        conv_zero = all(c.is_zero() for c in prod)
        euclid_zero = True
        for h in range(N):
            acc = ring.zero
            for i in range(N):
                acc = acc + a[i] * b[(i - h) % N]
            if not acc.is_zero():
                euclid_zero = False
                break
        if conv_zero != euclid_zero:
            return [e.to_json() for e in a] + [e.to_json() for e in b]
    return None


def cross_check(spec, cap_log2=_DEFAULT_CAP_LOG2, mu_samples=32, seed=0):
    """Build a spec, compare its closed-form dual with the brute dual, check
    cardinality bookkeeping, linearity/cyclicity, and sampled mu-identity checks."""
    from . import eisenstein_codes as ec
    from . import galois_codes as gc

    if isinstance(spec, gc.GaloisCodeSpec):
        family = "galois"
    elif isinstance(spec, ec.EisensteinCodeSpec):
        family = "eisenstein"
    else:
        raise TypeError(f"not a code spec: {spec!r}")

    ring, N = spec.ring, spec.N
    size = _check_cap(ring, N, cap_log2)
    space = _Space(ring, N)
    details = []

    if family == "galois":
        code = gc.build_galois_code(spec)
        dual_handle = gc.build_galois_code(gc.dual_galois_code(spec))
        _, brute = brute_dual_trace(code, cap_log2)
        formula_log = gc.log_cardinality(spec)
        base = "chain"
    else:
        code = ec.build_eisenstein_code(spec)
        dual_handle = ec.eisenstein_dual_code(code)
        _, brute = brute_dual_character(code, cap_log2)
        formula_log = code.log_p_card
        base = "zpn"

    code_keys = enumerate_handle(space, code)
    dual_keys = enumerate_handle(space, dual_handle)

    if len(code_keys) != ring.p**code.log_p_card or formula_log != code.log_p_card:
        return OracleReport(
            f"{family} cross-check", size, "fail",
            witness={"enumerated_log_p": float(np.log2(len(code_keys)) / np.log2(ring.p))},
            details=("cardinality mismatch",),
        )
    details.append(f"|C| = p^{code.log_p_card} confirmed by enumeration")

    if not np.array_equal(dual_keys, brute):
        diff = np.setdiff1d(dual_keys, brute)
        if len(diff) == 0:
            diff = np.setdiff1d(brute, dual_keys)
        return OracleReport(
            f"{family} cross-check", size, "fail",
            witness=_witness_vector(space, diff), details=("dual mismatch",),
        )
    details.append(f"dual = brute dual ({len(brute)} words)")

    lin = verify_additive_cyclic(space, code_keys, base=base)
    if not lin.passed():
        return OracleReport(f"{family} cross-check", size, "fail",
                            witness=lin.witness, details=lin.details)
    details.append("code is additive and cyclic")

    rng = np.random.default_rng(seed)
    bad = _mu_identity_samples(space, code_keys, dual_keys, rng, mu_samples)
    if bad is not None:
        return OracleReport(f"{family} cross-check", size, "fail",
                            witness=bad, details=("mu-identity equivalence failed",))
    details.append(f"mu-identity equivalence sampled x{mu_samples}")

    return OracleReport(f"{family} cross-check", size, "pass", details=tuple(details))
