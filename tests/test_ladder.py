"""The component ladder against the per-(component, x-power) builders.

The reference builders below are the loops the ladder replaced: one ring
product x^(e+w) * b_j and one `times` call per rung, and one shifted copy per
X^l.  `reference_decompose` is the matching `min_exponent` search, one
single-vector membership test per rung.  The ladder must give the same
generator rows in the same order, so the Howell rows, pivots and decomposed
specs are byte-identical.
"""

import zlib

import numpy as np
import pytest

from chaincodes import codes, eisenstein_codes as ec, galois_codes as gc, modlinalg
from chaincodes.errors import NotCyclicError, NotDecomposableError
from chaincodes.idempotents import idempotent_system
from chaincodes.rings import ChainRing


def reference_shifts(ring, gen, count):
    per = ring.r * ring.k
    return [np.roll(gen, l * per, axis=-1) for l in range(count)]


def reference_components(sys, basis):
    """(i, j, flat generator, scalar) per component, in spec order."""
    ring, cls = sys.ring, sys.cls
    if basis == "omega":
        scalars = [ring.one]
        for _ in range(ring.r - 1):
            scalars.append(scalars[-1] * ring.omega)
    else:
        scalars = list(sys.theta)
    for i in range(cls.v + 1):
        if i <= cls.u:
            flat = codes.flatten_vector(ring, sys.eps[i])
            for j in range(ring.r):
                yield i, j, flat, scalars[j]
        else:
            for j in range(ring.r):
                yield i, j, codes.flatten_vector(ring, sys.eps_split[(i, j)]), ring.one


def reference_galois_rows(spec):
    sys = idempotent_system(spec.ring, spec.N)
    ring = spec.ring
    rows = []
    for i, j, flat, scalar in reference_components(sys, spec.basis):
        e = spec.e[i][j]
        for w in range(min(ring.k, ring.m - e)):
            gen = codes.times(ring, flat, scalar * ring.x_pow(e + w))
            rows.extend(reference_shifts(ring, gen, sys.cls.kappa[i]))
    return rows


def reference_eisenstein_rows(spec):
    sys = idempotent_system(spec.ring, spec.N)
    ring = spec.ring
    rows = []
    for i in range(sys.cls.v + 1):
        flat = codes.flatten_vector(ring, sys.eps[i])
        for j in range(ring.m):
            if spec.a[i][j]:
                gen = codes.times(ring, flat, ring.x_pow(j))
                rows.extend(reference_shifts(ring, gen, sys.cls.kappa[i]))
    return rows


def reference_decompose(code):
    ring, N = code.ring, code.N
    sys = idempotent_system(ring, N)
    if not codes.is_shift_closed(code):
        raise NotCyclicError("code is not closed under the cyclic shift")
    if not codes.is_x_closed(code):
        raise NotDecomposableError("code is not closed under multiplication by x")

    def min_exponent(flat, scalar):
        for w in range(ring.m):
            if modlinalg.contains(code.stack, codes.times(ring, flat, scalar * ring.x_pow(w))):
                return w
        return ring.m

    e = [[ring.m] * ring.r for _ in range(sys.cls.v + 1)]
    for i, j, flat, scalar in reference_components(sys, "omega"):
        e[i][j] = min_exponent(flat, scalar)
    spec = gc.GaloisCodeSpec(ring=ring, N=N, e=e, basis="omega")
    rows = reference_galois_rows(spec)
    rebuilt = codes.handle_from_rows("galois", ring, N, spec, rows)
    if not modlinalg.stacks_equal(rebuilt.stack, code.stack):
        raise NotDecomposableError("code is not a sum of x^e component ideals")
    return spec


RINGS = {
    "demo": ChainRing(2, 2, 2, 2, 1, [1, 0], f=[1, 1, 1]),
    "eis": ChainRing(2, 2, 1, 2, 1, [1, 0]),
    "quasi": ChainRing(2, 1, 1, 3, 3, [1, 0, 0]),
    "p3": ChainRing(3, 2, 1, 2, 1, [1, 0]),
}

GALOIS_CASES = [
    ("demo", 3, "omega"), ("demo", 3, "theta"),
    ("demo", 7, "omega"), ("demo", 7, "theta"),
    ("demo", 21, "omega"), ("demo", 21, "theta"),
    ("eis", 7, "omega"), ("eis", 15, "theta"),
    ("quasi", 7, "omega"), ("quasi", 15, "omega"),
    ("p3", 8, "omega"), ("p3", 13, "theta"),
]

EISENSTEIN_CASES = [("eis", 7), ("eis", 15), ("quasi", 7), ("quasi", 15), ("p3", 8), ("p3", 13)]


def seeded_galois_specs(name, N, basis, count=4):
    ring = RINGS[name]
    rng = np.random.default_rng(zlib.crc32(f"{name}-{N}-{basis}".encode()))
    shape = (idempotent_system(ring, N).cls.v + 1, ring.r)
    specs = [gc.GaloisCodeSpec(ring=ring, N=N, e=np.full(shape, e), basis=basis)
             for e in (0, ring.m)]
    for _ in range(count):
        e = rng.integers(0, ring.m + 1, size=shape)
        specs.append(gc.GaloisCodeSpec(ring=ring, N=N, e=e, basis=basis))
    return specs


def seeded_eisenstein_specs(name, N, count=4):
    ring = RINGS[name]
    rng = np.random.default_rng(N * 7919 + ring.p)
    shape = (idempotent_system(ring, N).cls.v + 1, ring.m)
    specs = [ec.EisensteinCodeSpec(ring=ring, N=N, a=np.full(shape, a)) for a in (0, 1)]
    for _ in range(count):
        specs.append(ec.EisensteinCodeSpec(ring=ring, N=N, a=rng.integers(0, 2, size=shape)))
    return specs


@pytest.fixture
def generator_rows(monkeypatch):
    """The generator matrix each builder hands to handle_from_rows."""
    seen = []
    original = codes.handle_from_rows

    def recording(family, ring, N, spec, rows):
        seen.append(np.vstack(rows) if len(rows) else None)
        return original(family, ring, N, spec, rows)

    monkeypatch.setattr(codes, "handle_from_rows", recording)
    return seen


def assert_same_code(handle, ref_rows, seen):
    ring, N = handle.ring, handle.N
    ref_mat = np.vstack(ref_rows) if ref_rows else np.zeros((0, N * ring.r * ring.k), np.int64)
    assert seen[-1].dtype == ref_mat.dtype and seen[-1].tobytes() == ref_mat.tobytes()
    ref = codes.handle_from_rows(handle.family, ring, N, handle.spec, ref_rows)
    assert handle.stack.rows.dtype == ref.stack.rows.dtype
    assert handle.stack.rows.shape == ref.stack.rows.shape
    assert handle.stack.rows.tobytes() == ref.stack.rows.tobytes()
    assert handle.stack.pivots == ref.stack.pivots
    assert handle.log_p_card == ref.log_p_card


@pytest.mark.parametrize("name,N,basis", GALOIS_CASES)
def test_galois_ladder_matches_reference_builder(name, N, basis, generator_rows):
    for spec in seeded_galois_specs(name, N, basis):
        handle = gc.build_galois_code(spec)
        assert_same_code(handle, reference_galois_rows(spec), generator_rows)


@pytest.mark.parametrize("name,N", EISENSTEIN_CASES)
def test_eisenstein_ladder_matches_reference_builder(name, N, generator_rows):
    for spec in seeded_eisenstein_specs(name, N):
        handle = ec.build_eisenstein_code(spec)
        assert_same_code(handle, reference_eisenstein_rows(spec), generator_rows)


def outcome(fn, code):
    try:
        return fn(code).to_json()
    except (NotCyclicError, NotDecomposableError) as exc:
        return type(exc)


@pytest.mark.parametrize("name,N,basis", GALOIS_CASES)
def test_decompose_matches_reference_search(name, N, basis):
    for spec in seeded_galois_specs(name, N, basis):
        code = gc.build_galois_code(spec)
        got = outcome(gc.decompose_to_spec, code)
        assert got == outcome(reference_decompose, code)
        if basis == "omega":
            assert got == spec.to_json()


def test_decompose_errors_match_reference_search():
    ring = RINGS["demo"]
    one, zero = ring.one, ring.zero
    single = codes.handle_from_vectors("galois", ring, 3, None, [[one, zero, zero]])
    shifts = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    cyclic = codes.handle_from_vectors("galois", ring, 3, None, shifts)
    diagonal = gc.build_galois_code(
        gc.GaloisCodeSpec(ring=ring, N=3, e=((0, 2), (1, 3)), basis="theta")
    )
    for code, error in [
        (single, NotCyclicError),
        (cyclic, NotDecomposableError),
        (diagonal, NotDecomposableError),
    ]:
        assert outcome(gc.decompose_to_spec, code) is error
        assert outcome(reference_decompose, code) is error


def test_decompose_makes_one_membership_pass(monkeypatch):
    """Beyond the two closure checks, one members call reads every rung."""
    spec = seeded_galois_specs("demo", 21, "omega")[-1]
    code = gc.build_galois_code(spec)
    calls = []
    original = modlinalg.members

    def counting(stack, vectors):
        calls.append(stack)
        return original(stack, vectors)

    monkeypatch.setattr(modlinalg, "members", counting)
    assert gc.decompose_to_spec(code) == spec
    assert len(calls) == 3


@pytest.mark.parametrize("name,N", [("demo", 3), ("demo", 7), ("eis", 15), ("p3", 8)])
@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_cyclic_rows_is_the_stacked_shift_loop(name, N, count):
    ring = RINGS[name]
    rng = np.random.default_rng(N + count)
    rows = rng.integers(0, ring.pn, size=(3, N * ring.r * ring.k))
    want = []
    for row in rows:
        shifted = row
        for _ in range(count):
            want.append(shifted)
            shifted = codes.shift_row(ring, shifted)
    want = np.array(want, dtype=np.int64).reshape(-1, rows.shape[1])
    got = codes.cyclic_rows(ring, rows, count)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got.shape == (3 * count, rows.shape[1])


@pytest.mark.parametrize("name,N", [("demo", 7), ("eis", 7), ("p3", 8)])
def test_x_ladder_rungs_are_x_powers(name, N):
    ring = RINGS[name]
    rng = np.random.default_rng(N)
    gens = rng.integers(0, ring.pn, size=(3, N * ring.r * ring.k))
    gens = codes.times(ring, gens, ring.one)  # reduce columns to their orders
    ladder = codes.x_ladder(ring, gens, ring.m + 1)
    assert ladder.shape == (3, ring.m + 1, gens.shape[1])
    for w in range(ring.m + 1):
        assert np.array_equal(ladder[:, w], codes.times(ring, gens, ring.x_pow(w)))
    assert not ladder[:, ring.m].any()  # x^m = 0
