"""The brute-force oracle against the closed-form machinery."""

import hashlib
import json

import numpy as np
import pytest

from chaincodes import codes, eisenstein_codes as ec, galois_codes as gc, oracle
from chaincodes.errors import RankNotOneError, TooLargeError
from chaincodes.rings import ChainRing


def test_brute_trace_dual_worked_example(ring_gal):
    spec = gc.GaloisCodeSpec(ring=ring_gal, N=3, e=[[0, 2], [1, 3]])
    code = gc.build_galois_code(spec)
    space, brute = oracle.brute_dual_trace(code)
    closed = gc.build_galois_code(gc.dual_galois_code(spec))
    closed_keys = oracle.enumerate_handle(space, closed)
    assert np.array_equal(brute, closed_keys)
    assert len(brute) == 2**10


def test_brute_trace_dual_trivial(ring_gal):
    m = ring_gal.m
    zero = gc.build_galois_code(gc.GaloisCodeSpec(ring=ring_gal, N=3, e=[[m, m], [m, m]]))
    space, brute = oracle.brute_dual_trace(zero)
    assert len(brute) == ring_gal.card**3
    full = gc.build_galois_code(gc.GaloisCodeSpec(ring=ring_gal, N=3, e=[[0, 0], [0, 0]]))
    _, brute_f = oracle.brute_dual_trace(full)
    assert brute_f.tolist() == [0]


def test_brute_character_dual_worked_example(ring_eis):
    spec = ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=((1, 1, 0), (0, 1, 0)))
    code = ec.build_eisenstein_code(spec)
    space, brute = oracle.brute_dual_character(code)
    k1 = ec.build_eisenstein_code(
        ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=((0, 0, 0), (1, 0, 0)))
    )
    assert np.array_equal(brute, oracle.enumerate_handle(space, k1))


def test_brute_character_length_one(ring_eis):
    """S inside R as a length-1 code: dual is xS; the zero code: dual is R."""
    R = ring_eis
    s_handle = codes.handle_from_vectors("eisenstein", R, 1, None, [[R.one]])
    space, brute = oracle.brute_dual_character(s_handle)
    want = sorted(space.key_of_vector([v]) for v in (R.zero, R.x))
    assert brute.tolist() == want
    zero_handle = codes.handle_from_vectors("eisenstein", R, 1, None, [])
    _, brute_z = oracle.brute_dual_character(zero_handle)
    assert len(brute_z) == R.card


def test_cap_enforced(ring_gal):
    spec = gc.GaloisCodeSpec(ring=ring_gal, N=3, e=[[0, 0], [0, 0]])
    code = gc.build_galois_code(spec)
    with pytest.raises(TooLargeError):
        oracle.brute_dual_trace(code, cap_log2=10)


def test_key_range_refused_above_2_62(ring_gal):
    """|R|^N = 2^66 passes a raised cap but does not fit an int64 key."""
    spec = gc.GaloisCodeSpec(ring=ring_gal, N=11, e=[[0, 0], [0, 0]])
    with pytest.raises(TooLargeError, match="2\\^62"):
        oracle.cross_check(spec, cap_log2=70)
    space = oracle._Space(ring_gal, 10)  # 2^60: the keys still fit
    assert int(space.weights[0]) * int(space.caps[0]) == ring_gal.card**10


def test_verify_additive_cyclic(ring_gal):
    spec = gc.GaloisCodeSpec(ring=ring_gal, N=3, e=[[0, 2], [1, 3]])
    code = gc.build_galois_code(spec)
    space = oracle._Space(ring_gal, 3)
    keys = oracle.enumerate_handle(space, code)
    rep = oracle.verify_additive_cyclic(space, keys, base="chain")
    assert rep.passed()
    # a single unshiftable vector: fails with a witness
    lone = np.array([0, space.key_of_vector([ring_gal.one, ring_gal.zero, ring_gal.zero])])
    rep2 = oracle.verify_additive_cyclic(space, lone, base="chain")
    assert not rep2.passed() and rep2.witness is not None
    # the zero code alone passes
    rep3 = oracle.verify_additive_cyclic(space, np.array([0]), base="chain")
    assert rep3.passed()


def test_cross_check_examples(ring_gal, ring_eis):
    spec = gc.GaloisCodeSpec(ring=ring_gal, N=3, e=[[0, 2], [1, 3]])
    assert oracle.cross_check(spec).passed()
    espec = ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=((1, 1, 0), (0, 1, 0)))
    assert oracle.cross_check(espec).passed()


def test_cross_check_catches_corruption(ring_gal):
    """A deliberately wrong dual disagrees with the brute dual, with witness."""
    spec = gc.GaloisCodeSpec(ring=ring_gal, N=3, e=[[0, 2], [1, 3]])
    code = gc.build_galois_code(spec)
    good = gc.dual_galois_code(spec)
    corrupted = gc.GaloisCodeSpec(
        ring=ring_gal, N=3,
        e=tuple(tuple(max(x - 1, 0) for x in row) for row in good.e),
        basis=good.basis,
    )
    space, brute = oracle.brute_dual_trace(code)
    bad_keys = oracle.enumerate_handle(space, gc.build_galois_code(corrupted))
    assert not np.array_equal(bad_keys, brute)
    diff = np.setdiff1d(bad_keys, brute)
    assert len(diff) > 0  # the witness pool is nonempty


def test_oracle_matrix_small():
    """A couple of fully independent instances from the wider ring zoo."""
    ring = ChainRing(2, 3, 1, 2, 1, [1, 0])  # Z_8[x]/<x^2+2, 4x>, |R| = 2^5
    spec = ec.EisensteinCodeSpec(
        ring=ring, N=3, a=((1, 0, 1, 0, 0), (0, 1, 0, 0, 0))
    )
    assert oracle.cross_check(spec).passed()
    f4 = ChainRing(2, 1, 2, 1, 1, [1], f=[1, 1, 1])
    # N=5 under p=2: cosets {0} and {1,2,3,4}, the latter splitting in two
    gspec = gc.GaloisCodeSpec(ring=f4, N=5, e=[[0, 1], [1, 0]])
    assert oracle.cross_check(gspec).passed()


PIN_RINGS = {
    "demo": ChainRing(2, 2, 2, 2, 1, [1, 0], f=[1, 1, 1]),
    "eis": ChainRing(2, 2, 1, 2, 1, [1, 0]),
    "quasi": ChainRing(2, 1, 1, 3, 3, [1, 0, 0]),
    "p3": ChainRing(3, 2, 1, 2, 1, [1, 0]),
    "z8": ChainRing(2, 3, 1, 2, 1, [1, 0]),  # Z_8[x]/<x^2+2, 4x>
}

# sha256 over verify_additive_cyclic reports (both bases) and both brute
# duals on seeded random spans; it pins the oracle's reports and witnesses.
ORACLE_PIN = "a68416bc7a39661fc498b446de5bc7d7121228aca4e6f10a10efa9d869343629"


def test_oracle_survey_pin():
    rng = np.random.default_rng(29)
    digest = hashlib.sha256()
    outcomes = set()
    for name, ring in PIN_RINGS.items():
        for N in (1, 2):
            space = oracle._Space(ring, N)
            for _ in range(2):
                rows = rng.integers(0, space.caps, size=(int(rng.integers(0, 3)), space.L))
                handle = codes.handle_from_rows("galois", ring, N, None, [rows])
                keys = oracle.enumerate_handle(space, handle)
                stray = space.encode(rng.integers(0, space.caps, size=(1, space.L)))
                for cand in (keys, keys[1:], np.union1d(keys, stray)):
                    for base in ("chain", "zpn"):
                        rep = oracle.verify_additive_cyclic(space, cand, base=base)
                        outcomes.update(rep.details or ("pass",))
                        digest.update(json.dumps(rep.to_json()).encode())
                for brute in (oracle.brute_dual_trace, oracle.brute_dual_character):
                    try:
                        digest.update(brute(handle)[1].tobytes())
                    except RankNotOneError as exc:
                        digest.update(str(exc).encode())
    assert outcomes == {"pass", "missing zero", "not closed under addition",
                        "not shift closed", "not closed under x"}
    assert digest.hexdigest() == ORACLE_PIN
