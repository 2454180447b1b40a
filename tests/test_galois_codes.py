"""Galois-additive codes: builds, closed-form trace duals, decomposition."""

import itertools

import numpy as np
import pytest

from chaincodes import codes, galois_codes as gc, modlinalg
from chaincodes.errors import (
    LengthMismatchError,
    NotCyclicError,
    NotDecomposableError,
    SpecShapeError,
    TooLargeError,
)
from chaincodes.idempotents import idempotent_system, trace_dual_basis
from chaincodes.modlinalg import GeneratorStack
from chaincodes.rings import ChainRing


EX_E = ((0, 2), (1, 3))


def build(ring, N, e, basis="omega"):
    return gc.build_galois_code(gc.GaloisCodeSpec(ring=ring, N=N, e=e, basis=basis))


def test_build_worked_example(ring_gal):
    code = build(ring_gal, 3, EX_E)
    assert code.log_p_card == 8


def test_build_zero_and_full(ring_gal):
    m = ring_gal.m
    zero = build(ring_gal, 3, [[m, m], [m, m]])
    assert zero.log_p_card == 0
    full = build(ring_gal, 3, [[0, 0], [0, 0]])
    assert full.log_p_card == 3 * ring_gal.log_p_card


def test_spec_shape_errors(ring_gal):
    with pytest.raises(SpecShapeError):
        build(ring_gal, 3, [[0, 0]])  # missing a coset row
    with pytest.raises(SpecShapeError):
        build(ring_gal, 3, [[0], [0]])  # missing a column
    with pytest.raises(SpecShapeError):
        build(ring_gal, 3, [[0, 9], [0, 0]])  # exponent out of range


def test_dual_worked_example(ring_gal):
    spec = gc.GaloisCodeSpec(ring=ring_gal, N=3, e=EX_E)
    dual = gc.dual_galois_code(spec)
    assert dual.basis == "theta"
    dcode = gc.build_galois_code(dual)
    assert dcode.log_p_card == 10
    code = gc.build_galois_code(spec)
    assert code.log_p_card + dcode.log_p_card == 18
    # trace orthogonality on all generator pairs
    for ra in code.stack.rows:
        a = codes.unflatten_vector(ring_gal, ra, 3)
        for rb in dcode.stack.rows:
            b = codes.unflatten_vector(ring_gal, rb, 3)
            assert codes.trace_inner_product(ring_gal, a, b).is_zero()


def test_dual_zero_is_full(ring_gal):
    m = ring_gal.m
    spec = gc.GaloisCodeSpec(ring=ring_gal, N=3, e=[[m, m], [m, m]])
    dual = gc.build_galois_code(gc.dual_galois_code(spec))
    assert dual.log_p_card == 3 * ring_gal.log_p_card


def test_dual_involution(ring_gal, ring_m4, ring_z4):
    rng = np.random.default_rng(11)
    for ring, N in [(ring_gal, 3), (ring_m4, 3), (ring_z4, 7)]:
        sys = idempotent_system(ring, N)
        shape = (sys.cls.v + 1, ring.r)
        for _ in range(6):
            e = tuple(
                tuple(int(rng.integers(0, ring.m + 1)) for _ in range(shape[1]))
                for _ in range(shape[0])
            )
            spec = gc.GaloisCodeSpec(ring=ring, N=N, e=e)
            dd = gc.dual_galois_code(gc.dual_galois_code(spec))
            assert dd.e == spec.e and dd.basis == spec.basis
            a = gc.build_galois_code(spec)
            b = gc.build_galois_code(dd)
            assert codes.handles_equal(a, b)


def test_log_cardinality_examples(ring_gal):
    spec = gc.GaloisCodeSpec(ring=ring_gal, N=3, e=EX_E)
    assert gc.log_cardinality(spec) == 8
    assert gc.log_cardinality(gc.dual_galois_code(spec)) == 10
    full = gc.GaloisCodeSpec(ring=ring_gal, N=3, e=[[0, 0], [0, 0]])
    assert gc.log_cardinality(full) == 18


def test_counting_identity_randomized(ring_gal, ring_eis, ring_m4, ring_quasi, ring_p3):
    rng = np.random.default_rng(5)
    for ring, N in [
        (ring_gal, 3),
        (ring_eis, 3),
        (ring_m4, 5),
        (ring_quasi, 5),
        (ring_p3, 4),
    ]:
        sys = idempotent_system(ring, N)
        shape = (sys.cls.v + 1, ring.r)
        for _ in range(8):
            e = tuple(
                tuple(int(rng.integers(0, ring.m + 1)) for _ in range(shape[1]))
                for _ in range(shape[0])
            )
            spec = gc.GaloisCodeSpec(ring=ring, N=N, e=e)
            code = gc.build_galois_code(spec)
            dual = gc.build_galois_code(gc.dual_galois_code(spec))
            assert code.log_p_card == gc.log_cardinality(spec)
            assert code.log_p_card + dual.log_p_card == N * ring.log_p_card


def test_self_duality_rank_one(ring_eis, ring_m4, ring_quasi):
    # r = 1, m odd: no spec builds a self-dual code
    for ring in (ring_eis, ring_quasi):
        for e in itertools.product(range(ring.m + 1), repeat=2):
            spec = gc.GaloisCodeSpec(ring=ring, N=3, e=[[e[0]], [e[1]]])
            assert not gc.is_self_dual(spec)
            code = gc.build_galois_code(spec)
            dual = gc.build_galois_code(gc.dual_galois_code(spec))
            assert not codes.handles_equal(code, dual)
    # m = 4: exactly the all-2 matrix is self-dual (checked by building both)
    hits = []
    for e in itertools.product(range(5), repeat=2):
        spec = gc.GaloisCodeSpec(ring=ring_m4, N=3, e=[[e[0]], [e[1]]])
        code = gc.build_galois_code(spec)
        dual = gc.build_galois_code(gc.dual_galois_code(spec))
        same = codes.handles_equal(code, dual)
        assert same == gc.is_self_dual(spec)
        if same:
            hits.append(e)
    assert hits == [(2, 2)]


def test_self_duality_rank_two_exceptions(ring_gal):
    """For r = 2 and odd m, build-level self-dual codes do exist.

    The spec-level predicate (m even, all exponents m/2) stays false, but
    x*theta_1 = x on this ring makes four exponent matrices build codes equal
    to their duals; one of them was confirmed self-dual by exhaustive
    word-by-word trace orthogonality.
    """
    hits = []
    for e in itertools.product(range(4), repeat=4):
        spec = gc.GaloisCodeSpec(ring=ring_gal, N=3, e=[e[:2], e[2:]])
        assert not gc.is_self_dual(spec)  # the closed-form predicate
        code = gc.build_galois_code(spec)
        dual = gc.build_galois_code(gc.dual_galois_code(spec))
        if codes.handles_equal(code, dual):
            hits.append(e)
            assert code.log_p_card == 9
    assert hits == [(1, 2, 0, 3), (1, 2, 1, 2), (1, 2, 2, 1), (1, 2, 3, 0)]


def test_decompose_round_trip(ring_gal):
    code = build(ring_gal, 3, EX_E)
    spec = gc.decompose_to_spec(code)
    assert spec.e == EX_E and spec.basis == "omega"
    m = ring_gal.m
    zero = build(ring_gal, 3, [[m, m], [m, m]])
    assert gc.decompose_to_spec(zero).e == ((m, m), (m, m))
    full = build(ring_gal, 3, [[0, 0], [0, 0]])
    assert gc.decompose_to_spec(full).e == ((0, 0), (0, 0))


def test_decompose_theta_builds(ring_gal):
    """Theta builds with uniform row exponents collapse to omega builds; mixed
    exponents can leave the x^e-component-sum family entirely, and that is
    surfaced as NotDecomposable instead of silently mis-decomposed."""
    uniform = gc.GaloisCodeSpec(ring=ring_gal, N=3, e=[[2, 2], [1, 3]], basis="theta")
    code = gc.build_galois_code(uniform)
    back = gc.decompose_to_spec(code)
    assert back.basis == "omega"
    assert codes.handles_equal(gc.build_galois_code(back), code)

    mixed = gc.GaloisCodeSpec(ring=ring_gal, N=3, e=EX_E, basis="theta")
    diagonal = gc.build_galois_code(mixed)
    # theta_0 K_0 + x^2 theta_1 K_0 is a "diagonal" S-submodule of L_0: it is
    # S-linear and cyclic but not a sum of x^e omega^j K_i ideals
    assert codes.is_shift_closed(diagonal) and codes.is_x_closed(diagonal)
    with pytest.raises(NotDecomposableError):
        gc.decompose_to_spec(diagonal)


def test_decompose_rejects_non_cyclic(ring_gal):
    vec = [ring_gal.one, ring_gal.zero, ring_gal.zero]
    handle = codes.handle_from_vectors("galois", ring_gal, 3, None, [vec])
    with pytest.raises((NotCyclicError, NotDecomposableError)):
        gc.decompose_to_spec(handle)


def test_closure_queries_answer_false(ring_gal):
    one, zero = ring_gal.one, ring_gal.zero
    single = codes.handle_from_vectors("galois", ring_gal, 3, None, [[one, zero, zero]])
    assert not codes.is_shift_closed(single)
    assert not codes.is_x_closed(single)
    shifts = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    cyclic = codes.handle_from_vectors("galois", ring_gal, 3, None, shifts)
    assert codes.is_shift_closed(cyclic)
    assert not codes.is_x_closed(cyclic)
    with pytest.raises(NotDecomposableError):
        gc.decompose_to_spec(cyclic)


def test_trace_inner_product_examples(ring_gal):
    ring = ring_gal
    e1 = [ring.one, ring.zero, ring.zero]
    assert codes.trace_inner_product(ring, e1, e1) == ring.from_int(ring.r)
    theta = trace_dual_basis(ring)
    assert codes.trace_inner_product(ring, [ring.omega], [theta[1]]) == ring.one
    with pytest.raises(LengthMismatchError):
        codes.trace_inner_product(ring, e1, [ring.one])


def test_weight_enumerator_examples(ring_gal, ring_eis):
    m = ring_gal.m
    zero = build(ring_gal, 3, [[m, m], [m, m]])
    assert codes.weight_enumerator(zero) == {0: 1}
    # K_0 over Z_4 in R^3: {(a,a,a)}: three nonzero words of weight 3
    spec = gc.GaloisCodeSpec(ring=ring_eis, N=3, e=[[1], [3]])
    code = gc.build_galois_code(spec)
    # x K_0 = {(a,a,a): a in xS} has 2 elements; build K_0 itself instead
    spec0 = gc.GaloisCodeSpec(ring=ring_eis, N=3, e=[[0], [3]])
    code0 = gc.build_galois_code(spec0)
    w = codes.weight_enumerator(code0)
    assert sum(w.values()) == 2**code0.log_p_card
    assert w[0] == 1 and set(w) == {0, 3}
    ex = build(ring_gal, 3, EX_E)
    wex = codes.weight_enumerator(ex)
    assert sum(wex.values()) == 2**8
    assert min(k for k in wex if k > 0) == 2


def test_weight_enumerator_against_direct_count(ring_gal):
    """The streaming weight counter agrees with weights read off the words."""
    code = build(ring_gal, 3, EX_E)
    table = codes.weight_enumerator(code)
    per = ring_gal.r * ring_gal.k
    direct = {}
    for row in codes.enumerate_words(code):
        wt = sum(1 for pos in range(3) if any(row[pos * per : (pos + 1) * per]))
        direct[wt] = direct.get(wt, 0) + 1
    assert table == direct == {0: 1, 2: 21, 3: 234}


def test_weight_enumerator_cap(ring_gal):
    full = build(ring_gal, 3, [[0, 0], [0, 0]])
    with pytest.raises(TooLargeError):
        codes.weight_enumerator(full, cap_log2=10)


def test_built_codes_are_cyclic_and_s_closed(ring_gal, ring_m4):
    rng = np.random.default_rng(23)
    for ring, N in [(ring_gal, 3), (ring_m4, 3)]:
        sys = idempotent_system(ring, N)
        for _ in range(5):
            e = tuple(
                tuple(int(rng.integers(0, ring.m + 1)) for _ in range(ring.r))
                for _ in range(sys.cls.v + 1)
            )
            code = build(ring, N, e)
            assert codes.is_shift_closed(code)
            assert codes.is_x_closed(code)
            dual = gc.build_galois_code(gc.dual_galois_code(gc.GaloisCodeSpec(ring=ring, N=N, e=e)))
            assert codes.is_shift_closed(dual)


def kernel_trace_dual(ring, N, code):
    """Trace dual via congruence solving: independent of the closed form and
    of brute enumeration, and feasible far beyond the oracle caps.

    Over the Z_{p^n}-basis b_u = w^i x^j (u = i*k + j), Tr(b_u g) is
    sum_v g_v Tr(b_u b_v), so the Gram tensor T_s[u, v] = coordinate x^s of
    Tr(b_u b_v), applied at every position as kron(I_N, T_s), gives each
    constraint column at once.
    """
    L = N * ring.r * ring.k
    basis = [ring.element_from_term(i, j, 1) for i in range(ring.r) for j in range(ring.k)]
    gram = np.array(
        [[ring.trace_to_base(a * b).grid[0] for b in basis] for a in basis], dtype=np.int64
    )
    scale = np.array([ring.p if s >= ring.t else 1 for s in range(ring.k)], dtype=np.int64)
    blocks = []
    for row in code.stack.rows:
        block = np.column_stack(
            [np.kron(np.eye(N, dtype=np.int64), gram[:, :, s]) @ np.asarray(row, dtype=np.int64)
             for s in range(ring.k)]
        )
        blocks.append(block * scale % ring.pn)
    cons = np.hstack(blocks) if blocks else np.zeros((L, 0), dtype=np.int64)
    ker = modlinalg.kernel_rows(cons, ring.p, ring.n)
    stack = GeneratorStack(ker, ring.p, ring.n, codes.ambient_caps(ring, N))
    return codes.handle_from_stack("galois", ring, N, None, stack)


def test_closed_dual_equals_kernel_dual_beyond_brute_force():
    """On ambients up to 2^63 the congruence-solved dual still matches."""
    rng = np.random.default_rng(77)
    setups = [
        (ChainRing(2, 2, 3, 2, 1, [1, 0]), 7, 3),  # |R^N| = 2^63
        (ChainRing(2, 2, 2, 2, 1, [1, 0], f=[1, 1, 1]), 5, 3),  # 2^30
        (ChainRing(3, 2, 2, 2, 1, [1, 0]), 4, 2),  # 3^24
    ]
    for ring, N, count in setups:
        from chaincodes.idempotents import idempotent_system

        sys = idempotent_system(ring, N)
        for _ in range(count):
            e = tuple(
                tuple(int(rng.integers(0, ring.m + 1)) for _ in range(ring.r))
                for _ in range(sys.cls.v + 1)
            )
            spec = gc.GaloisCodeSpec(ring=ring, N=N, e=e)
            code = gc.build_galois_code(spec)
            closed = gc.build_galois_code(gc.dual_galois_code(spec))
            honest = kernel_trace_dual(ring, N, code)
            assert codes.handles_equal(closed, honest), (ring, N, e)


def test_wider_ring_zoo_soak():
    """Random specs on rings with mixed (p, n, r, k, t) and nontrivial g tails:
    closed-form dual = congruence-solved dual, counting, involution, and
    omega-spec decomposition round trips."""
    zoo = [
        (ChainRing(2, 2, 2, 3, 2, [1, 1, 0]), [3, 5]),
        (ChainRing(3, 2, 2, 2, 1, [2, 1]), [2, 4]),
        (ChainRing(2, 3, 2, 2, 1, [1, 1]), [3]),
        (ChainRing(5, 1, 2, 2, 2, [0, 0]), [3]),
        (ChainRing(2, 1, 3, 2, 2, [0, 0]), [7]),
    ]
    rng = np.random.default_rng(31337)
    for ring, lengths in zoo:
        for N in lengths:
            sys = idempotent_system(ring, N)
            shape = (sys.cls.v + 1, ring.r)
            for _ in range(3):
                e = tuple(
                    tuple(int(rng.integers(0, ring.m + 1)) for _ in range(shape[1]))
                    for _ in range(shape[0])
                )
                spec = gc.GaloisCodeSpec(ring=ring, N=N, e=e)
                code = gc.build_galois_code(spec)
                dspec = gc.dual_galois_code(spec)
                dual = gc.build_galois_code(dspec)
                assert code.log_p_card == gc.log_cardinality(spec)
                assert code.log_p_card + dual.log_p_card == N * ring.r * ring.m
                assert codes.handles_equal(
                    gc.build_galois_code(gc.dual_galois_code(dspec)), code
                )
                assert codes.handles_equal(dual, kernel_trace_dual(ring, N, code))
                assert gc.decompose_to_spec(code).e == spec.e


def test_r3_n7_counting(ring_gal):
    """Rank-3 classification with N=7: counting identity and involution."""
    ring = ChainRing(2, 2, 3, 2, 1, [1, 0])
    sys = idempotent_system(ring, 7)
    assert (sys.cls.u, sys.cls.v) == (0, 2)
    rng = np.random.default_rng(2)
    for _ in range(4):
        e = tuple(
            tuple(int(rng.integers(0, ring.m + 1)) for _ in range(3)) for _ in range(3)
        )
        spec = gc.GaloisCodeSpec(ring=ring, N=7, e=e)
        code = gc.build_galois_code(spec)
        dual = gc.build_galois_code(gc.dual_galois_code(spec))
        assert code.log_p_card + dual.log_p_card == 7 * ring.log_p_card
        for ra in code.stack.rows[:6]:
            a = codes.unflatten_vector(ring, ra, 7)
            for rb in dual.stack.rows[:6]:
                b = codes.unflatten_vector(ring, rb, 7)
                assert codes.trace_inner_product(ring, a, b).is_zero()
        assert codes.handles_equal(gc.build_galois_code(gc.dual_galois_code(gc.dual_galois_code(spec))), code)
