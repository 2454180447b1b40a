"""Eisenstein-additive codes and character-theoretic duality."""


import numpy as np
import pytest

from chaincodes import codes, eisenstein_codes as ec, modlinalg
from chaincodes.errors import (
    CertificateError,
    ClosureChangedCodeError,
    NonFreeModuleError,
    RankNotOneError,
    SpecShapeError,
    TooLargeError,
)
from chaincodes.rings import ChainRing

EX_A = ((1, 1, 0), (0, 1, 0))  # C = K_0 + xK_0 + xK_1


# the displayed character table: exponents of i = zeta_4, element order
# 0,1,2,3,x,x+1,x+2,x+3
REFERENCE_TABLE = [
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 2, 3, 0, 1, 2, 3],
    [0, 2, 0, 2, 0, 2, 0, 2],
    [0, 3, 2, 1, 0, 3, 2, 1],
    [0, 0, 0, 0, 2, 2, 2, 2],
    [0, 1, 2, 3, 2, 3, 0, 1],
    [0, 2, 0, 2, 2, 0, 2, 0],
    [0, 3, 2, 1, 2, 1, 0, 3],
]


def test_character_table_reference_values(ring_eis):
    assert ec.character_table(ring_eis).tolist() == REFERENCE_TABLE


@pytest.mark.parametrize("n", [11, 21])
def test_character_table_refuses_rings_above_cap(n, monkeypatch):
    """|R| > 2^10 would mean an |R|^2 table: refused before enumerating R."""
    ring = ChainRing(2, n, 1, 1, 1, [1])  # Z_{2^n}

    def enumerate_all():
        raise AssertionError("the ring was enumerated")

    monkeypatch.setattr(ring, "elements", enumerate_all)
    with pytest.raises(TooLargeError):
        ec.character_table(ring)


def test_pairing_examples(ring_eis):
    R = ring_eis
    assert ec.pairing(R.x, R.x) == 2
    assert ec.pairing(R.one, R.from_int(3)) == 3
    for z in R.elements():
        assert ec.pairing(R.zero, z) == 0
    # biadditivity
    a, b = R.from_int(3) + R.x, R.one + R.x
    for z in R.elements():
        assert ec.pairing(a + b, z) == (ec.pairing(a, z) + ec.pairing(b, z)) % 4


def test_pairing_requires_rank_one(ring_gal):
    with pytest.raises(RankNotOneError):
        ec.pairing(ring_gal.one, ring_gal.one)


def test_char_inner_product(ring_eis):
    R = ring_eis
    assert ec.char_inner_product(R.one, R.one) == 1
    assert ec.char_inner_product(R.one, R.from_int(3)) == 0
    assert ec.char_inner_product(R.zero, R.x) == 0


def test_character_orthonormality_exhaustive(ring_eis, ring_quasi, ring_p3):
    for ring in (ring_eis, ring_quasi, ring_p3):
        elems = ring.elements()
        for a in elems:
            for b in elems:
                assert ec.char_inner_product(a, b) == (1 if a == b else 0)


def test_annihilator_subgroup_pairs(ring_eis):
    R = ring_eis

    def members(stack):
        return {
            R.index_of(e)
            for e in R.elements()
            if modlinalg.contains(stack, codes.flatten_vector(R, [e]))
        }

    idx = R.index_of
    assert members(ec.annihilator_subgroup(R, [R.one])) == {idx(R.zero), idx(R.x)}
    assert members(ec.annihilator_subgroup(R, [R.x, R.from_int(2)])) == {
        idx(R.zero),
        idx(R.from_int(2)),
    }
    assert members(ec.annihilator_subgroup(R, [R.one, R.x])) == {idx(R.zero)}
    assert len(members(ec.annihilator_subgroup(R, []))) == R.card
    # order law |ann(H)| = |R| / |H|
    for gens, size in [([R.one], 4), ([R.x, R.from_int(2)], 4), ([R.one, R.x], 8)]:
        ann = ec.annihilator_subgroup(R, gens)
        assert 2 ** modlinalg.subgroup_order_log_p(ann) == R.card // size


def test_build_worked_example(ring_eis):
    spec = ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=EX_A)
    code = ec.build_eisenstein_code(spec)
    assert code.log_p_card == 5


def test_build_zero_and_shapes(ring_eis, ring_gal):
    zero = ec.build_eisenstein_code(
        ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=[[0, 0, 0], [0, 0, 0]])
    )
    assert zero.log_p_card == 0
    with pytest.raises(SpecShapeError):
        ec.build_eisenstein_code(ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=[[1, 1], [0, 1]]))
    with pytest.raises(SpecShapeError):
        ec.build_eisenstein_code(ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=[[2, 0, 0], [0, 0, 0]]))
    with pytest.raises(RankNotOneError):
        ec.build_eisenstein_code(ec.EisensteinCodeSpec(ring=ring_gal, N=3, a=EX_A))


def test_redundant_indicator_same_code(ring_eis):
    spec = ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=EX_A)
    plus = ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=((1, 1, 1), (0, 1, 0)))
    assert codes.handles_equal(
        ec.build_eisenstein_code(spec), ec.build_eisenstein_code(plus)
    )


def test_normalize_spec(ring_eis):
    spec = ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=EX_A)
    closed = ec.normalize_spec(spec)
    assert closed.a == ((1, 1, 1), (0, 1, 0))
    ones = ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=((1, 1, 1), (1, 1, 1)))
    assert ec.normalize_spec(ones).a == ones.a
    solo = ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=((0, 0, 0), (0, 1, 0)))
    assert ec.normalize_spec(solo).a == solo.a  # 1 + k = 3 = m is out of range


def test_normalize_spec_closure_safe_when_g_tail_is_constant():
    """For g = x^k + p a_0, x^k acts as an integer, so closure never moves."""
    for ring, N in [
        (ChainRing(2, 3, 1, 2, 1, [1, 0]), 3),  # x^2 = 6 in Z_8
        (ChainRing(3, 2, 1, 2, 1, [2, 0]), 2),  # x^2 = 3 in Z_9
    ]:
        from chaincodes.idempotents import idempotent_system

        sys = idempotent_system(ring, N)
        for i in range(sys.cls.v + 1):
            for j in range(ring.m):
                a = [[0] * ring.m for _ in range(sys.cls.v + 1)]
                a[i][j] = 1
                ec.normalize_spec(ec.EisensteinCodeSpec(ring=ring, N=N, a=a))


def test_normalize_spec_closure_can_change_the_code():
    """With a nonzero x-coefficient in g, x^k = -p(a_0 + a_1 x + ...) has an
    x-part, x^(j+k) K_i escapes the Z_{p^n}-span, and the index closure is NOT
    free: the guard error fires instead of silently growing the code."""
    ring = ChainRing(2, 2, 1, 2, 2, [1, 1])  # Z_4[x]/<x^2+2x+2>
    spec = ec.EisensteinCodeSpec(ring=ring, N=3, a=((1, 0, 0, 0), (0, 0, 0, 0)))
    plain = ec.build_eisenstein_code(spec)
    grown = ec.build_eisenstein_code(
        ec.EisensteinCodeSpec(ring=ring, N=3, a=((1, 0, 1, 0), (0, 0, 0, 0)))
    )
    assert grown.log_p_card > plain.log_p_card
    with pytest.raises(ClosureChangedCodeError):
        ec.normalize_spec(spec)


def test_dual_worked_example(ring_eis):
    spec = ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=EX_A)
    code = ec.build_eisenstein_code(spec)
    dual = ec.eisenstein_dual_code(code)
    assert dual.log_p_card == 4
    k1 = ec.build_eisenstein_code(
        ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=((0, 0, 0), (1, 0, 0)))
    )
    assert codes.handles_equal(dual, k1)
    assert code.log_p_card + dual.log_p_card == 9
    again = ec.eisenstein_dual_code(dual)
    assert codes.handles_equal(again, code)


def test_dual_zero_is_full(ring_eis):
    zero = ec.build_eisenstein_code(
        ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=((0, 0, 0), (0, 0, 0)))
    )
    dual = ec.eisenstein_dual_code(zero)
    assert dual.log_p_card == 3 * ring_eis.log_p_card


@pytest.mark.parametrize(
    "fixture,N",
    [("ring_eis", 3), ("ring_eis", 5), ("ring_quasi", 3), ("ring_m4", 3), ("ring_p3", 2)],
)
def test_counting_and_double_dual_random(fixture, N, request):
    ring = request.getfixturevalue(fixture)
    from chaincodes.idempotents import idempotent_system

    sys = idempotent_system(ring, N)
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = tuple(
            tuple(int(rng.integers(0, 2)) for _ in range(ring.m))
            for _ in range(sys.cls.v + 1)
        )
        code = ec.build_eisenstein_code(ec.EisensteinCodeSpec(ring=ring, N=N, a=a))
        dual = ec.eisenstein_dual_code(code)
        assert code.log_p_card + dual.log_p_card == N * ring.log_p_card
        assert codes.handles_equal(ec.eisenstein_dual_code(dual), code)
        assert codes.is_shift_closed(dual)


def test_code_contained_in_double_dual(ring_eis):
    spec = ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=EX_A)
    code = ec.build_eisenstein_code(spec)
    dd = ec.eisenstein_dual_code(ec.eisenstein_dual_code(code))
    for row in code.stack.rows:
        assert modlinalg.contains(dd.stack, row)
    assert codes.handles_equal(code, dd)


def test_non_freeness_guard(ring_eis, ring_p3):
    for ring in (ring_eis, ring_p3):
        assert ring.t < ring.k
        assert not ring.from_int(ring.pn1).is_zero()
        assert (ring.from_int(ring.pn1) * ring.x_pow(ring.t)).is_zero()
        code = ec.build_eisenstein_code(
            ec.EisensteinCodeSpec(
                ring=ring, N=2 if ring.p == 3 else 3,
                a=tuple((1,) + (0,) * (ring.m - 1) for _ in range(2)),
            )
        )
        with pytest.raises(NonFreeModuleError):
            ec.trace_dual_code(code)


def test_k0_weight_distribution(ring_eis):
    """K_0 = {a(1,1,1) : a in Z_4} as a length-3 code: one zero word, three of
    weight 3."""
    from chaincodes.codes import weight_enumerator

    k0 = ec.build_eisenstein_code(
        ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=((1, 0, 0), (0, 0, 0)))
    )
    assert weight_enumerator(k0) == {0: 1, 3: 3}


def test_trace_refused_even_when_free(ring_m4):
    # t = k: the ring is free over Z_4, but the family's dual is characters
    spec = ec.EisensteinCodeSpec(ring=ring_m4, N=3, a=((1, 0, 0, 0), (0, 0, 0, 0)))
    code = ec.build_eisenstein_code(spec)
    with pytest.raises(NonFreeModuleError):
        ec.trace_dual_code(code)


def test_dual_counting_identity_is_checked(ring_eis, monkeypatch):
    code = ec.build_eisenstein_code(ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=EX_A))
    monkeypatch.setattr(modlinalg, "solve_orthogonal", lambda gram, stack: stack)
    with pytest.raises(CertificateError):
        ec.eisenstein_dual_code(code)
