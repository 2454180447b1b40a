"""Core chain-ring arithmetic.

The multiplication oracle here is independent of the library's grid
arithmetic: elements are dicts of monomials w^i x^j with integer
coefficients, reduced by brute substitution against f, g, and the
p^(n-1) x^t relation.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaincodes import codes
from chaincodes.errors import NotAUnitError, ParameterError, RingMismatchError
from chaincodes.rings import ChainRing


def naive_product(ring, a, b):
    """Multiply two elements as integer monomial dicts, then reduce."""
    mono = {}
    for i1 in range(ring.r):
        for j1 in range(ring.k):
            for i2 in range(ring.r):
                for j2 in range(ring.k):
                    c = a.grid[i1][j1] * b.grid[i2][j2]
                    if c:
                        key = (i1 + i2, j1 + j2)
                        mono[key] = mono.get(key, 0) + c
    changed = True
    while changed:
        changed = False
        for (i, j), c in sorted(mono.items(), reverse=True):
            if c % ring.pn == 0:
                del mono[(i, j)]
                continue
            if i >= ring.r:
                del mono[(i, j)]
                for l, fc in enumerate(ring.f[: ring.r]):
                    key = (i - ring.r + l, j)
                    mono[key] = mono.get(key, 0) - fc * c
                changed = True
                break
            if j >= ring.k:
                del mono[(i, j)]
                for l, gc in enumerate(ring.g_tail):
                    key = (i, j - ring.k + l)
                    mono[key] = mono.get(key, 0) - ring.p * gc * c
                changed = True
                break
    grid = [[0] * ring.k for _ in range(ring.r)]
    for (i, j), c in mono.items():
        grid[i][j] = c % (ring.pn if j < ring.t else ring.pn1)
    return ring.element(grid)


# -- construction and parameter validation --------------------------------------


def test_make_ring_examples(ring_eis, ring_quasi, ring_gal):
    assert ring_eis.m == 3 and ring_eis.card == 8
    assert ring_quasi.m == 3 and ring_quasi.card == 8
    assert ring_gal.m == 3 and ring_gal.log_p_card == 6


def test_parameter_validation():
    with pytest.raises(ParameterError):
        ChainRing(4, 2, 1, 2, 1, [1, 0])  # p not prime
    with pytest.raises(ParameterError):
        ChainRing(2, 2, 1, 2, 1, [0, 1])  # a_0 not a unit
    with pytest.raises(ParameterError):
        ChainRing(2, 2, 1, 2, 3, [1, 0])  # t out of range
    with pytest.raises(ParameterError):
        ChainRing(2, 1, 1, 2, 1, [1, 0])  # n=1 forces t=k
    with pytest.raises(ParameterError):
        ChainRing(2, 2, 2, 2, 1, [1, 0], f=[1, 0, 1])  # f reducible mod 2
    with pytest.raises(ParameterError):
        ChainRing(2, 32, 1, 1, 1, [1])  # characteristic above the 2^31 cap


def test_f_must_have_primitive_root_order():
    # X^2+1 is irreducible over F_3 but its root has order 4 < 8
    with pytest.raises(ParameterError):
        ChainRing(3, 1, 2, 1, 1, [1], f=[1, 0, 1])
    # X^2+1 over F_2 is (X+1)^2, reducible
    with pytest.raises(ParameterError):
        ChainRing(2, 2, 2, 2, 1, [1, 0], f=[1, 0, 1])


# -- addition, negation ----------------------------------------------------------


def test_add_examples(ring_eis, ring_gal):
    assert ring_eis.from_int(3) + ring_eis.from_int(1) == ring_eis.zero
    assert ring_eis.x + ring_eis.x == ring_eis.zero  # 2x = 0
    w = ring_gal.omega
    assert (w + 3) + (2 * w + 1) == 3 * w  # coefficient-wise mod 4


def test_ring_mismatch(ring_eis, ring_gal):
    with pytest.raises(RingMismatchError):
        ring_eis.one + ring_gal.one


# -- multiplication against the naive oracle -------------------------------------


def test_mul_examples(ring_eis, ring_gal):
    x = ring_eis.x
    assert x * x == ring_eis.from_int(2)
    assert (x + 1) ** 2 == ring_eis.from_int(3)
    w = ring_gal.omega
    assert w * w == 3 * w + 3
    # frozen from the naive oracle:
    assert naive_product(ring_eis, x, x) == ring_eis.from_int(2)
    assert naive_product(ring_gal, w, w) == 3 * w + 3


@pytest.mark.parametrize(
    "fixture", ["ring_eis", "ring_gal", "ring_quasi", "ring_z4", "ring_f4", "ring_p3"]
)
def test_mul_matches_naive_oracle(fixture, request):
    ring = request.getfixturevalue(fixture)
    step = max(1, ring.card // 40)
    sample = [ring.element_from_index(i) for i in range(0, ring.card, step)]
    for a in sample:
        for b in sample:
            assert a * b == naive_product(ring, a, b)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(data, ring_gal):
    ring = ring_gal
    idx = st.integers(min_value=0, max_value=ring.card - 1)
    a = ring.element_from_index(data.draw(idx))
    b = ring.element_from_index(data.draw(idx))
    c = ring.element_from_index(data.draw(idx))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    assert a + ring.zero == a and a * ring.one == a
    assert a - a == ring.zero


# -- units and inversion ----------------------------------------------------------


def test_unit_examples(ring_gal, ring_eis):
    w = ring_gal.omega
    u = 2 * w + 1
    assert u.invert() == u  # (2w+1)^2 = 1
    assert ring_eis.one.invert() == ring_eis.one
    assert not ring_eis.x.is_unit()
    with pytest.raises(NotAUnitError):
        ring_eis.x.invert()


@pytest.mark.parametrize("fixture", ["ring_eis", "ring_gal", "ring_quasi", "ring_p3"])
def test_units_partition(fixture, request):
    """Every element is a unit xor (zero or a zero divisor)."""
    ring = request.getfixturevalue(fixture)
    elems = ring.elements()
    for a in elems:
        if a.is_unit():
            assert (a.invert() * a) == ring.one
        else:
            assert a.is_zero() or any(
                not b.is_zero() and (a * b).is_zero() for b in elems
            )


# -- the ideal chain ---------------------------------------------------------------


def test_x_valuation_examples(ring_eis):
    assert ring_eis.zero.x_valuation() == 3
    assert ring_eis.from_int(2).x_valuation() == 2  # 2 = x^2 * unit
    assert ring_eis.one.x_valuation() == 0


@pytest.mark.parametrize("fixture", ["ring_eis", "ring_gal", "ring_quasi", "ring_z4"])
def test_chain_structure(fixture, request):
    ring = request.getfixturevalue(fixture)
    elems = ring.elements()
    # valuation superadditivity
    for a in elems[:: max(1, len(elems) // 24)]:
        for b in elems[:: max(1, len(elems) // 24)]:
            assert (a * b).x_valuation() >= min(a.x_valuation() + b.x_valuation(), ring.m)
    # <x^k> = <p>: p in x^k R and x^k in p R
    p_elem = ring.from_int(ring.p)
    xk = ring.x_pow(ring.k)
    assert any(xk * c == p_elem for c in elems)
    assert any(p_elem * c == xk for c in elems)
    # |<x^v>| = p^(r(m-v)) by enumeration
    for v in range(ring.m + 1):
        ideal = {(ring.x_pow(v) * c) for c in elems}
        assert len(ideal) == ring.p ** (ring.r * (ring.m - v))


def test_cardinality_by_enumeration(ring_eis, ring_gal, ring_quasi, ring_f4):
    for ring in (ring_eis, ring_gal, ring_quasi, ring_f4):
        seen = {tuple(c for row in e.grid for c in row) for e in ring.elements()}
        assert len(seen) == ring.p ** (ring.r * (ring.k * (ring.n - 1) + ring.t))


def test_valuation_teichmuller_equality(ring_gal):
    """val(ab) = val(a) + val(b) when both are Teichmuller-times-power-of-x."""
    ring = ring_gal
    teich = [t for t in ring.teichmuller_set() if not t.is_zero()]
    for ta in teich[:3]:
        for va in range(ring.m):
            for tb in teich[:3]:
                for vb in range(ring.m):
                    a = ta * ring.x_pow(va)
                    b = tb * ring.x_pow(vb)
                    assert (a * b).x_valuation() == min(va + vb, ring.m)


# -- Teichmuller set and digits ------------------------------------------------------


def test_teichmuller_set_examples(ring_z4, ring_gal):
    assert [str(t) for t in ring_z4.teichmuller_set()] == ["<0 in %s>" % ring_z4.short_name(), "<1 in %s>" % ring_z4.short_name()]
    ts = ring_gal.teichmuller_set()
    w = ring_gal.omega
    assert ts == [ring_gal.zero, ring_gal.one, w, 3 * w + 3]
    assert len(ts) == ring_gal.p**ring_gal.r
    for t in ts:
        assert t ** (ring_gal.p**ring_gal.r) == t


def test_digit_examples(ring_eis):
    ring = ring_eis
    d = ring.x_adic_digits(ring.one + ring.x)
    assert d == [ring.one, ring.one, ring.zero]
    d3 = ring.x_adic_digits(ring.from_int(3))
    assert d3 == [ring.one, ring.zero, ring.one]
    assert ring.x_adic_digits(ring.zero) == [ring.zero] * 3


def test_digits_of_three_by_exhaustion(ring_eis):
    """Exactly one digit tuple over the Teichmuller set reconstructs 3."""
    ring = ring_eis
    teich = ring.teichmuller_set()
    target = ring.from_int(3)
    hits = []
    for d0 in teich:
        for d1 in teich:
            for d2 in teich:
                if ring.from_digits([d0, d1, d2]) == target:
                    hits.append((d0, d1, d2))
    assert hits == [(ring.one, ring.zero, ring.one)]


@pytest.mark.parametrize("fixture", ["ring_eis", "ring_gal", "ring_quasi", "ring_p3"])
def test_digit_round_trip_all(fixture, request):
    ring = request.getfixturevalue(fixture)
    q = ring.p**ring.r
    for e in ring.elements():
        digits = ring.x_adic_digits(e)
        assert len(digits) == ring.m
        assert all(d**q == d for d in digits)
        assert ring.from_digits(digits) == e


# -- Frobenius and trace ---------------------------------------------------------------


def test_frobenius_examples(ring_gal):
    ring = ring_gal
    w = ring.omega
    assert ring.frobenius(w) == 3 * w + 3  # w^2 mod (4, w^2+w+1)
    assert ring.frobenius(ring.x) == ring.x
    assert ring.frobenius(ring.frobenius(w)) == w


def test_trace_examples(ring_gal):
    ring = ring_gal
    w = ring.omega
    assert ring.trace_to_base(w) == ring.from_int(3)
    for s in (ring.one, ring.x, ring.from_int(3) + ring.x):
        assert ring.trace_to_base(s) == 2 * s  # r * s for s in S
    assert ring.trace_to_base(w * (2 * w + 1)) == ring.one


@pytest.mark.parametrize("fixture", ["ring_gal", "ring_f4"])
def test_frobenius_is_digitwise_p_power(fixture, request):
    ring = request.getfixturevalue(fixture)
    for e in ring.elements():
        digits = ring.x_adic_digits(e)
        expected = ring.from_digits([d**ring.p for d in digits])
        assert ring.frobenius(e) == expected


@pytest.mark.parametrize("fixture", ["ring_gal", "ring_f4"])
def test_frobenius_fixed_ring_is_s(fixture, request):
    ring = request.getfixturevalue(fixture)
    fixed = [e for e in ring.elements() if ring.frobenius(e) == e]
    in_s = [e for e in ring.elements() if ring.in_subring_s(e)]
    assert sorted(map(ring.index_of, fixed)) == sorted(map(ring.index_of, in_s))
    assert len(fixed) == ring.p**ring.m
    for e in ring.elements():
        cur = e
        for _ in range(ring.r):
            cur = ring.frobenius(cur)
        assert cur == e  # phi^r = id


def test_trace_lands_in_s_everywhere(ring_gal):
    for e in ring_gal.elements():
        assert ring_gal.in_subring_s(ring_gal.trace_to_base(e))


# -- serialization ------------------------------------------------------------------


def test_unit_group_structure(ring_eis):
    """The 8-element ring has 4 units forming a cyclic group of order 4."""
    units = [e for e in ring_eis.elements() if e.is_unit()]
    assert len(units) == 4
    orders = sorted(
        min(j for j in range(1, 5) if (u**j) == ring_eis.one) for u in units
    )
    assert orders == [1, 2, 4, 4]  # cyclic of order 4


def test_sixteen_element_presentations():
    """x^2+2 and x^2+2x+2 with t=k give 16-element rings with 8 units each,
    every unit of order dividing 4 (the additive and unit profiles agree even
    though the rings are not isomorphic)."""
    for tail in ([1, 0], [1, 1]):
        ring = ChainRing(2, 2, 1, 2, 2, tail)
        assert ring.card == 16
        units = [e for e in ring.elements() if e.is_unit()]
        assert len(units) == 8
        assert all((u**4) == ring.one for u in units)
        assert sum(1 for u in units if u * u == ring.one) == 4  # Z_2 + Z_4


def test_additive_profile_of_rank2_ring(ring_gal):
    # additively Z_2 + Z_2 + Z_4 + Z_4: two columns of order 4 and two of 2
    mods = [ring_gal.col_mod[j] for j in range(ring_gal.k)] * ring_gal.r
    assert sorted(mods) == [2, 2, 4, 4]


def test_json_round_trip(ring_gal):
    obj = ring_gal.to_json()
    again = ChainRing.from_json(obj)
    assert again == ring_gal
    e = 2 * ring_gal.omega + ring_gal.x + 1
    assert ring_gal.element(e.to_json()) == e


def test_element_index_round_trip(ring_gal):
    for i in range(0, ring_gal.card, 7):
        assert ring_gal.index_of(ring_gal.element_from_index(i)) == i


TIMES_RINGS = ["ring_gal", "ring_eis", "ring_m4", "ring_quasi", "ring_z4", "ring_f4", "ring_gr42", "ring_p3"]


def _check_times(ring, rng, N=4):
    draw = lambda: ring.element_from_index(rng.randrange(ring.card))
    scalars = [ring.zero, ring.x, ring.omega, ring.from_int(ring.p), ring.x * draw()]
    scalars += [draw() for _ in range(4)]
    vecs = [[draw() for _ in range(N)] for _ in range(3)]
    flats = np.vstack([codes.flatten_vector(ring, vec) for vec in vecs])
    for c in scalars:
        want = np.vstack([codes.flatten_vector(ring, [c * z for z in vec]) for vec in vecs])
        assert np.array_equal(codes.times(ring, flats, c), want), c
        assert np.array_equal(codes.times(ring, flats[0], c), want[0]), c


@pytest.mark.parametrize("fixture", TIMES_RINGS)
def test_times_is_the_elementwise_product(fixture, request):
    """The flat action of a scalar (one (r*k) x (r*k) matrix per position,
    columns reduced to their own order) equals the ring product exactly."""
    ring = request.getfixturevalue(fixture)
    _check_times(ring, random.Random(f"times-{fixture}"))


def test_times_near_the_characteristic_cap():
    """p^n = 2^31 sends matmul_mod through its exact-object fallback."""
    ring = ChainRing(2, 31, 1, 2, 1, [1, 0])
    _check_times(ring, random.Random("times-2^31"))
