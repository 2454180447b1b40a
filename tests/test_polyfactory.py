"""Cosets, basic primitive polynomials, Hensel lifting, extension towers."""

import pytest

from chaincodes import intpoly, polyfactory, polyops
from chaincodes.errors import (
    CertificateError,
    CoercionFailedError,
    NonCoprimeError,
    ProductMismatchError,
    RankNotPrimeError,
)
from chaincodes.polyfactory import (
    build_extension,
    classify_cosets,
    cyclotomic_cosets,
    find_basic_primitive_poly,
    hensel_lift,
    minimal_polynomial,
)
from chaincodes.rings import ChainRing


# -- cosets ------------------------------------------------------------------


def test_cyclotomic_cosets_examples():
    assert cyclotomic_cosets(3, 2) == [(0,), (1, 2)]
    assert cyclotomic_cosets(3, 4) == [(0,), (1,), (2,)]
    assert cyclotomic_cosets(1, 5) == [(0,)]
    with pytest.raises(NonCoprimeError):
        cyclotomic_cosets(6, 2)


def test_cosets_partition_property():
    for N, b in [(7, 2), (15, 2), (9, 2), (5, 3), (21, 2)]:
        cosets = cyclotomic_cosets(N, b)
        flat = sorted(x for c in cosets for x in c)
        assert flat == list(range(N))
        for c in cosets:
            assert {(x * b) % N for x in c} == set(c)


def test_classify_examples():
    cls = classify_cosets(3, 2, 2)
    assert (cls.u, cls.v) == (0, 1)
    assert cls.leaders == (0, 1)
    assert cls.kappa == (1, 2)
    assert cls.kappa_split == {(1, 0): 1, (1, 1): 1}

    cls1 = classify_cosets(3, 2, 1)
    assert (cls1.u, cls1.v) == (1, 1)
    assert cls1.cosets_p == ((0,), (1, 2))

    cls7 = classify_cosets(7, 2, 3)
    assert (cls7.u, cls7.v) == (0, 2)
    assert cls7.kappa == (1, 3, 3)
    assert all(v == 1 for v in cls7.kappa_split.values())
    # each splitting coset is the union of its r pieces
    for i in range(cls7.u + 1, cls7.v + 1):
        union = sorted(
            x for h in range(3) for x in cls7.split_cosets[(i, h)]
        )
        assert tuple(union) == cls7.cosets_p[i]


def test_classify_block_structure_interleaved():
    # N=21, p=2, r=3: type-1 and type-2 leaders interleave numerically,
    # the classification keeps them in two ascending blocks
    cls = classify_cosets(21, 2, 3)
    from math import gcd

    for i in range(cls.u + 1):
        assert gcd(cls.kappa[i], 3) == 1
    for i in range(cls.u + 1, cls.v + 1):
        assert cls.kappa[i] % 3 == 0
    assert list(cls.leaders[: cls.u + 1]) == sorted(cls.leaders[: cls.u + 1])
    assert list(cls.leaders[cls.u + 1 :]) == sorted(cls.leaders[cls.u + 1 :])


def test_classify_rejects():
    with pytest.raises(RankNotPrimeError):
        classify_cosets(5, 2, 4)
    with pytest.raises(NonCoprimeError):
        classify_cosets(4, 2, 1)


def test_kappa_divides_order():
    for N, p, r in [(7, 2, 3), (15, 2, 2), (5, 3, 2), (13, 3, 3)]:
        cls = classify_cosets(N, p, r)
        # |C_i| divides ord_N(p); leaders are minimal in their cosets
        order = 1
        acc = p % N
        while acc != 1:
            acc = (acc * p) % N
            order += 1
        for i, coset in enumerate(cls.cosets_p):
            if cls.leaders[i] == 0:
                continue
            assert order % len(coset) == 0
            assert min(coset) == cls.leaders[i]


# -- basic primitive polynomials -----------------------------------------------


def test_find_basic_primitive_examples():
    assert find_basic_primitive_poly(2, 2, 2) == (1, 1, 1)
    assert find_basic_primitive_poly(2, 2, 1) == (3, 1)


@pytest.mark.parametrize("p,n,d", [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 2, 4), (5, 2, 1)])
def test_basic_primitive_root_order(p, n, d):
    f = list(find_basic_primitive_poly(p, n, d))
    pn = p**n
    assert f[-1] == 1 and len(f) == d + 1
    assert intpoly.fp_is_primitive([c % p for c in f], p)
    # root has multiplicative order exactly p^d - 1
    order = p**d - 1
    assert intpoly.ppowmod([0, 1], order, f, pn) == [1]
    for q in intpoly.factorize(order):
        assert intpoly.ppowmod([0, 1], order // q, f, pn) != [1]


def test_basic_primitive_checks_its_product(monkeypatch):
    """A conjugate product that leaves Z_{p^n}, or is not the Teichmuller
    minimal polynomial, is refused."""
    product = polyfactory.root_product
    monkeypatch.setattr(polyfactory, "root_product", lambda gr, roots: product(gr, roots[:1] * 2))
    with pytest.raises(CertificateError, match="leaves"):
        find_basic_primitive_poly(2, 2, 2)
    shifted = lambda gr, roots: [gr.add(c, gr.one) for c in product(gr, roots)[:-1]] + [gr.one]
    monkeypatch.setattr(polyfactory, "root_product", shifted)
    with pytest.raises(CertificateError, match="is not 1"):
        find_basic_primitive_poly(2, 2, 2)


# -- Hensel lifting ---------------------------------------------------------------


def test_hensel_examples():
    lifted = hensel_lift([-1, 0, 0, 1], [[1, 1], [1, 1, 1]], 2, 2)
    assert lifted == [[3, 1], [1, 1, 1]]
    # already irreducible mod p: returned as-is
    assert hensel_lift([1, 1, 1], [[1, 1, 1]], 2, 2) == [[1, 1, 1]]


def test_hensel_x7_minus_1():
    h = [-1, 0, 0, 0, 0, 0, 0, 1]
    factors = [[1, 1], [1, 1, 0, 1], [1, 0, 1, 1]]
    lifted = hensel_lift(h, factors, 2, 2)
    prod = [1]
    for f in lifted:
        prod = intpoly.pmul(prod, f, 4)
    assert prod == intpoly.pmod(h, 4)
    for f, fbar in zip(lifted, factors):
        assert intpoly.pmod(f, 2) == fbar


def test_hensel_x15_deeper_modulus():
    h = [-1] + [0] * 14 + [1]
    fbar = [[1, 1], [1, 1, 1], [1, 1, 0, 0, 1], [1, 1, 1, 1, 1], [1, 0, 0, 1, 1]]
    lifted = hensel_lift(h, fbar, 2, 4)
    prod = [1]
    for f in lifted:
        prod = intpoly.pmul(prod, f, 16)
    assert prod == intpoly.pmod(h, 16)
    for f, fb in zip(lifted, fbar):
        assert intpoly.pmod(f, 2) == fb


def test_hensel_errors():
    with pytest.raises(NonCoprimeError):
        hensel_lift([1, 0, 0, 0, 1], [[1, 1], [1, 1], [1, 1, 1]], 2, 2)
    with pytest.raises(ProductMismatchError):
        # coprime factors whose product is X^3+1, not X^3+X+1
        hensel_lift([1, 1, 0, 1], [[1, 1], [1, 1, 1]], 2, 2)


# -- extension towers --------------------------------------------------------------


def test_extension_trivial_cases(ring_gal, ring_eis):
    ext = build_extension(ring_gal, 3)
    assert ext.s == 1 and ext.big_ring is ring_gal
    assert ext.eta == ring_gal.omega and ext.zeta == ring_gal.omega

    ext1 = build_extension(ring_gal, 1)
    assert ext1.s == 1 and ext1.eta == ring_gal.one


def test_extension_eisenstein(ring_eis):
    ext = build_extension(ring_eis, 3)
    assert ext.s == 2
    big = ext.big_ring
    assert big.r == 2 and big.card == 64  # Z_4[zeta][x]/<x^2+2, 2x>
    # eta is a primitive cube root of unity
    assert ext.eta_pow(3) == big.one and ext.eta_pow(1) != big.one
    # the embedded omega satisfies the base f (degree-1 here: omega = 1)
    val = big.zero
    for c in reversed(ring_eis.f):
        val = val * ext.omega_embed + c
    assert val.is_zero()


def test_extension_embedding_round_trip(ring_eis, ring_p3):
    for ring, N in [(ring_eis, 3), (ring_p3, 2), (ring_p3, 4)]:
        ext = build_extension(ring, N)
        for idx in range(0, ring.card, max(1, ring.card // 16)):
            a = ring.element_from_index(idx)
            assert ext.down(ext.embed(a), "full") == a


def test_down_rejects_outsiders(ring_eis):
    ext = build_extension(ring_eis, 3)
    with pytest.raises(CoercionFailedError):
        ext.down(ext.big_ring.omega, "full")  # zeta itself is not in the base ring


def test_extension_coprimality():
    ring = ChainRing(2, 2, 1, 2, 1, [1, 0])
    with pytest.raises(NonCoprimeError):
        build_extension(ring, 6)


# -- minimal polynomials -------------------------------------------------------------


def test_minimal_polynomials_worked_example(ring_gal):
    ext = build_extension(ring_gal, 3)
    cls = classify_cosets(3, 2, 2)
    w = ring_gal.omega
    m0 = minimal_polynomial(cls.cosets_p[0], ext, "base")
    m1 = minimal_polynomial(cls.cosets_p[1], ext, "base")
    m10 = minimal_polynomial(cls.split_cosets[(1, 0)], ext, "full")
    m11 = minimal_polynomial(cls.split_cosets[(1, 1)], ext, "full")
    assert m0 == [ring_gal.from_int(3), ring_gal.one]
    assert m1 == [ring_gal.one, ring_gal.one, ring_gal.one]
    assert m10 == [3 * w, ring_gal.one]
    assert m11 == [w + 1, ring_gal.one]


@pytest.mark.parametrize(
    "fixture,N",
    [("ring_gal", 3), ("ring_eis", 3), ("ring_eis", 5), ("ring_p3", 4), ("ring_f4", 5), ("ring_quasi", 7)],
)
def test_minimal_polynomial_product_is_xn_minus_1(fixture, N, request):
    ring = request.getfixturevalue(fixture)
    ext = build_extension(ring, N)
    cls = classify_cosets(N, ring.p, ring.r)
    prod = [ring.one]
    for i in range(cls.v + 1):
        prod = polyops.pmul(ring, prod, minimal_polynomial(cls.cosets_p[i], ext, "base"))
    want = [-ring.one] + [ring.zero] * (N - 1) + [ring.one]
    assert polyops.poly_eq(prod, want)
    # splitting cosets: the m_{i,h} multiply back to m_i over R
    for i in range(cls.u + 1, cls.v + 1):
        sub = [ring.one]
        for h in range(ring.r):
            sub = polyops.pmul(ring, sub, minimal_polynomial(cls.split_cosets[(i, h)], ext, "full"))
        assert polyops.poly_eq(sub, minimal_polynomial(cls.cosets_p[i], ext, "base"))


def test_eta_powers_conjugacy(ring_eis):
    """Within a p^r-coset the roots are Frobenius conjugates; across, never."""
    ring = ring_eis
    N = 3
    ext = build_extension(ring, N)
    big = ext.big_ring
    cls = classify_cosets(N, ring.p, ring.r)

    def conjugates(elem):
        out = {elem}
        cur = elem
        for _ in range(big.r - 1):
            cur = big.frobenius(cur)
            out.add(cur)
        return out

    # phi-hat orbits of eta^j within one p-coset coincide
    for coset in cls.cosets_p:
        orbit_union = set()
        for j in coset:
            orbit_union |= conjugates(ext.eta_pow(j))
        assert orbit_union == {ext.eta_pow(j) for j in coset}
    # distinct cosets give disjoint root sets
    roots0 = {ext.eta_pow(j) for j in cls.cosets_p[0]}
    roots1 = {ext.eta_pow(j) for j in cls.cosets_p[1]}
    assert not roots0 & roots1
