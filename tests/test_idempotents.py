"""Idempotent systems, the mu involution, trace-dual bases, component bases."""

import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from chaincodes import codes, polyops
from chaincodes.errors import CertificateError, TooLargeError, UnknownComponentError
from chaincodes.idempotents import (
    certify,
    component_basis,
    idempotent_system,
    mu_involution,
    primitive_idempotents,
    trace_dual_basis,
)
from chaincodes.polyfactory import build_extension, classify_cosets, minimal_polynomial
from chaincodes.rings import ChainRing

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def poly_from_ints(ring, coeffs):
    return [ring.from_int(c) for c in coeffs]


def test_worked_example_idempotents(ring_gal):
    ring = ring_gal
    sys = idempotent_system(ring, 3)
    w = ring.omega
    assert list(sys.eps[0]) == poly_from_ints(ring, [3, 3, 3])
    assert list(sys.eps[1]) == poly_from_ints(ring, [2, 1, 1])
    assert list(sys.eps_split[(1, 0)]) == [ring.from_int(3), w + 1, 3 * w]
    assert list(sys.eps_split[(1, 1)]) == [ring.from_int(3), 3 * w, w + 1]
    assert list(sys.m_polys["m"][0]) == [ring.from_int(3), ring.one]
    assert list(sys.m_polys["m"][1]) == poly_from_ints(ring, [1, 1, 1])
    assert list(sys.m_polys["m_split"][(1, 0)]) == [3 * w, ring.one]
    assert list(sys.m_polys["m_split"][(1, 1)]) == [w + 1, ring.one]


def test_single_coset_n1(ring_gal):
    sys = idempotent_system(ring_gal, 1)
    assert len(sys.eps) == 1
    assert list(sys.eps[0]) == [ring_gal.one]


def test_eisenstein_example_idempotents(ring_eis):
    sys = idempotent_system(ring_eis, 3)
    assert list(sys.eps[0]) == poly_from_ints(ring_eis, [3, 3, 3])
    assert list(sys.eps[1]) == poly_from_ints(ring_eis, [2, 1, 1])


def test_mu_examples(ring_gal):
    ring = ring_gal
    N = 3
    # mu(X) = X^{N-1}
    xpoly = [ring.zero, ring.one, ring.zero]
    assert mu_involution(ring, xpoly, N) == [ring.zero, ring.zero, ring.one]
    sys = idempotent_system(ring, N)
    assert sys.mu_perm == (0, 1)  # -1 lands back in the {1,2} coset
    assert mu_involution(ring, list(sys.eps[0]), N) == list(sys.eps[0])
    # involution property on random polynomials
    rng = np.random.default_rng(3)
    for _ in range(20):
        poly = [ring.element_from_index(int(i)) for i in rng.integers(0, ring.card, N)]
        assert mu_involution(ring, mu_involution(ring, poly, N), N) == poly


def test_mu_swaps_split_labels(ring_gal):
    sys = idempotent_system(ring_gal, 3)
    assert mu_involution(ring_gal, list(sys.eps_split[(1, 0)]), 3) == list(sys.eps_split[(1, 1)])


def test_trace_dual_basis_examples(ring_gal, ring_eis):
    w = ring_gal.omega
    theta = trace_dual_basis(ring_gal)
    assert theta == [w + 3, 2 * w + 1]
    assert ring_gal.trace_to_base(theta[1]).is_zero()
    assert trace_dual_basis(ring_eis) == [ring_eis.one]


def _span_keys(ring, N, vectors):
    """Set of codewords from generator vectors, via the stack machinery."""
    handle = codes.handle_from_vectors("test", ring, N, None, vectors)
    words = codes.enumerate_words(handle)
    return {tuple(int(c) for c in row) for row in words}, handle


def test_component_basis_k0(ring_gal):
    """K_0 = {a(X^2+X+1) : a in S}: the S-multiples of eps_0."""
    ring = ring_gal
    sys = idempotent_system(ring, 3)
    gens = component_basis(sys, "K", 0)
    assert len(gens) == 1
    with_scalars = []
    for w in range(ring.k):
        with_scalars.append([ring.x_pow(w) * c for c in gens[0]])
    got, _ = _span_keys(ring, 3, with_scalars)
    want = set()
    for idx in range(ring.p**ring.m):  # all s in S
        s_elem = ring.lift_from_s(ring.subring_s().element_from_index(idx))
        vec = [s_elem * c for c in [ring.one, ring.one, ring.one]]
        want.add(tuple(int(c) for row in codes.flatten_vector(ring, vec).reshape(1, -1) for c in row))
    assert got == want


def test_component_basis_k1_eis(ring_eis):
    """K_1 over Z_4 (no x-multiples): triples (c0, c1, c2) with sum zero."""
    ring = ring_eis
    sys = idempotent_system(ring, 3)
    gens = component_basis(sys, "K", 1)
    assert len(gens) == 2
    got, handle = _span_keys(ring, 3, gens)
    assert handle.log_p_card == 4
    for row in got:
        vec = codes.unflatten_vector(ring, np.array(row), 3)
        assert (vec[0] + vec[1] + vec[2]).is_zero()
    assert len(got) == 16


def test_l0_equals_r_times_k0(ring_gal):
    ring = ring_gal
    sys = idempotent_system(ring, 3)
    l0 = component_basis(sys, "L", 0)
    k0 = component_basis(sys, "K", 0)
    # span over Z: L gens need omega and x multiples; K needs x multiples only
    def expand(gens, use_omega):
        out = []
        mults = [ring.one, ring.omega] if use_omega else [ring.one]
        for g in gens:
            for mu in mults:
                for w in range(ring.k):
                    out.append([mu * ring.x_pow(w) * c for c in g])
        return out

    a, _ = _span_keys(ring, 3, expand(l0, False))
    b, _ = _span_keys(ring, 3, expand(k0, True))
    assert a == b


@pytest.mark.parametrize("fixture,N", [("ring_gal", 3), ("ring_f4", 3), ("ring_f4", 5)])
def test_split_components_k_equals_l(fixture, N, request):
    """K_{i,h} = L_{i,h} as sets, and omega * K_{i,h} = K_{i,h}."""
    ring = request.getfixturevalue(fixture)
    sys = idempotent_system(ring, N)
    cls = sys.cls
    for i in range(cls.u + 1, cls.v + 1):
        for h in range(ring.r):
            base = list(sys.eps_split[(i, h)])
            k_gens, l_gens, w_gens = [], [], []
            for l in range(cls.kappa[i]):
                shifted = polyops.shift_mod_xn1(ring, base, l, N)
                for w in range(ring.k):
                    xw = ring.x_pow(w)
                    k_gens.append([xw * c for c in shifted])
                    w_gens.append([ring.omega * xw * c for c in shifted])
                    for om in range(ring.r):
                        l_gens.append([(ring.omega**om) * xw * c for c in shifted])
            sk, hk = _span_keys(ring, N, k_gens)
            sl, _ = _span_keys(ring, N, l_gens)
            sw, _ = _span_keys(ring, N, w_gens)
            assert sk == sl == sw


def test_direct_sum_covers_ambient(ring_gal, ring_eis):
    """Sum of component sizes equals the ambient: the decomposition is direct."""
    for ring, N in [(ring_gal, 3), (ring_eis, 3), (ring_eis, 5)]:
        sys = idempotent_system(ring, N)
        cls = sys.cls
        total_s = 0
        total_r = 0
        for i in range(cls.v + 1):
            gens = component_basis(sys, "K", i)
            scalared = [
                [ring.x_pow(w) * c for c in g] for g in gens for w in range(ring.k)
            ]
            handle = codes.handle_from_vectors("t", ring, N, None, scalared)
            total_s += handle.log_p_card
            lgens = component_basis(sys, "L", i)
            scalared_l = [
                [ring.omega**om * ring.x_pow(w) * c for c in g]
                for g in lgens
                for om in range(ring.r)
                for w in range(ring.k)
            ]
            lhandle = codes.handle_from_vectors("t", ring, N, None, scalared_l)
            total_r += lhandle.log_p_card
        assert total_s == N * ring.m
        assert total_r == N * ring.r * ring.m


def test_split_component_parametrizations(ring_gal):
    """The split components admit explicit two-parameter forms over S:
    K_{1,0} = {(a+wb)X^2 + (-b+w(a-b))X + (b-a-wa)} and K_{1,1} with the
    lower coefficients swapped; both match the generator spans exactly."""
    R = ring_gal
    sys = idempotent_system(R, 3)
    w = R.omega
    s_elems = [R.lift_from_s(e) for e in R.subring_s().elements()]

    def span_set(vectors):
        handle = codes.handle_from_vectors("t", R, 3, None, vectors)
        return {tuple(int(c) for c in row) for row in codes.enumerate_words(handle)}

    def param_set(coeffs_of):
        out = set()
        for a in s_elems:
            for b in s_elems:
                vec = polyops.pad(R, coeffs_of(a, b), 3)
                out.add(tuple(int(c) for c in codes.flatten_vector(R, vec)))
        return out

    forms = {
        0: lambda a, b: [b - a + w * (-a), -b + w * (a - b), a + w * b],
        1: lambda a, b: [-b + w * (a - b), b - a + w * (-a), a + w * b],
    }
    for h, param in forms.items():
        gens = component_basis(sys, "K", 1, h=h)
        scaled = [[R.x_pow(wd) * c for c in g] for g in gens for wd in range(R.k)]
        assert span_set(scaled) == param_set(param)


def test_unknown_component(ring_gal):
    sys = idempotent_system(ring_gal, 3)
    with pytest.raises(UnknownComponentError):
        component_basis(sys, "K", 5)
    with pytest.raises(UnknownComponentError):
        component_basis(sys, "K", 0, h=0)  # coset 0 does not split
    with pytest.raises(UnknownComponentError):
        component_basis(sys, "Z", 0)


# -- the certificate and its cross-checks ---------------------------------------------

DEMO = ChainRing(2, 2, 2, 2, 1, [1, 0], f=[1, 1, 1])
EIS = ChainRing(2, 2, 1, 2, 1, [1, 0])
P3 = ChainRing(3, 2, 1, 2, 1, [1, 0])
QUASI = ChainRing(2, 1, 1, 3, 3, [1, 0, 0])
Z9W = ChainRing(3, 2, 2, 2, 1, [1, 0])  # Z_9[w][x]/<x^2+3, 3x>, r = 2


def extension_system(ring, N):
    """eps, eps_split, m-polys and mu from the extension ring R_hat: the DFT
    N^-1 sum_{l in C} eta^(-jl) taken in R_hat and coerced down, and the mu
    partner found by reversing the eps themselves."""
    cls = classify_cosets(N, ring.p, ring.r)
    ext = build_extension(ring, N)
    n_inv = pow(N, -1, ring.pn)

    def formula(coset, target):
        out = []
        for j in range(N):
            acc = ext.big_ring.zero
            for l in coset:
                acc = acc + ext.eta_pow(-j * l)
            out.append(ext.down(acc * n_inv, target))
        return tuple(out)

    keys = [(i, h) for i in range(cls.u + 1, cls.v + 1) for h in range(ring.r)]
    eps = tuple(formula(coset, "base") for coset in cls.cosets_p)
    mu = tuple(eps.index(tuple(mu_involution(ring, list(e), N))) for e in eps)
    return {
        "eps": eps,
        "eps_split": {key: formula(cls.split_cosets[key], "full") for key in keys},
        "m": tuple(tuple(minimal_polynomial(c, ext, "base")) for c in cls.cosets_p),
        "m_split": {
            key: tuple(minimal_polynomial(cls.split_cosets[key], ext, "full")) for key in keys
        },
        "mu_perm": mu,
    }


@pytest.mark.parametrize(
    "ring,N",
    [(DEMO, 3), (DEMO, 7), (DEMO, 21), (EIS, 21), (P3, 13), (P3, 26), (QUASI, 21), (Z9W, 4), (Z9W, 8)],
)
def test_system_matches_extension_formula(ring, N):
    sys_ = idempotent_system(ring, N)
    want = extension_system(ring, N)
    assert sys_.eps == want["eps"]
    assert sys_.eps_split == want["eps_split"]
    assert sys_.m_polys["m"] == want["m"]
    assert sys_.m_polys["m_split"] == want["m_split"]
    assert sys_.mu_perm == want["mu_perm"]


@pytest.mark.parametrize("ring,N", [(DEMO, 3), (DEMO, 5), (EIS, 7), (P3, 8), (QUASI, 7), (Z9W, 4)])
def test_pairwise_identity_laws(ring, N):
    """e_i e_j = delta_ij e_i, sum e_i = 1, the split refinements, and mu."""
    sys_ = idempotent_system(ring, N)
    mul = lambda a, b: polyops.pmul_mod_xn1(ring, list(a), list(b), N)
    zero = [ring.zero] * N
    one = polyops.pad(ring, [ring.one], N)
    total = zero
    for i, ei in enumerate(sys_.eps):
        total = polyops.padd(ring, total, ei)
        for j, ej in enumerate(sys_.eps):
            assert mul(ei, ej) == (list(ei) if i == j else zero)
    assert total == one
    cls = sys_.cls
    for i in range(cls.u + 1, cls.v + 1):
        group = [sys_.eps_split[(i, h)] for h in range(ring.r)]
        subtotal = zero
        for h, e in enumerate(group):
            subtotal = polyops.padd(ring, subtotal, e)
            for h2, e2 in enumerate(group):
                assert mul(e, e2) == (list(e) if h == h2 else zero)
            for j, ej in enumerate(sys_.eps):
                if j != i:
                    assert mul(ej, e) == zero
        assert subtotal == list(sys_.eps[i])
    perm = sys_.mu_perm
    assert perm[0] == 0
    assert all(1 <= perm[i] <= cls.u for i in range(1, cls.u + 1))
    assert all(cls.u + 1 <= perm[i] <= cls.v for i in range(cls.u + 1, cls.v + 1))
    for i, ei in enumerate(sys_.eps):
        assert mu_involution(ring, list(ei), N) == list(sys_.eps[perm[i]])


def test_primitive_idempotents_keeps_its_extension():
    ext = build_extension(DEMO, 21)
    sys_ = primitive_idempotents(ext, classify_cosets(21, 2, 2))
    assert sys_.ext is ext
    assert sys_.eps == idempotent_system(DEMO, 21).eps
    assert idempotent_system(DEMO, 21).ext is None


def _bump(poly, pos, delta):
    out = list(poly)
    out[pos] = out[pos] + delta
    return tuple(out)


def _tampered(sys_, which):
    ring, w = sys_.ring, sys_.ring.omega
    if which == "eps coefficient + 1":
        eps = list(sys_.eps)
        eps[0] = _bump(eps[0], 0, ring.one)
        return dataclasses.replace(sys_, eps=tuple(eps))
    if which == "two eps swapped":
        eps = list(sys_.eps)
        eps[1], eps[2] = eps[2], eps[1]
        return dataclasses.replace(sys_, eps=tuple(eps))
    if which == "eps coefficient + 2 (same residue)":
        eps = list(sys_.eps)
        eps[0] = _bump(eps[0], 0, 2 * ring.one)  # mu fixes eps_0 and position 0
        return dataclasses.replace(sys_, eps=tuple(eps))
    if which == "split coefficient + 2w (same residue)":
        split = dict(sys_.eps_split)
        split[(3, 1)] = _bump(split[(3, 1)], 4, 2 * w)
        return dataclasses.replace(sys_, eps_split=split)
    if which == "eps coefficient + x":
        eps = list(sys_.eps)
        eps[1] = _bump(eps[1], 1, ring.x)
        return dataclasses.replace(sys_, eps=tuple(eps))
    if which == "split labels swapped":
        split = dict(sys_.eps_split)
        split[(3, 0)], split[(3, 1)] = split[(3, 1)], split[(3, 0)]
        return dataclasses.replace(sys_, eps_split=split)
    if which == "split coefficient + w":
        split = dict(sys_.eps_split)
        split[(3, 0)] = _bump(split[(3, 0)], 2, w)
        return dataclasses.replace(sys_, eps_split=split)
    if which == "m-poly coefficient + 2":
        m = list(sys_.m_polys["m"])
        m[1] = _bump(m[1], 0, 2 * ring.one)
        return dataclasses.replace(sys_, m_polys={**sys_.m_polys, "m": tuple(m)})
    if which == "mu permutation":
        perm = list(sys_.mu_perm)
        perm[3], perm[5] = perm[5], perm[3]
        return dataclasses.replace(sys_, mu_perm=tuple(perm))
    raise ValueError(which)


@pytest.mark.parametrize(
    "which",
    [
        "eps coefficient + 1",
        "two eps swapped",
        "eps coefficient + 2 (same residue)",
        "split coefficient + 2w (same residue)",
        "eps coefficient + x",
        "split labels swapped",
        "split coefficient + w",
        "m-poly coefficient + 2",
        "mu permutation",
    ],
)
def test_certify_rejects_tampered_system(which):
    sys_ = idempotent_system(DEMO, 21)  # leaders 0, 3, 9 | 1, 5, 7 (split)
    certify(sys_)
    with pytest.raises(CertificateError):
        certify(_tampered(sys_, which))


def test_certify_raises_under_python_O():
    """The certificate is made of explicit checks: they survive `python -O`."""
    script = textwrap.dedent(
        """
        import dataclasses
        from chaincodes.errors import CertificateError
        from chaincodes.idempotents import certify, idempotent_system
        from chaincodes.rings import ChainRing

        assert False, "asserts must be off"
        sys_ = idempotent_system(ChainRing(2, 2, 2, 2, 1, [1, 0], f=[1, 1, 1]), 7)
        moved = list(sys_.eps)
        moved[0] = (moved[0][0] + 1,) + tuple(moved[0][1:])
        swapped = list(sys_.eps)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        for eps in (moved, swapped):
            try:
                certify(dataclasses.replace(sys_, eps=tuple(eps)))
            except CertificateError:
                print("refused")
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["refused", "refused"]


def test_extension_cap_still_refused(ring_p3):
    """p^(r*s) above 2^31 is refused as before: 3^30 for N = 31."""
    with pytest.raises(TooLargeError):
        idempotent_system(ring_p3, 31)
