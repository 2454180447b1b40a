"""Howell-form linear algebra over Z_{p^n} with mixed-order ambients."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaincodes import modlinalg as ml
from chaincodes.errors import LengthMismatchError, ParameterError
from chaincodes.modlinalg import GeneratorStack


def stack(rows, caps, p=2, n=2):
    arr = np.array(rows, dtype=np.int64).reshape(-1, len(caps))
    return GeneratorStack(arr, p, n, tuple(caps))


def _val(x, p, n):
    if x == 0:
        return n
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def reference_howell(rows, p, n, ncols):
    """The row-at-a-time Howell loop that modlinalg._howell must match exactly.

    Pivot choice is leftmost column, then minimal p-valuation, then smallest
    entry value, then first pool row; shadow rows p^(n-v) * pivot go to the
    end of the pool.  The back reduction runs rows from the bottom up, and
    for each row the later (already final) pivots left to right.
    """
    pn = p**n
    pool = [np.asarray(r, dtype=np.int64) % pn for r in rows]
    pool = [r for r in pool if r.any()]
    pivots = []
    for col in range(ncols):
        best_idx = -1
        best_key = None
        for idx, r in enumerate(pool):
            x = int(r[col])
            if x:
                key = (_val(x, p, n), x)
                if best_key is None or key < best_key:
                    best_idx, best_key = idx, key
        if best_idx < 0:
            continue
        piv = pool.pop(best_idx)
        v = best_key[0]
        unit = int(piv[col]) // p**v
        piv = (piv * pow(unit, -1, pn)) % pn
        nxt = []
        for r in pool:
            x = int(r[col])
            if x:
                r = (r - (x // p**v) * piv) % pn
            if r.any():
                nxt.append(r)
        pool = nxt
        if v > 0:
            shadow = (piv * p ** (n - v)) % pn
            if shadow.any():
                pool.append(shadow)
        pivots.append([col, v, piv])
    for j in range(len(pivots) - 2, -1, -1):
        for l in range(j + 1, len(pivots)):
            col_l, v_l, r_l = pivots[l]
            x = int(pivots[j][2][col_l])
            q = x // p**v_l
            if q:
                pivots[j][2] = (pivots[j][2] - q * r_l) % pn
    if pivots:
        mat = np.vstack([piv[2] for piv in pivots])
    else:
        mat = np.zeros((0, ncols), dtype=np.int64)
    return mat, [(piv[0], piv[1]) for piv in pivots]


def brute_span(st_):
    """All subgroup members by exhausting coefficient tuples (tiny stacks only)."""
    pn = st_.p**st_.n
    rows = [tuple(int(x) for x in r) for r in st_.rows] + [
        tuple(int(x) for x in r) for r in st_.relation_rows()
    ]
    caps = [st_.p**e for e in st_.cap_exps]
    out = set()
    if not rows:
        return {tuple(0 for _ in caps)}
    for coeffs in itertools.product(range(pn), repeat=len(rows)):
        v = tuple(
            sum(c * r[j] for c, r in zip(coeffs, rows)) % caps[j] for j in range(len(caps))
        )
        out.add(v)
    return out


def test_normal_form_examples():
    a = stack([[2, 0], [0, 2]], (2, 2))
    assert ml.normal_form(a).tolist() == [[2, 0], [0, 2]]
    assert ml.subgroup_order_log_p(a) == 2
    b = stack([[1, 1], [3, 3]], (2, 2))
    assert ml.normal_form(b).tolist() == [[1, 1]]
    assert ml.subgroup_order_log_p(b) == 2
    empty = stack([], (2, 2))
    assert ml.normal_form(empty).tolist() == []
    assert ml.subgroup_order_log_p(empty) == 0


def test_relations_span_nothing():
    s = stack([], (2, 1, 1))
    withrel = stack([[0, 2, 0], [0, 0, 2]], (2, 1, 1))
    assert ml.subgroup_order_log_p(withrel) == 0
    assert np.array_equal(ml.normal_form(s), ml.normal_form(withrel))


def test_contains_examples():
    b = stack([[1, 1]], (2, 2))
    assert ml.contains(b, [2, 2])
    assert not ml.contains(b, [1, 0])
    with pytest.raises(LengthMismatchError):
        ml.contains(b, [1, 0, 0])
    assert ml.contains(b, [[2, 2], [1, 1], [0, 0]])
    assert not ml.contains(b, [[2, 2], [1, 0]])
    assert ml.contains(b, np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(LengthMismatchError):
        ml.contains(b, [[1, 0, 0]])


@pytest.mark.parametrize(
    "rows,caps",
    [
        ([[1, 1], [3, 3]], (2, 2)),
        ([[0, 1], [2, 0]], (2, 1)),
        ([[1, 2, 3]], (2, 2, 1)),
        ([[2, 1], [1, 2]], (1, 2)),
        ([[3, 1, 2], [0, 2, 1]], (2, 1, 2)),
    ],
)
def test_order_matches_enumeration(rows, caps):
    s = stack(rows, caps)
    members = brute_span(s)
    assert len(members) == 2 ** ml.subgroup_order_log_p(s)
    for v in members:
        assert ml.contains(s, list(v))
    # a couple of non-members
    outside = 0
    for v in itertools.product(*[range(2**e) for e in caps]):
        if v not in members:
            assert not ml.contains(s, list(v))
            outside += 1
        if outside > 10:
            break


def test_order_matches_enumeration_p3():
    s = stack([[3, 1], [0, 3]], (2, 1), p=3, n=2)
    members = brute_span(s)
    assert len(members) == 3 ** ml.subgroup_order_log_p(s)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_normal_form_invariant_under_row_mixes(data):
    caps = (2, 2, 1, 2)
    rows = data.draw(
        st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=1, max_size=4)
    )
    base = stack(rows, caps)
    nf = ml.normal_form(base)
    # random unimodular-ish mixes plus the original rows span the same subgroup
    mix = data.draw(
        st.lists(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)),
                 min_size=1, max_size=4)
    )
    mixed = (np.array(mix, dtype=np.int64) @ np.array(rows, dtype=np.int64).reshape(len(rows), 4)) % 4
    combined = stack(np.vstack([mixed, np.array(rows).reshape(len(rows), 4)]), caps)
    assert np.array_equal(ml.normal_form(combined), nf)
    assert ml.normal_form(base).tolist() == ml.normal_form(stack(nf, caps)).tolist()  # idempotent


def test_solve_orthogonal_examples():
    # the 8-element chain ring as coordinates (a0, a1), caps (4, 2), beta gram
    caps = (2, 1)
    gram = np.array([[1, 0], [0, 2]])
    s_sub = stack([[1, 0]], caps)
    ann_s = ml.solve_orthogonal(gram, s_sub)
    assert sorted(map(tuple, ml.normal_form(ann_s).tolist())) == [(0, 1)]
    xr = stack([[0, 1], [2, 0]], caps)
    ann_xr = ml.solve_orthogonal(gram, xr)
    assert ml.contains(ann_xr, [2, 0]) and not ml.contains(ann_xr, [1, 0])
    assert ml.subgroup_order_log_p(ann_xr) == 1
    full = stack([[1, 0], [0, 1]], caps)
    ann_full = ml.solve_orthogonal(gram, full)
    assert ml.subgroup_order_log_p(ann_full) == 0


def test_double_annihilator_is_identity():
    caps = (2, 1, 2, 1)
    gram = np.diag(np.array([1, 2, 1, 2], dtype=np.int64))
    rng = np.random.default_rng(7)
    for _ in range(25):
        rows = rng.integers(0, 4, size=(rng.integers(0, 4), 4))
        s = stack(rows, caps)
        s = GeneratorStack(ml.normal_form(s), 2, 2, caps)
        ann = ml.solve_orthogonal(gram, s)
        ann2 = ml.solve_orthogonal(gram, ann)
        assert ml.stacks_equal(ann2, s)
        assert (
            ml.subgroup_order_log_p(s) + ml.subgroup_order_log_p(ann)
            == s.ambient_log_p()
        )


@st.composite
def raw_stacks(draw):
    """Random stacks over Z_{p^n}, p in {2, 3}, n <= 3, caps anywhere in [0, n]."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    ncols = draw(st.integers(1, 5))
    caps = tuple(draw(st.lists(st.integers(0, n), min_size=ncols, max_size=ncols)))
    entry = st.integers(0, p**n - 1)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    return stack(rows, caps, p=p, n=n)


@given(raw=raw_stacks(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_howell_form_is_idempotent_and_read_as_is(raw, data):
    form = ml.howell_form(raw)
    assert ml.howell_form(form) is form
    again = ml.howell_form(GeneratorStack(form.rows, raw.p, raw.n, raw.cap_exps))
    assert again.rows.tolist() == form.rows.tolist()
    assert again.pivots == form.pivots
    assert np.array_equal(ml.normal_form(raw), ml.normal_form(form))
    assert ml.subgroup_order_log_p(raw) == ml.subgroup_order_log_p(form)
    assert ml.stacks_equal(raw, form) and ml.stacks_equal(form, raw)
    entry = st.integers(0, raw.p**raw.n - 1)
    vec = data.draw(st.lists(entry, min_size=raw.ncols, max_size=raw.ncols))
    assert ml.contains(raw, vec) == ml.contains(form, vec)
    for row in raw.rows:
        assert ml.contains(form, row)
    assert ml.contains(form, raw.rows)
    assert ml.contains(form, np.vstack([raw.rows, vec])) == ml.contains(form, vec)


@given(raw=raw_stacks(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_members_answers_contains_per_row(raw, data):
    entry = st.integers(0, raw.p**raw.n - 1)
    vec = st.lists(entry, min_size=raw.ncols, max_size=raw.ncols)
    V = np.array(data.draw(st.lists(vec, min_size=1, max_size=6)), dtype=np.int64)
    got = ml.members(raw, V)
    assert got.dtype == bool and got.shape == (len(V),)
    assert got.tolist() == [ml.contains(raw, v) for v in V]
    assert ml.members(raw, np.vstack([raw.rows, V]))[: len(raw.rows)].all()
    assert ml.members(raw, np.zeros((0, raw.ncols), dtype=np.int64)).shape == (0,)
    with pytest.raises(LengthMismatchError):
        ml.members(raw, np.zeros((len(V), raw.ncols + 1), dtype=np.int64))


def howell_inputs(stack_):
    return list(stack_.rows) + stack_.relation_rows(), stack_.p, stack_.n, stack_.ncols


def assert_matches_reference(rows, p, n, ncols):
    mat, pivots = ml._howell(rows, p, n, ncols)
    ref, ref_pivots = reference_howell(rows, p, n, ncols)
    assert mat.dtype == ref.dtype and mat.shape == ref.shape
    assert mat.tobytes() == ref.tobytes()
    assert pivots == ref_pivots


@given(raw=raw_stacks())
@settings(max_examples=200, deadline=None)
def test_howell_matches_reference_loop(raw):
    assert_matches_reference(*howell_inputs(raw))


def _seeded_rows(rng, p, n, nrows, ncols):
    """Entries of every valuation, so pivots with v > 0 feed shadow rows."""
    pn = p**n
    units = rng.integers(0, pn, size=(nrows, ncols), dtype=np.int64)
    return units * p ** rng.integers(0, n, size=(nrows, ncols)) % pn


@pytest.mark.parametrize("p,n", [(2, 31), (3, 19), (2, 3), (3, 2), (5, 1)])
@pytest.mark.parametrize("nrows,ncols", [(0, 4), (1, 1), (9, 1), (40, 3), (3, 40), (12, 12)])
def test_howell_matches_reference_on_seeded_shapes(p, n, nrows, ncols):
    rng = np.random.default_rng(1000 * p + 10 * nrows + ncols)
    rows = _seeded_rows(rng, p, n, nrows, ncols)
    assert_matches_reference(list(rows), p, n, ncols)
    zeros = np.zeros((nrows, ncols), dtype=np.int64)
    assert_matches_reference(list(zeros), p, n, ncols)
    assert ml._howell(list(zeros), p, n, ncols)[0].shape == (0, ncols)
    # dependent rows (combinations of a few) leave most of the pool to cancel
    mixed = (rng.integers(0, p**n, size=(nrows, 2)) @ _seeded_rows(rng, p, n, 2, ncols)) % p**n
    assert_matches_reference(list(mixed), p, n, ncols)


@pytest.mark.parametrize("p,n", [(2, 31), (3, 19)])
def test_products_near_2_62_stay_exact(p, n):
    pn = p**n
    s = stack([[1, pn - 1]], (n, n), p=p, n=n)
    assert ml.contains(s, [pn - 2, 2])
    assert ml.contains(s, [-2, 2])
    assert not ml.contains(s, [pn - 2, 3])
    full = stack([[pn - 2, pn - 5], [pn - 3, pn - 7]], (n, n), p=p, n=n)
    det = ((pn - 2) * (pn - 7) - (pn - 5) * (pn - 3)) % pn  # 1, a unit
    assert det % p
    assert ml.normal_form(full).tolist() == [[1, 0], [0, 1]]
    assert ml.subgroup_order_log_p(full) == 2 * n


def test_characteristic_above_the_int64_cap_is_refused():
    p, n = 3, 30  # (p^n)^2 overflows int64: this once gave garbage rows
    pn = p**n
    with pytest.raises(ParameterError, match="above cap 2147483648"):
        stack([[pn - 2, pn - 5], [pn - 3, pn - 7]], (n, n), p=p, n=n)
    with pytest.raises(ParameterError):
        stack([[1, -1]], (n, n), p=p, n=n)
    assert stack([[1]], (31,), p=2, n=31).rows.tolist() == [[1]]


@pytest.fixture
def howell_calls(monkeypatch):
    """Counts the Howell reductions run from here on."""
    calls = []
    inner = ml._howell

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(ml, "_howell", counted)
    return calls


def test_one_howell_reduction_per_span(ring_gal, ring_eis, howell_calls):
    from chaincodes import codes, eisenstein_codes as ec, galois_codes as gc

    gal = gc.build_galois_code(gc.GaloisCodeSpec(ring=ring_gal, N=3, e=((0, 2), (1, 3))))
    assert len(howell_calls) == 1
    eis_spec = ec.EisensteinCodeSpec(ring=ring_eis, N=3, a=((1, 1, 0), (0, 1, 0)))
    eis = ec.build_eisenstein_code(eis_spec)
    assert len(howell_calls) == 2
    howell_calls.clear()
    dual = ec.eisenstein_dual_code(eis)
    assert len(howell_calls) == 2  # the kernel, then the dual's form
    howell_calls.clear()
    for handle in (gal, eis, dual):
        form = handle.stack
        ml.contains(form, codes.shift_row(handle.ring, form.rows[0]))
        ml.subgroup_order_log_p(form)
        ml.stacks_equal(form, form)
        ml.normal_form(form)
    assert howell_calls == []
