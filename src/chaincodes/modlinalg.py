"""Exact linear algebra over Z_{p^n} for finitely generated modules.

Subgroups of mixed-order ambient groups Z_{p^n}^a + Z_{p^(n-1)}^b are handled
with a single modulus p^n plus implicit relation rows p^e * e_j for the
coordinates j of additive order p^e < p^n.  The canonical form is a Howell
form: two generator stacks span the same subgroup exactly when their normal
forms are identical, which is what code equality and dual round-trips lean on.
howell_form computes it once per span; the HowellForm it returns keeps its
pivots, and every query takes such a form as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError


@dataclass
class GeneratorStack:
    """Rows over Z_{p^n} plus the coordinate order profile of the ambient.

    cap_exps[j] is the exponent e with coordinate j of additive order p^e;
    the stack implicitly contains the relation row p^e * e_j whenever e < n.
    """

    rows: np.ndarray
    p: int
    n: int
    cap_exps: tuple

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64).reshape(-1, len(self.cap_exps))
        self.rows = self.rows % (self.p**self.n)

    @property
    def ncols(self):
        return len(self.cap_exps)

    def ambient_log_p(self):
        return int(sum(self.cap_exps))

    def relation_rows(self):
        p, n = self.p, self.n
        rel = []
        for j, e in enumerate(self.cap_exps):
            if e < n:
                row = np.zeros(self.ncols, dtype=np.int64)
                row[j] = p**e
                rel.append(row)
        return rel


def matmul_mod(a, b, modulus):
    """a @ b mod modulus without int64 overflow (falls back to exact objects)."""
    a = np.asarray(a) % modulus
    b = np.asarray(b) % modulus
    inner = a.shape[-1] if a.ndim else 1
    if modulus * modulus * max(inner, 1) < 2**62:
        return (a.astype(np.int64) @ b.astype(np.int64)) % modulus
    return (a.astype(object) @ b.astype(object) % modulus).astype(np.int64)


def _val(x, p, n):
    if x == 0:
        return n
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _howell(rows, p, n, ncols):
    """Howell form over Z_{p^n}: returns (matrix, pivots as (col, val) pairs).

    Pivot choice is leftmost column, then minimal p-valuation, then smallest
    entry value, so the output is deterministic.  Shadow rows p^(n-v) * pivot
    are fed back into the pool, which is what upgrades plain echelon form to
    Howell form (span membership of every trailing-zero combination).
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
    # canonical reduction above the pivots: rows from the bottom up, and for
    # each row the later pivots left to right, so a subtraction only touches
    # columns that a subsequent (already final) pivot row still cleans up
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


@dataclass
class HowellForm(GeneratorStack):
    """A generator stack whose rows are the Howell form of their own span,
    relation rows included; pivots lists (column, valuation) per row.

    Only howell_form builds one, and every query below reads it as it is.
    """

    pivots: tuple


def howell_form(stack):
    """The canonical form of the span: a HowellForm is returned unchanged."""
    if isinstance(stack, HowellForm):
        return stack
    rows = list(stack.rows) + stack.relation_rows()
    mat, pivots = _howell(rows, stack.p, stack.n, stack.ncols)
    return HowellForm(mat, stack.p, stack.n, stack.cap_exps, tuple(pivots))


def normal_form(stack):
    """Canonical row set: identical for any generating set of the subgroup."""
    return howell_form(stack).rows


def subgroup_order_log_p(stack):
    """log_p of the subgroup of the mixed-order ambient spanned by the rows."""
    n = stack.n
    full = sum(n - v for _, v in howell_form(stack).pivots)
    return full - sum(n - e for e in stack.cap_exps)


def contains(stack, vector):
    """Membership of a coordinate vector in the spanned subgroup."""
    if len(vector) != stack.ncols:
        raise LengthMismatchError(f"vector length {len(vector)} != {stack.ncols}")
    p, n = stack.p, stack.n
    pn = p**n
    form = howell_form(stack)
    v = np.asarray(vector, dtype=np.int64) % pn
    for row, (col, val) in zip(form.rows, form.pivots):
        x = int(v[col])
        if x:
            if x % p**val:
                return False
            v = (v - (x // p**val) * row) % pn
    return not v.any()


def kernel_rows(mat, p, n):
    """Left kernel {x : x @ mat = 0 mod p^n} as generator rows."""
    mat = np.asarray(mat, dtype=np.int64)
    nrows, ncols = mat.shape
    pn = p**n
    aug = np.hstack([mat % pn, np.eye(nrows, dtype=np.int64)])
    form = howell_form(GeneratorStack(aug, p, n, (n,) * (ncols + nrows)))
    out = []
    for row, (col, _) in zip(form.rows, form.pivots):
        if col >= ncols:
            out.append(row[ncols:])
    if out:
        return np.vstack(out)
    return np.zeros((0, nrows), dtype=np.int64)


def solve_orthogonal(gram, stack):
    """Annihilator {a : a @ gram @ c = 0 for all c in the span} as a HowellForm.

    gram is the Gram matrix of a Z_{p^n}-bilinear pairing on the ambient; the
    relation rows are included on the constraint side, so a pairing that is
    well defined on the mixed-order ambient yields the honest annihilator.
    """
    p, n = stack.p, stack.n
    pn = p**n
    gram = np.asarray(gram, dtype=np.int64) % pn
    if gram.shape != (stack.ncols, stack.ncols):
        raise LengthMismatchError("gram matrix shape does not match the ambient")
    cons = list(stack.rows) + stack.relation_rows()
    if cons:
        cmat = np.vstack(cons)
        constraints = matmul_mod(gram, cmat.T, pn)
    else:
        constraints = np.zeros((stack.ncols, 0), dtype=np.int64)
    return howell_form(GeneratorStack(kernel_rows(constraints, p, n), p, n, stack.cap_exps))


def stacks_equal(a, b):
    return a.cap_exps == b.cap_exps and np.array_equal(normal_form(a), normal_form(b))
