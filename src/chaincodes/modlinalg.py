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

from .errors import LengthMismatchError, ParameterError
from .rings import _CHAR_CAP


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
        if self.p**self.n > _CHAR_CAP:  # q * row products need (p^n)^2 < 2^63
            raise ParameterError(f"characteristic p^n = {self.p**self.n} above cap {_CHAR_CAP}")
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


def _howell(rows, p, n, ncols):
    """Howell form over Z_{p^n}: returns (matrix, pivots as (col, val) pairs).

    The pool is one int64 matrix, and each column costs a fixed number of
    array operations.  Pivot choice is leftmost column, then least
    p-valuation, then least entry, then first row in pool order, so the
    output is deterministic.  Shadow rows p^(n-v) * pivot are appended to the
    pool, which is what upgrades plain echelon form to Howell form (span
    membership of every trailing-zero combination).  Entries stay below
    p^n <= 2^31, so every product q * row fits in int64.
    """
    pn = p**n
    m = len(rows)
    pool = np.zeros((m + ncols, ncols), dtype=np.int64)  # a free row per shadow
    pool[:m] = np.reshape(rows, (m, ncols)) % pn
    live = np.flatnonzero(pool[:m].any(axis=1))  # pool order, as row indices
    top = m
    pivots, prows = [], []  # prows: pool slots, which keep each pivot row
    for col in range(ncols):
        if not live.size:
            break
        column = pool[live, col]
        hit = column.nonzero()[0]
        if not hit.size:
            continue
        x = column[hit]
        val = np.zeros(hit.size, dtype=np.int64)
        for k in range(1, n):
            val += x % p**k == 0
        best = int((val * pn + x).argmin())  # first minimum: earliest pool row
        v = int(val[best])
        rows_hit = live[hit]
        prow = rows_hit[best]
        piv = pool[prow, col:] * pow(int(x[best]) // p**v, -1, pn) % pn
        # the pivot's own row is unit * piv, so it cancels with the others
        block = (pool[rows_hit, col:] - (x // p**v)[:, None] * piv) % pn
        pool[rows_hit, col:] = block
        pool[prow, col:] = piv
        keep = column == 0
        keep[hit] = block.any(axis=1)
        live = live[keep]
        if v:
            shadow = piv * p ** (n - v) % pn
            if shadow.any():
                pool[top, col:] = shadow
                live = np.append(live, top)
                top += 1
        pivots.append((col, v))
        prows.append(prow)
    mat = pool[prows]
    # canonical reduction above the pivots: pivot l leaves every entry above
    # it in [0, p^v_l), and later pivot rows are zero in column col_l, so one
    # pass in pivot order gives the unique reduced form
    for l, (col, v) in enumerate(pivots):
        above = (mat[:l, col] >= p**v).nonzero()[0]
        q = mat[above, col] // p**v
        mat[above, col:] = (mat[above, col:] - q[:, None] * mat[l, col:]) % pn
    return mat, pivots


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


def members(stack, vectors):
    """Membership in the spanned subgroup, per row of a 2-D array (or of one
    vector): one reduction pass over the pivots answers every row."""
    v = np.asarray(vectors, dtype=np.int64)
    if v.shape[-1] != stack.ncols:
        raise LengthMismatchError(f"vector length {v.shape[-1]} != {stack.ncols}")
    p, pn = stack.p, stack.p**stack.n
    form = howell_form(stack)
    v = v.reshape(-1, stack.ncols) % pn
    for row, (col, val) in zip(form.rows, form.pivots):
        # a remainder x mod p^val stays in column col, which no later pivot touches
        hit = v[:, col].nonzero()[0]
        if hit.size:
            v[hit, col:] = (v[hit, col:] - (v[hit, col] // p**val)[:, None] * row[col:]) % pn
    return ~v.any(axis=1)


def contains(stack, vectors):
    """Membership of a vector, or of every row of a 2-D array."""
    return bool(members(stack, vectors).all())


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
