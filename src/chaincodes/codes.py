"""Shared machinery for code handles over R^N.

A codeword vector of N ring elements is flattened position-major into the
integer coordinates (pos, i, j) -> a^{(pos)}_{i,j}; coordinate order caps
follow the ring columns (p^n below x-degree t, p^(n-1) from t on).  Codes are
generator stacks over Z_{p^n} in those coordinates.

A ring scalar c acts on each block of r*k coordinates as one fixed integer
matrix (mul_matrix), and X^l acts as a roll by l blocks (shift_row), so the
builders and closure tests work on integer rows without boxing coordinates
into ring elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modlinalg
from .errors import CertificateError, LengthMismatchError, TooLargeError
from .modlinalg import GeneratorStack, HowellForm


def ambient_caps(ring, N):
    per_pos = tuple(ring.n if j < ring.t else ring.n - 1 for j in range(ring.k)) * ring.r
    return per_pos * N


def flatten_vector(ring, vec):
    return np.array([c for elem in vec for row in elem.grid for c in row], dtype=np.int64)


def unflatten_vector(ring, row, N):
    grids = np.asarray(row, dtype=np.int64).reshape(N, ring.r, ring.k).tolist()
    return [ring.element(grid) for grid in grids]


@dataclass
class CodeHandle:
    """A built additive cyclic code: spec, Howell form of its span, size."""

    family: str
    ring: object
    N: int
    spec: object
    stack: HowellForm
    log_p_card: int


def handle_from_vectors(family, ring, N, spec, vectors):
    return handle_from_rows(family, ring, N, spec, [flatten_vector(ring, v) for v in vectors])


def handle_from_rows(family, ring, N, spec, rows):
    """Handle spanned by flat integer rows (a list of length N*r*k arrays)."""
    mat = np.vstack(rows) if rows else np.zeros((0, N * ring.r * ring.k), dtype=np.int64)
    stack = GeneratorStack(mat, ring.p, ring.n, ambient_caps(ring, N))
    return handle_from_stack(family, ring, N, spec, stack)


def handle_from_stack(family, ring, N, spec, stack):
    form = modlinalg.howell_form(stack)
    return CodeHandle(family, ring, N, spec, form, modlinalg.subgroup_order_log_p(form))


def handles_equal(a, b):
    return (
        a.ring == b.ring
        and a.N == b.N
        and modlinalg.stacks_equal(a.stack, b.stack)
    )


def mul_matrix(ring, c):
    """The (r*k) x (r*k) integer matrix of z -> c*z on one position's block:
    row i*k + j holds the flat coordinates of c * w^i x^j."""
    return np.vstack([
        flatten_vector(ring, [c * ring.element_from_term(i, j, 1)])
        for i in range(ring.r)
        for j in range(ring.k)
    ])


def times(ring, flat, c):
    """Flat rows of c * v, position by position, for every flattened row v.

    One mul_matrix acts on every block of r*k coordinates, and each column
    is then reduced modulo its own order, so the output is exactly the
    flattening of the element-wise products.
    """
    flat = np.asarray(flat, dtype=np.int64)
    per = ring.r * ring.k
    blocks = modlinalg.matmul_mod(flat.reshape(-1, per), mul_matrix(ring, c), ring.pn)
    return (blocks % np.array(ring.col_mod * ring.r, dtype=np.int64)).reshape(flat.shape)


def shift_row(ring, row, l=1):
    """Cyclic shift by X^l: (a_1,...,a_N) -> (a_N, a_1, ...) for l = 1, on a
    flattened row."""
    per = ring.r * ring.k
    return np.roll(np.asarray(row), l * per)


def is_shift_closed(handle):
    return all(
        modlinalg.contains(handle.stack, shift_row(handle.ring, row))
        for row in handle.stack.rows
    )


def is_x_closed(handle):
    moved = times(handle.ring, handle.stack.rows, handle.ring.x)
    return all(modlinalg.contains(handle.stack, row) for row in moved)


def _scaled_rows(handle):
    stack = handle.stack
    pn = stack.p**stack.n
    scale = np.array([stack.p ** (stack.n - e) for e in stack.cap_exps], dtype=np.int64)
    rows = list(stack.rows) + stack.relation_rows()
    if not rows:
        return np.zeros((0, stack.ncols), dtype=np.int64)
    return (np.vstack(rows) * scale) % pn


def _unscale(handle, scaled):
    stack = handle.stack
    scale = np.array([stack.p ** (stack.n - e) for e in stack.cap_exps], dtype=np.int64)
    if (scaled % scale).any():
        raise CertificateError("a scaled codeword left the p-scaled ambient")
    return scaled // scale


def _scaled_basis(handle, cap_log2):
    """Howell basis of the p-scaled span: coordinates of order p^(n-1) are
    multiplied by p first, turning the mixed ambient into a plain Z_{p^n}
    module whose Howell form enumerates the code without duplicates."""
    stack = handle.stack
    p, n = stack.p, stack.n
    scaled = GeneratorStack(_scaled_rows(handle), p, n, (n,) * stack.ncols)
    form = modlinalg.howell_form(scaled)
    log_p = modlinalg.subgroup_order_log_p(form)
    if log_p != handle.log_p_card:
        raise CertificateError(f"p-scaled span has p^{log_p} words, the code p^{handle.log_p_card}")
    if log_p * np.log2(p) > cap_log2:
        raise TooLargeError(f"code has p^{log_p} words, cap is 2^{cap_log2}")
    ranges = [p ** (n - v) for _, v in form.pivots]
    return form.rows, ranges, p**log_p


def _digit_block(idx, ranges):
    digits = np.zeros((len(idx), len(ranges)), dtype=np.int64)
    reps = 1
    for col, size in enumerate(ranges):
        digits[:, col] = (idx // reps) % size
        reps *= size
    return digits


def enumerate_words(handle, cap_log2=20):
    """All codewords as canonical flattened rows; refuses beyond the cap.
    The full word matrix is materialized, hence the lower default cap than
    the streaming weight enumerator."""
    stack = handle.stack
    pn = stack.p**stack.n
    mat, ranges, total = _scaled_basis(handle, cap_log2)
    if not ranges:
        return np.zeros((1, stack.ncols), dtype=np.int64)
    out = np.zeros((total, stack.ncols), dtype=np.int64)
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        out[start : start + len(idx)] = modlinalg.matmul_mod(
            _digit_block(idx, ranges), mat, pn
        )
    return _unscale(handle, out)


def weight_enumerator(handle, cap_log2=24):
    """Hamming weight distribution {weight: count} over all codewords."""
    stack = handle.stack
    N = handle.N
    pn = stack.p**stack.n
    mat, ranges, total = _scaled_basis(handle, cap_log2)
    if not ranges:
        return {0: 1}
    per = handle.ring.r * handle.ring.k
    counts = np.zeros(N + 1, dtype=np.int64)
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        words = modlinalg.matmul_mod(_digit_block(idx, ranges), mat, pn)
        nz = words.reshape(len(idx), N, per).any(axis=2)
        counts += np.bincount(nz.sum(axis=1), minlength=N + 1)
    return {w: int(c) for w, c in enumerate(counts) if c}


def trace_inner_product(ring, a_vec, b_vec):
    """Sum of Tr(a_i b_i); S-bilinear, lands in the rank-1 subring."""
    if len(a_vec) != len(b_vec):
        raise LengthMismatchError("vectors must have the same length")
    acc = ring.zero
    for a, b in zip(a_vec, b_vec):
        acc = acc + ring.trace_to_base(a * b)
    return acc


def euclidean_inner_product(ring, a_vec, b_vec):
    if len(a_vec) != len(b_vec):
        raise LengthMismatchError("vectors must have the same length")
    acc = ring.zero
    for a, b in zip(a_vec, b_vec):
        acc = acc + a * b
    return acc
