"""Exact linear algebra over the integers.

Matrices are tuples of row tuples (immutable, hashable); vectors are
tuples.  Everything is integer arithmetic: a rational matrix inverse is
the integer pair (adjugate, determinant) from one fraction-free
elimination, and Smith normal forms come from elementary row and column
operations on integer matrices, which is quick at the sizes used here (at
most 8 x 8).
"""

from __future__ import annotations

import math
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def mat(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def vecmat(v, a):
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0])))


def columns(a: Matrix) -> list[Vector]:
    return [tuple(row[j] for row in a) for j in range(len(a[0]))] if a else []


def _eliminate(rows, n: int):
    """Bareiss's fraction-free Gauss-Jordan elimination (Math. Comp. 22,
    1968) of the leading n x n block A of ``rows``, every division exact.

    Returns (rows, det A): then rows = det A · A^-1 · (input rows), or
    det A = 0 for a singular A.  A swap negates one row, keeping det A.
    """
    m = [list(row) for row in rows]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return m, 0
        if p != k:
            m[k], m[p] = m[p], [-x for x in m[k]]
        top = m[k]
        pivot = top[k]
        for i in range(n):
            f = m[i][k]
            if i != k:
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = pivot
    return m, prev


def det(a) -> int:
    """Determinant of a square integer matrix; 0 when it is singular."""
    return _eliminate(a, len(a))[1]


def adjugate(a) -> tuple[Matrix, int]:
    """(adj a, det a) for a nonsingular square integer matrix, so that
    adj a · a = a · adj a = det a · I; a singular one is a ValueError."""
    n = len(a)
    m, d = _eliminate(
        [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)], n)
    if not d:
        raise ValueError("matrix is singular")
    return mat(row[n:] for row in m), d


def rank(rows) -> int:
    """Rank over the rationals, by fraction-free integer elimination."""
    m = [[int(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for j in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][j]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        a = top[j]
        for i in range(r + 1, len(m)):
            b = m[i][j]
            if b:
                row = [a * x - b * y for x, y in zip(m[i], top)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == len(m):
            break
    return r


def snf_transform(a) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with transforms: returns (d, u, v) with u·a·v = d.

    ``a`` is any k x r integer matrix; u (k x k) and v (r x r) are
    unimodular.  d is diagonal, and its nonzero entries come first, are
    positive and form a divisibility chain d_1 | d_2 | ....

    At step t the entry of smallest nonzero absolute value in the block
    d[t:][t:] becomes the pivot.  Its column and row are cleared by floor
    division; a nonzero remainder is smaller than the pivot and becomes the
    next one.  Once both are clear, a row holding an entry the pivot does
    not divide is added to the pivot row, so the next clearing leaves a
    smaller remainder.  The pivot strictly shrinks each time, so this ends,
    with a pivot dividing the whole remaining block.
    """
    k = len(a)
    r = len(a[0]) if k else 0
    d = [[int(x) for x in row] for row in a]
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    # vt holds the columns of v, so column operations are row operations.
    vt = [[int(i == j) for j in range(r)] for i in range(r)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        vt[i], vt[j] = vt[j], vt[i]

    def add_row(i, j, c):
        """row i += c · row j"""
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        """column i += c · column j"""
        for row in d:
            row[i] += c * row[j]
        vt[i] = [x + c * y for x, y in zip(vt[i], vt[j])]

    for t in range(min(k, r)):
        block = [(abs(d[i][j]), i, j) for i in range(t, k) for j in range(t, r)
                 if d[i][j]]
        if not block:
            break
        _, i, j = min(block)
        swap_rows(t, i)
        swap_cols(t, j)
        while True:
            p = d[t][t]
            for i in range(t + 1, k):
                if d[i][t]:
                    add_row(i, t, -(d[i][t] // p))
            for j in range(t + 1, r):
                if d[t][j]:
                    add_col(j, t, -(d[t][j] // p))
            rest = [(abs(d[i][t]), 0, i) for i in range(t + 1, k) if d[i][t]]
            rest += [(abs(d[t][j]), 1, j) for j in range(t + 1, r) if d[t][j]]
            if rest:
                _, is_col, i = min(rest)
                (swap_cols if is_col else swap_rows)(t, i)
                continue
            bad = next((i for i in range(t + 1, k)
                        if any(x % p for x in d[i][t + 1:])), None)
            if bad is None:
                break
            add_row(t, bad, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    return mat(d), mat(u), transpose(mat(vt))

