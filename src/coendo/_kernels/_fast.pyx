# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernel for torus sweeps.

Contracts mirror ``reference.py`` exactly, including iteration order.
"""

from libc.stdlib cimport malloc, free


def centralizer_masks(rows, m):
    """See reference.centralizer_masks."""
    cdef int k = len(rows)
    cdef int r = len(rows[0])
    if k > 64:
        raise ValueError("at most 64 rows supported")
    cdef long mm = m
    cdef long n = 1
    cdef int i, j
    for j in range(r):
        n *= mm
    cdef long* cols = <long*> malloc(r * k * sizeof(long))
    cdef long* wrap = <long*> malloc(r * k * sizeof(long))
    cdef long* dots = <long*> malloc(k * sizeof(long))
    cdef long* v = <long*> malloc(r * sizeof(long))
    if cols == NULL or wrap == NULL or dots == NULL or v == NULL:
        raise MemoryError()
    out = [0] * n
    cdef long idx
    cdef unsigned long long mask
    cdef long* inc
    try:
        for j in range(r):
            for i in range(k):
                cols[j * k + i] = (<long> rows[i][j]) % mm
                if cols[j * k + i] < 0:
                    cols[j * k + i] += mm
                wrap[j * k + i] = (cols[j * k + i] * (1 - mm)) % mm
                if wrap[j * k + i] < 0:
                    wrap[j * k + i] += mm
        for i in range(k):
            dots[i] = 0
        for j in range(r):
            v[j] = 0
        for idx in range(n):
            mask = 0
            for i in range(k):
                if dots[i] == 0:
                    mask |= (<unsigned long long> 1) << i
            out[idx] = mask
            j = r - 1
            while j >= 0:
                v[j] += 1
                if v[j] < mm:
                    inc = cols + j * k
                    for i in range(k):
                        dots[i] = (dots[i] + inc[i]) % mm
                    break
                v[j] = 0
                inc = wrap + j * k
                for i in range(k):
                    dots[i] = (dots[i] + inc[i]) % mm
                j -= 1
    finally:
        free(cols)
        free(wrap)
        free(dots)
        free(v)
    return out

