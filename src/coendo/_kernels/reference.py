"""Pure-Python kernels.

Same contracts and iteration orders as the compiled versions in
``_fast.pyx``; used automatically when the extension is not built.
"""

from __future__ import annotations


def centralizer_masks(rows, m):
    """Vanishing bitmasks of the given functionals over all points of (Z/m)^r.

    ``rows`` is a k x r integer matrix (k <= 64).  Points v run through
    (Z/m)^r with the last coordinate varying fastest; entry ``idx`` of the
    result has bit i set iff rows[i]·v == 0 mod m.
    """
    k = len(rows)
    r = len(rows[0])
    if k > 64:
        raise ValueError("at most 64 rows supported")
    rowmod = [[x % m for x in row] for row in rows]
    cols = [[rowmod[i][j] for i in range(k)] for j in range(r)]
    # column increments with the wrap correction folded in
    wrap = [[(c * (1 - m)) % m for c in col] for col in cols]
    v = [0] * r
    dots = [0] * k
    n = m**r
    out = [0] * n
    for idx in range(n):
        mask = 0
        for i in range(k):
            if dots[i] == 0:
                mask |= 1 << i
        out[idx] = mask
        j = r - 1
        while j >= 0:
            v[j] += 1
            if v[j] < m:
                inc = cols[j]
                for i in range(k):
                    dots[i] = (dots[i] + inc[i]) % m
                break
            v[j] = 0
            inc = wrap[j]
            for i in range(k):
                dots[i] = (dots[i] + inc[i]) % m
            j -= 1
    return out

