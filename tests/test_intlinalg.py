import random

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

from coendo import intlinalg as il


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def from_columns(cols):
    return tuple(tuple(col[i] for col in cols) for i in range(len(cols[0])))


def random_matrix(rng, n, bound=6):
    return il.mat([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def random_unimodular(rng, n, steps=12):
    m = [list(row) for row in il.identity(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for t in range(n):
            m[i][t] += c * m[j][t]
    return il.mat(m)


def smith_factors(a):
    """Nonzero diagonal of the Smith form: positive, a divisibility chain."""
    d, _, _ = il.snf_transform(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i]]


def test_snf_transform_identity():
    a = il.mat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    d, u, v = il.snf_transform(a)
    assert matmul(matmul(u, a), v) == d
    assert smith_factors(a) == [2, 2, 156]


def test_invariant_factors_divisibility_chain():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n)
        factors = smith_factors(a)
        for x, y in zip(factors, factors[1:]):
            assert y % x == 0


def test_snf_invariant_under_unimodular_change():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 4)
        a = random_matrix(rng, n)
        u = random_unimodular(rng, n)
        v = random_unimodular(rng, n)
        assert smith_factors(a) == smith_factors(
            matmul(matmul(u, a), v)
        )


def test_det_matches_product_of_invariants():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        d = il.det(a)
        factors = smith_factors(a)
        if d == 0:
            assert len(factors) < n
        else:
            prod = 1
            for f in factors:
                prod *= f
            assert abs(d) == prod


def test_inverse_and_solve():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        if il.det(a) == 0:
            continue
        adj, d = il.adjugate(a)
        inv = [[Fraction(x, d) for x in row] for row in adj]
        prod = [
            [sum(Fraction(a[i][t]) * inv[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        y = tuple(rng.randint(-5, 5) for _ in range(n))
        x = il.matvec(inv, y)
        assert tuple(sum(Fraction(a[i][j]) * x[j] for j in range(n)) for i in range(n)) \
            == tuple(Fraction(t) for t in y)


@st.composite
def square_int_matrices(draw):
    """n x n integer matrices, 1 <= n <= 8, small entries or up to 10^9;
    some have a row made a multiple of another, so they are singular."""
    n = draw(st.integers(1, 8))
    bound = draw(st.sampled_from([2, 10**9]))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound),
                                  min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        rows[i] = [c * x for x in rows[j]]
    return il.mat(rows)


@settings(max_examples=150, deadline=None)
@given(square_int_matrices())
def test_det_and_adjugate_match_sympy(a):
    n = len(a)
    ref = DomainMatrix.from_list_sympy(n, n, a).convert_to(sympy.ZZ)
    assert il.det(a) == ref.det()
    if not il.det(a):
        with pytest.raises(ValueError):
            il.adjugate(a)
        return
    adj, d = il.adjugate(a)
    assert d == il.det(a)
    assert all(type(x) is int for row in adj for x in row)
    assert [list(row) for row in adj] == ref.adjugate().to_list()
    scalar = tuple(tuple(d * int(i == j) for j in range(n)) for i in range(n))
    assert matmul(adj, a) == scalar == matmul(a, adj)


def test_rank():
    assert il.rank([[1, 2], [2, 4]]) == 1
    assert il.rank([[1, 0], [0, 1]]) == 2
    assert il.rank([[0, 0]]) == 0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=1, max_size=5),
       st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=3, max_size=3))
def test_rank_matches_sympy(left, right):
    # products of random factors give rank-deficient matrices as well
    for rows in (left, matmul(left, right)):
        assert il.rank(rows) == sympy.Matrix(rows).rank()


@st.composite
def int_matrices(draw):
    """k x r integer matrices, 1 <= k, r <= 6, some rows zero.

    Small entries give rank-deficient matrices and long divisibility
    chains; large ones stress the growth of the transforms.
    """
    k = draw(st.integers(1, 6))
    r = draw(st.integers(1, 6))
    bound = draw(st.sampled_from([3, 10**9]))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound),
                                  min_size=r, max_size=r),
                         min_size=k, max_size=k))
    zero = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return il.mat([[0] * r if z else row for row, z in zip(rows, zero)])


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_snf_transform_properties(a):
    k, r = len(a), len(a[0])
    d, u, v = il.snf_transform(a)
    assert matmul(matmul(u, a), v) == d
    assert abs(il.det(u)) == 1 and abs(il.det(v)) == 1
    assert all(d[i][j] == 0 for i in range(k) for j in range(r) if i != j)
    diag = [d[i][i] for i in range(min(k, r))]
    nonzero = [x for x in diag if x]
    assert diag[:len(nonzero)] == nonzero
    assert all(x > 0 for x in nonzero)
    assert all(y % x == 0 for x, y in zip(nonzero, nonzero[1:]))
    expected = [abs(int(x)) for x in
                invariant_factors(sympy.Matrix(a), domain=sympy.ZZ) if x]
    assert nonzero == expected
