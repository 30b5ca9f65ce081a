import functools
import operator
import random
import time
from operator import itemgetter

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coendo import coendoscopy as C
from coendo import intlinalg as il
from coendo import rootsys as R
from test_intlinalg import matmul, random_unimodular
from test_torus import (CENTRALIZER_DATA, intermediate_data,
                        reflection_by_formula, root_index, weyl_inverse,
                        weyl_matrix, weyl_reflection)

ALL_SIMPLE = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(3, 9)]
    + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

ROOT_COUNTS = {"A": lambda r: r * (r + 1), "B": lambda r: 2 * r * r,
               "C": lambda r: 2 * r * r, "D": lambda r: 2 * r * (r - 1),
               "E": lambda r: {6: 72, 7: 126, 8: 240}[r],
               "F": lambda r: 48, "G": lambda r: 12}


def brute_reflection_closure(cartan):
    """Independent reflection-closure oracle straight from a Cartan matrix."""
    r = len(cartan)
    roots = {tuple(int(i == j) for j in range(r)) for i in range(r)}
    changed = True
    while changed:
        changed = False
        for c in list(roots):
            for j in range(r):
                pair = sum(c[i] * cartan[i][j] for i in range(r))
                new = tuple(ci - pair * (i == j) for i, ci in enumerate(c))
                if new not in roots:
                    roots.add(new)
                    changed = True
    return roots


@pytest.mark.parametrize("name", ALL_SIMPLE)
def test_root_counts(name):
    rs = R.build_root_system([name])
    t = rs.simple_factors[0]
    assert rs.num_roots == ROOT_COUNTS[t.family](t.rank)
    assert rs.dim_g == rs.num_roots + rs.rank


def test_g2_closure_matches_brute_oracle():
    rs = R.build_root_system(["G2"])
    brute = brute_reflection_closure(rs.cartan)
    assert {rt.coeffs for rt in rs.roots} == brute
    assert rs.num_roots == 12


def test_product_root_system():
    rs = R.build_root_system(["A1", "A1"])
    assert rs.num_roots == 4
    assert rs.rank == 2
    # orthogonal factors: all cross pairings vanish
    for rt in rs.roots:
        for other in rs.roots:
            if rt.factor != other.factor:
                assert sum(
                    a * b for a, b in zip(rt.coeffs, other.coroot_ambient)
                ) == 0


def test_illegal_types_rejected():
    for bad in ["B1", "C2", "D3", "E5", "E9", "F5", "G3", "H4", "A0"]:
        with pytest.raises(R.IllegalType):
            R.build_root_system([bad])


def test_roots_negation_closed_and_sign_coherent():
    for name in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        rs = R.build_root_system([name])
        for rt in rs.roots:
            neg = tuple(-x for x in rt.coeffs)
            assert root_index(rs, neg) is not None
            signs = {x > 0 for x in rt.coeffs if x} | {x < 0 for x in rt.coeffs if x}
            # all coefficients of one sign
            assert all(x >= 0 for x in rt.coeffs) or all(x <= 0 for x in rt.coeffs)


def test_cartan_reconstruction():
    # the pairing of simple roots against simple coroots returns the input
    for name in ["A2", "B3", "G2", "F4", "D5"]:
        rs = R.build_root_system([name])
        r = rs.rank
        simple = [root_index(rs, tuple(int(i == j) for j in range(r))) for i in range(r)]
        rebuilt = [
            [
                sum(
                    rs.roots[si].coeffs[t] * rs.roots[sj].coroot_ambient[t]
                    for t in range(r)
                )
                for sj in simple
            ]
            for si in simple
        ]
        assert il.mat(rebuilt) == rs.cartan


def highest_root_coefficients(rs, factor_index):
    """Coefficients of the highest root of an irreducible factor on its
    nodes, the Bourbaki marks."""
    nodes = [j for j, s in enumerate(rs.simple_indices)
             if rs.roots[s].factor == factor_index]
    best = max((rt for rt in rs.roots if rt.factor == factor_index),
               key=lambda rt: rt.height)
    return tuple(best.coeffs[j] for j in nodes)


HIGHEST = {
    "A": lambda r: [1] * r,
    "B": lambda r: [1] + [2] * (r - 1),
    "C": lambda r: [2] * (r - 1) + [1],
    "D": lambda r: [1, 1, 1] + [2] * (r - 3),
    "E": lambda r: {6: [1, 1, 2, 2, 2, 3], 7: [1, 2, 2, 2, 3, 3, 4],
                    8: [2, 2, 3, 3, 4, 4, 5, 6]}[r],
    "F": lambda r: [2, 2, 3, 4],
    "G": lambda r: [2, 3],
}


@pytest.mark.parametrize("name", ALL_SIMPLE)
def test_highest_root_multisets(name):
    rs = R.build_root_system([name])
    t = rs.simple_factors[0]
    got = sorted(highest_root_coefficients(rs, 0))
    assert got == sorted(HIGHEST[t.family](t.rank))
    assert all(h >= 1 for h in got)


def exponents_oracle(rs, fi):
    """Height histogram, conjugated by hand."""
    hist = {}
    for rt in rs.roots:
        if rt.factor == fi and rt.positive:
            hist[rt.height] = hist.get(rt.height, 0) + 1
    out = []
    k = 1
    while True:
        cnt = sum(1 for v in hist.values() if v >= k)
        if not cnt:
            break
        out.append(cnt)
        k += 1
    return sorted(out)


@pytest.mark.parametrize("name", ALL_SIMPLE)
def test_exponents_sum_rule(name):
    rs = R.build_root_system([name])
    m = R.exponents(rs, 0)
    assert list(m) == exponents_oracle(rs, 0)
    assert sum(m) == rs.num_roots // 2


def test_exponents_known_values():
    assert R.exponents(R.build_root_system(["A2"]), 0) == (1, 2)
    assert R.exponents(R.build_root_system(["G2"]), 0) == (1, 5)
    assert R.exponents(R.build_root_system(["E8"]), 0) == (
        1, 7, 11, 13, 17, 19, 23, 29)


@pytest.mark.parametrize("name", ALL_SIMPLE)
def test_weyl_order_closed_form(name):
    t = R.SimpleType.parse(name)
    assert t.weyl_order == R.weyl_order(R.build_root_system([t]))


def test_weyl_generate_orders():
    assert R.weyl_generate(R.build_root_system(["A2"])).order == 6
    assert R.weyl_generate(R.build_root_system(["B3"])).order == 48
    assert R.weyl_generate(R.build_root_system(["F4"])).order == 1152


def test_weyl_group_structure():
    rs = R.build_root_system(["B2"])
    w = R.weyl_generate(rs)
    assert weyl_matrix(w, 0) == il.identity(2)
    assert tuple(w.perms[0]) == tuple(range(rs.num_roots))
    for i in range(w.order):
        perm = w.perms[i]
        assert sorted(perm) == list(range(rs.num_roots))
        assert w.mul(i, weyl_inverse(w, i)) == 0
    lengths = sorted(w.length(i) for i in range(w.order))
    assert lengths[0] == 0 and lengths[-1] == len(rs.positive_indices)


def test_weyl_generate_refuses_more_than_255_roots():
    # a byte indexes at most 255 roots; the guard fires before any element
    # is enumerated, even with the order cap raised past |W|
    rs = R.build_root_system(["E8", "E8"])
    t0 = time.time()
    with pytest.raises(R.CapExceeded) as info:
        R.weyl_generate(rs, cap=10**40)
    assert time.time() - t0 < 1.0
    assert info.value.order == 696729600 ** 2
    assert "480 roots" in str(info.value)


def test_weyl_cap_reports_exact_order():
    rs = R.build_root_system(["E7"])
    with pytest.raises(R.CapExceeded) as info:
        R.weyl_generate(rs, cap=1000)
    assert info.value.order == 2903040


def test_closure_breadth_first():
    # By hand: level 0 is the seeds; level 1 is 2, 1 in the order 0 lists
    # them; level 2 is 3, 5 (from 2) then 4 (from 1), since 2 is visited
    # before 1; level 3 is 6. 7 is unreachable. A depth-first search would
    # list 0, 2, 3, 6, 5, 1, 4.
    graph = {0: [2, 1], 1: [4, 3], 2: [3, 5], 3: [0, 6], 4: [], 5: [6],
             6: [6], 7: [0]}
    dist = R.closure([0], graph.__getitem__)
    assert list(dist.items()) == [(0, 0), (2, 1), (1, 1), (3, 2), (5, 2),
                                  (4, 2), (6, 3)]
    # a repeated seed appears once, seeds first in the order given
    dist = R.closure([4, 0, 4], graph.__getitem__)
    assert list(dist.items()) == [(4, 0), (0, 0), (2, 1), (1, 1), (3, 2),
                                  (5, 2), (6, 3)]
    assert R.closure([], graph.__getitem__) == {}


def matrix_bfs_closure(rs):
    """Reference enumeration of W as ambient matrices: BFS frontier by
    frontier, each element right-multiplied by the simple reflections
    s_j = I - (column j of C) e_j^T in node order, identity first."""
    r = rs.rank
    gens = [
        il.mat([[int(i == t) - (t == j) * rs.cartan[i][j] for t in range(r)]
                for i in range(r)])
        for j in range(r)
    ]
    seen = {il.identity(r)}
    order = [il.identity(r)]
    frontier = [il.identity(r)]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                prod = matmul(a, g)
                if prod not in seen:
                    seen.add(prod)
                    order.append(prod)
                    new.append(prod)
        frontier = new
    return order


@pytest.mark.parametrize("name", ["B2", "B3", "G2", "F4", "A2,A1"])
def test_weyl_enumeration_order_matches_matrix_bfs(name):
    rs = R.build_root_system(name.split(","))
    w = R.weyl_generate(rs)
    assert [weyl_matrix(w, i) for i in range(w.order)] == \
        matrix_bfs_closure(rs)


@functools.lru_cache(maxsize=None)
def cached_weyl(factors):
    return R.weyl_generate(R.build_root_system(list(factors)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weyl_permutation_representation(data):
    factors = data.draw(st.sampled_from(
        [("B3",), ("G2",), ("A2", "A1"), ("F4",)]))
    w = cached_weyl(factors)
    rs = w.rs
    i = data.draw(st.integers(0, w.order - 1))
    j = data.draw(st.integers(0, w.order - 1))
    mi = weyl_matrix(w, i)
    assert weyl_matrix(w, w.mul(i, j)) == matmul(mi, weyl_matrix(w, j))
    assert w.mul(i, weyl_inverse(w, i)) == 0
    positive = set(rs.positive_indices)
    by_coroot = {rt.coroot_ambient: rt.index for rt in rs.roots}
    images = [by_coroot[il.matvec(mi, rt.coroot_ambient)] for rt in rs.roots]
    assert tuple(w.perms[i]) == tuple(images)
    assert w.length(i) == sum(
        1 for k in rs.positive_indices if images[k] not in positive)


WEYL_TYPES = [("B3",), ("G2",), ("A2", "A1"), ("D4",), ("F4",)]


def tuple_inverse(perm):
    """The inverse of a permutation tuple, entry by entry."""
    out = [0] * len(perm)
    for k, x in enumerate(perm):
        out[x] = k
    return tuple(out)


@functools.lru_cache(maxsize=None)
def cached_tuple_inverses(factors):
    return [tuple_inverse(tuple(perm)) for perm in cached_weyl(factors).perms]


@functools.lru_cache(maxsize=None)
def cached_bases(factors):
    """The bases of the equal-rank subsystems, one per subsystem."""
    return [sub.base_indices for sub in
            C.equal_rank_subsystems(cached_weyl(factors).rs)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weyl_products_and_inverses_match_tuples(data):
    factors = data.draw(st.sampled_from(WEYL_TYPES))
    w = cached_weyl(factors)
    i = data.draw(st.integers(0, w.order - 1))
    j = data.draw(st.integers(0, w.order - 1))
    a, b = tuple(w.perms[i]), tuple(w.perms[j])
    # itemgetter(*b)(a) is a o b: root k goes to a[b[k]]
    assert tuple(w.perms[w.mul(i, j)]) == itemgetter(*b)(a)
    assert tuple(w.perms[weyl_inverse(w, i)]) == tuple_inverse(a)


def coset_rep(w, base, x):
    """The representative in ``w.cosets(base)`` of W_iota x, by descent:
    while x^-1(beta) < 0 for some beta in the base, s_beta x is shorter.
    The descent ends when ``base`` is a simple system."""
    half = w.rs.num_roots // 2
    perm = w.perms[x]
    while (beta := next((b for b in base if perm.index(b) < half),
                        None)) is not None:
        table = bytes(reflection_by_formula(w.rs, beta)).ljust(256, b"\0")
        perm = perm.translate(table)  # s_beta o perm
    return w.index[perm]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weyl_cosets_match_tuple_scan_and_descent(data):
    # the base of an equal-rank subsystem, or a nonempty part of it: the
    # simple system of a parabolic subgroup of that subsystem's W
    factors = data.draw(st.sampled_from(WEYL_TYPES))
    w = cached_weyl(factors)
    rs = w.rs
    base = data.draw(st.sampled_from(cached_bases(factors)))
    base = base[data.draw(st.integers(0, len(base) - 1)):]
    half = rs.num_roots // 2
    inverses = cached_tuple_inverses(factors)
    scan = [x for x in range(w.order)
            if all(inverses[x][b] >= half for b in base)]
    assert w.cosets(base) == scan
    x = data.draw(st.integers(0, w.order - 1))
    perm = tuple(w.perms[x])
    while (beta := next((b for b in base if tuple_inverse(perm)[b] < half),
                        None)) is not None:
        refl = reflection_by_formula(rs, beta)
        perm = tuple(refl[k] for k in perm)
    rep = coset_rep(w, base, x)
    assert tuple(w.perms[rep]) == perm
    assert rep in scan
    # W_iota x = W_iota s_j_1 ... s_j_l: the recorded moves along a reduced
    # word of x, from the identity's coset, land on the descent's result
    at = scan.index(0)
    for j in w.word(x):
        at = w.coset_moves(base)[j][at]
    assert scan[at] == rep


@pytest.mark.parametrize("name", ["G2", "B3", "C3"])
def test_words_are_reduced_and_multiply_back(name):
    w = cached_weyl((name,))
    gens = [weyl_reflection(w, s) for s in w.rs.simple_indices]
    for x in range(w.order):
        word = w.word(x)
        assert len(word) == w.length(x)
        assert functools.reduce(w.mul, map(gens.__getitem__, word), 0) == x


@st.composite
def cochar_data(draw):
    """A datum with X_* the coroot lattice, the coweight lattice, or a
    random lattice between them in a random basis."""
    kind = draw(st.sampled_from(["sc", "ad", "intermediate"]))
    if kind == "intermediate":
        return draw(intermediate_data())[0]
    name = draw(st.sampled_from(["A1", "A2", "A3", "B2", "C3", "G2", "A2,A1"]))
    return R.make_datum(name.split(","), kind, 7)


def key_sums(rs):
    """For each root i, the pairs (j, k) with root i + root j = root k,
    read off the roots' integer keys."""
    keys = rs.keys
    index = rs.key_index.get
    return tuple(
        tuple((j, k) for j, k in enumerate(map(index, [a + b for b in keys]))
              if k is not None)
        for a in keys
    )


def tuple_sums(rs):
    """The root-sum table by coefficient-tuple arithmetic: for each root i,
    the pairs (j, k) with root i + root j = root k."""
    return tuple(
        tuple((j, k) for j, b in enumerate(rs.roots)
              if (k := root_index(rs, tuple(x + y for x, y in
                                            zip(a.coeffs, b.coeffs))))
              is not None)
        for a in rs.roots
    )


@pytest.mark.parametrize("factors", [[name] for name in ALL_SIMPLE]
                         + [["B2", "A1"], ["G2", "B2"]], ids=str)
def test_root_sums_match_coefficient_tuples(factors):
    rs = R.build_root_system(factors)
    assert key_sums(rs) == tuple_sums(rs)


def test_weyl_reflection_lookup():
    rs = R.build_root_system(["B3"])
    w = R.weyl_generate(rs)
    for t in range(rs.num_roots):
        s = weyl_reflection(w, t)
        assert w.mul(s, s) == 0
        assert w.perms[s][t] == rs.negate[t]
    assert [weyl_reflection(w, s) for s in rs.simple_indices] == [1, 2, 3]


def compose_word(rs, word):
    """The root permutation of s_j_1 ... s_j_k, composed from the simple
    reflection permutations: root i goes to s_j_1(... s_j_k(i))."""
    perm = tuple(range(rs.num_roots))
    for j in word:
        perm = itemgetter(*rs.simple_reflection_perms[j])(perm)
    return perm


@pytest.mark.parametrize("factors", [[name] for name in ALL_SIMPLE]
                         + [["E8", "A4"]], ids=repr)
def test_reflections_by_conjugation_match_formula(factors):
    # E8 x A4 has 260 roots, more than a byte can index
    rs = R.build_root_system(factors)
    half = rs.num_roots // 2
    for i in range(rs.num_roots):
        word = rs.reflection_word(i)
        refl = compose_word(rs, word)
        assert word == word[::-1]
        assert refl == reflection_by_formula(rs, i)
        # reduced: as long as the number of positive roots s_beta negates
        assert len(word) == sum(refl[k] < half for k in rs.positive_indices)
    assert rs.simple_reflection_perms == tuple(
        reflection_by_formula(rs, s) for s in rs.simple_indices)


@pytest.mark.parametrize("name", ["G2", "B3", "C4", "D5", "F4", "E6",
                                  "A2,B2"])
def test_reflection_words_are_reduced(name):
    # as long as s_beta is deep in the breadth-first enumeration of W
    w = cached_weyl(tuple(name.split(",")))
    for i in range(w.rs.num_roots):
        assert len(w.rs.reflection_word(i)) == w.length(weyl_reflection(w, i))


def pair_closure(factors):
    """The roots of a product the direct way, as (coefficients, factor,
    coroot in coweight coordinates), sorted by height: per factor, the
    reflection closure of the simple (root, coroot) pairs in simple-root
    and simple-coroot coefficients, every pairing a sum over the Cartan
    matrix, embedded at the factor's offset."""
    r = sum(t.rank for t in factors)
    out = []
    off = 0
    for fi, t in enumerate(factors):
        cartan = t.cartan()
        n = t.rank

        def reflect(pair):
            c, k = pair
            for j in range(n):
                pair_cj = sum(c[i] * cartan[i][j] for i in range(n))
                pair_jk = sum(cartan[j][i] * k[i] for i in range(n))
                yield (tuple(ci - pair_cj * (i == j) for i, ci in enumerate(c)),
                       tuple(ki - pair_jk * (i == j) for i, ki in enumerate(k)))

        simple = [(tuple(int(i == j) for j in range(n)),) * 2
                  for i in range(n)]
        before, after = (0,) * off, (0,) * (r - off - n)
        for c, k in R.closure(simple, reflect):
            # the coroot sum_j k_j alpha_j^vee, alpha_j^vee being column j
            # of the Cartan matrix
            coroot = tuple(sum(cartan[i][j] * k[j] for j in range(n))
                           for i in range(n))
            out.append((before + c + after, fi, before + coroot + after))
        off += n
    return sorted(out, key=lambda root: (sum(root[0]), root[0]))


@pytest.mark.parametrize("factors", [[name] for name in ALL_SIMPLE]
                         + [["A1", "A1"], ["E8", "A4"]], ids=repr)
def test_one_closure_matches_pair_closure(factors):
    rs = R.build_root_system(factors)
    ref = pair_closure(rs.simple_factors)
    assert [(rt.coeffs, rt.factor, rt.coroot_ambient)
            for rt in rs.roots] == ref
    index = {c: i for i, (c, _, _) in enumerate(ref)}
    assert rs.negate == tuple(index[tuple(-x for x in c)] for c, _, _ in ref)
    simple = [index[tuple(int(i == j) for j in range(rs.rank))]
              for i in range(rs.rank)]
    assert rs.simple_reflection_perms == tuple(
        tuple(index[tuple(a - sum(map(operator.mul, c, ref[s][2])) * b
                          for a, b in zip(c, ref[s][0]))]
              for c, _, _ in ref)
        for s in simple)


def test_characteristic_of_large_prime_is_fast():
    t0 = time.time()
    assert R.characteristic_of(1000000007) == 1000000007
    assert time.time() - t0 < 1.0


@pytest.mark.parametrize("q,p", [(2**10, 2), (3**7, 3), (2, 2), (25, 5)])
def test_characteristic_of_prime_powers(q, p):
    assert R.characteristic_of(q) == p


@pytest.mark.parametrize("q", [6, 12, 1, 0, 1000000007 * 2])
def test_characteristic_of_rejects_non_prime_powers(q):
    with pytest.raises(ValueError):
        R.characteristic_of(q)


QUOTIENTS = [
    ("A1", (2,)), ("A2", (3,)), ("A7", (8,)),
    ("B2", (2,)), ("B5", (2,)), ("C3", (2,)), ("C6", (2,)),
    ("D4", (2, 2)), ("D6", (2, 2)), ("D8", (2, 2)),
    ("D5", (4,)), ("D7", (4,)),
    ("E6", (3,)), ("E7", (2,)), ("E8", ()), ("F4", ()), ("G2", ()),
]


def coweight_lattice(rs):
    return R.Lattice("coweight", il.identity(rs.rank))


def coroot_lattice(rs):
    return R.Lattice("coroot", rs.cartan)


def lattice_quotient(big, small):
    """big/small via the Smith normal form of the inclusion matrix."""
    n = len(big.basis)
    adj, det = big.adjugate
    scaled = matmul(adj, small.basis)
    if any(x % det for row in scaled for x in row):
        raise R.NotASublattice(f"{small.name} is not contained in {big.name}")
    d, u, _ = il.snf_transform([[x // det for x in row] for row in scaled])
    # u is unimodular, so u^-1 = adj(u) / det(u) = det(u) adj(u)
    adj_u, det_u = il.adjugate(u)
    new_basis = matmul(big.basis, [[det_u * x for x in row] for row in adj_u])
    invariants = []
    generators = []
    for j in range(n):
        dj = d[j][j]
        if dj > 1:
            invariants.append(dj)
            generators.append(tuple(row[j] for row in new_basis))
    return R.FiniteAbelianGroup(invariants, generators)


@pytest.mark.parametrize("name,expected", QUOTIENTS)
def test_coweight_coroot_quotients(name, expected):
    rs = R.build_root_system([name])
    q = lattice_quotient(coweight_lattice(rs), coroot_lattice(rs))
    assert q.invariants == expected


def test_lattice_quotient_trivial_and_errors():
    rs = R.build_root_system(["A2"])
    lat = coroot_lattice(rs)
    assert lattice_quotient(lat, lat).order == 1
    with pytest.raises(R.NotASublattice):
        lattice_quotient(lat, coweight_lattice(rs))


def test_lattice_quotient_basis_independent():
    rng = random.Random(5)
    rs = R.build_root_system(["D4"])
    big = coweight_lattice(rs)
    small = coroot_lattice(rs)
    base = lattice_quotient(big, small).invariants
    from test_intlinalg import random_unimodular

    for _ in range(10):
        u = random_unimodular(rng, 4)
        v = random_unimodular(rng, 4)
        big2 = R.Lattice("big2", matmul(big.basis, u))
        small2 = R.Lattice("small2", matmul(small.basis, v))
        assert lattice_quotient(big2, small2).invariants == base


def square_matrices(n, bound):
    return st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                    min_size=n, max_size=n)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(square_matrices(n, 3), square_matrices(n, 6))))
def test_lattice_quotient_order_is_index(mats):
    basis, m = (il.mat(x) for x in mats)
    assume(il.det(basis) != 0 and il.det(m) != 0)
    big = R.Lattice("big", basis)
    small = R.Lattice("small", matmul(basis, m))
    group = lattice_quotient(big, small)
    assert group.order == abs(il.det(m))
    for d, g in zip(group.invariants, group.generators):
        assert big.contains(g)
        assert small.contains(tuple(d * x for x in g))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    square_matrices(n, 4), st.lists(st.integers(-9, 9), min_size=n, max_size=n),
    st.lists(st.integers(-2, 2), min_size=n, max_size=n))))
def test_lattice_contains_matches_rational_solve(data):
    # v = B c + e: in the lattice when e = 0, and sometimes otherwise
    basis, c, e = data
    basis = il.mat(basis)
    assume(il.det(basis) != 0)
    v = tuple(x + y for x, y in zip(il.matvec(basis, c), e))
    coords = sympy.Matrix(basis).LUsolve(sympy.Matrix(v))
    assert R.Lattice("l", basis).contains(v) == all(x.is_integer for x in coords)
    assert R.Lattice("l", basis).contains(il.matvec(basis, c))


def test_lattice_build_runs_one_elimination(monkeypatch):
    # the adjugate carries the determinant: no separate det elimination
    calls = []
    eliminate = il._eliminate

    def counting(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(il, "_eliminate", counting)
    lat = R.Lattice("l", [[2, 1], [1, 1]])
    assert len(calls) == 1 and lat.adjugate == (((1, -1), (-1, 2)), 1)
    with pytest.raises(ValueError, match="^lattice basis is singular$"):
        R.Lattice("l", [[1, 2], [2, 4]])
    assert len(calls) == 2


def test_pi1_orders():
    assert R.pi1_order(R.make_datum(["A1"], "sc", 5)) == 1
    assert R.pi1_order(R.make_datum(["A1"], "ad", 5)) == 2
    assert R.pi1_order(R.make_datum(["A2"], "sc", 5)) == 1
    assert R.pi1_order(R.make_datum(["A2"], "ad", 5)) == 3


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "G2", "F4", "E6"])
def test_pi1_sc_ad_extremes(name):
    rs = R.build_root_system([name])
    p = 7 if name != "A6" else 5
    sc = R.GroupDatum(rs, R.Lattice("sc", rs.cartan), p)
    ad = R.GroupDatum(rs, R.Lattice("ad", il.identity(rs.rank)), p)
    assert R.pi1_order(sc) == 1
    assert R.pi1_order(ad) == lattice_quotient(
        coweight_lattice(rs), coroot_lattice(rs)).order


def test_geometric_center_orders():
    # center of SL_n has order n
    for n in (2, 3, 4):
        datum = R.make_datum([f"A{n-1}"], "sc", 7)
        rs = datum.root_system
        base = [root_index(rs, tuple(int(i == j) for j in range(rs.rank)))
                for i in range(rs.rank)]
        assert R.geometric_center_order(datum, base) == n
    # adjoint groups have trivial center
    datum = R.make_datum(["B3"], "ad", 7)
    rs = datum.root_system
    base = [root_index(rs, tuple(int(i == j) for j in range(3))) for i in range(3)]
    assert R.geometric_center_order(datum, base) == 1


def test_geometric_center_requires_full_rank():
    datum = R.make_datum(["A2"], "sc", 5)
    rs = datum.root_system
    one = [root_index(rs, (1, 0))]
    with pytest.raises(R.NotFullRank):
        R.geometric_center_order(datum, one)


def test_very_good_rules():
    reasons = R.bad_characteristic_reasons(3, [R.SimpleType("A", 2)])
    assert reasons and "p | n" in reasons[0]
    assert not R.bad_characteristic_reasons(7, [R.SimpleType("G", 2)])
    assert R.bad_characteristic_reasons(2, [R.SimpleType("B", 2)])
    assert R.bad_characteristic_reasons(5, [R.SimpleType("E", 8)])
    assert not R.bad_characteristic_reasons(7, [R.SimpleType("E", 8)])
    with pytest.raises(R.BadCharacteristic):
        R.make_datum(["A2"], "sc", 3)


def test_datum_lattice_validation():
    with pytest.raises(R.NotASublattice):
        # 6Z, of index 3 in the coroot lattice 2Z, does not contain it
        R.make_datum(["A1"], [[6]], 5)


def test_deterministic_construction():
    a = R.build_root_system(["F4"])
    b = R.build_root_system(["F4"])
    assert [rt.coeffs for rt in a.roots] == [rt.coeffs for rt in b.roots]
    wa = R.weyl_generate(a)
    wb = R.weyl_generate(b)
    assert wa.perms == wb.perms
    assert [weyl_matrix(wa, i) for i in range(wa.order)] == \
        [weyl_matrix(wb, i) for i in range(wb.order)]


def test_table_reproduction_runtime():
    t0 = time.time()
    for name in ALL_SIMPLE:
        rs = R.build_root_system([name])
        highest_root_coefficients(rs, 0)
    assert time.time() - t0 < 1.0


# Reference for the root-system build: every root, positive and negative,
# closed under the simple reflections as a coefficient tuple carrying its
# pairing row and coroot, with the permutations read off a second pass of
# the reflections over the tuples.
def tuple_closure_build(factors):
    types = [R.SimpleType.parse(t) for t in factors]
    r = sum(t.rank for t in types)
    cart, factor_of = [], []
    for fi, t in enumerate(types):
        off = len(cart)
        cart += [(0,) * off + row + (0,) * (r - off - t.rank)
                 for row in t.cartan()]
        factor_of += [fi] * t.rank
    cart = tuple(cart)
    cols = tuple(zip(*cart))
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    # c carries p = c C and its coroot x; s_j sends (c, p, x) to
    # (c - p_j e_j, p - p_j C[j], x - x_j C^T[j])
    pair = dict(zip(simple, zip(cart, cols)))

    def image(c, j):
        p, x = pair[c]
        pj = p[j]
        if not pj:
            return c
        d = c[:j] + (c[j] - pj,) + c[j + 1:]
        if d not in pair:
            xj = x[j]
            pair[d] = (tuple(a - pj * b for a, b in zip(p, cart[j])),
                       tuple(a - xj * b for a, b in zip(x, cols[j])))
        return d

    found = sorted(R.closure(simple, lambda c: [image(c, j)
                                                for j in range(r)]),
                   key=lambda c: (sum(c), c))
    index_of = {c: i for i, c in enumerate(found)}
    keys = tuple(sum(v << 5 * t for t, v in enumerate(c)) for c in found)
    key_index = dict(zip(keys, range(len(keys))))
    return {
        "roots": tuple((c, factor_of[next(t for t, v in enumerate(c) if v)],
                        sum(c), i, pair[c][1]) for i, c in enumerate(found)),
        "keys": keys,
        "key_index": key_index,
        "simple_indices": tuple(index_of[c] for c in simple),
        "positive_indices": tuple(i for i, c in enumerate(found)
                                  if sum(c) > 0),
        "negate": tuple(key_index[-k] for k in keys),
        "simple_reflection_perms": tuple(
            tuple(index_of[image(c, j)] for c in found) for j in range(r)),
        "cartan": cart,
    }


@pytest.mark.parametrize("name", ["A1", "A2,A1", "B2,G2", "G2,B2", "C3", "B4",
                                  "D4", "F4", "E6", "E7", "E8", "D12", "A30"])
def test_key_closure_matches_tuple_closure(name):
    rs = R.build_root_system(name.split(","))
    want = tuple_closure_build(name.split(","))
    got = {attr: getattr(rs, attr) for attr in want if attr != "roots"}
    got["roots"] = tuple((rt.coeffs, rt.factor, rt.height, rt.index,
                          rt.coroot_ambient) for rt in rs.roots)
    for attr, value in want.items():
        assert got[attr] == value, attr


def vecmat_functionals(datum):
    b = datum.cochar.basis
    return tuple(il.vecmat(rt.coeffs, b) for rt in datum.root_system.roots)


@pytest.mark.parametrize("factors,lattice", CENTRALIZER_DATA, ids=str)
def test_root_functionals_match_vecmat(factors, lattice):
    # sc, ad, and (Spin5 x SL2)/mu2, whose X_* is not a product lattice
    datum = R.make_datum(factors, lattice, 10007)
    assert datum.root_functionals == vecmat_functionals(datum)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(ALL_SIMPLE), min_size=1, max_size=3),
       st.sampled_from(["sc", "ad"]), st.randoms())
def test_root_functionals_match_vecmat_on_products(factors, lattice, rng):
    # the basis of X_* changed by a random unimodular matrix, so its rows
    # are not those of the Cartan or identity matrix
    sc_or_ad = R.make_datum(factors, lattice, 10007)
    rs, b = sc_or_ad.root_system, sc_or_ad.cochar.basis
    changed = R.GroupDatum(rs, R.Lattice("custom", matmul(
        b, random_unimodular(rng, rs.rank))), 10007)
    for datum in (sc_or_ad, changed):
        assert datum.root_functionals == vecmat_functionals(datum)
