import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coendo import coendoscopy as C
from coendo import intlinalg as il
from coendo import rootsys as R
from coendo import torus as T
from test_intlinalg import from_columns, matmul, random_unimodular


def enumerate_points(datum, q):
    """All (q-1)^r points of T(F_q), the last coordinate varying fastest.
    When q-1 is a prime power, the idx-th is ``T.point_from_index(q, r,
    idx)``; ``sweep_index`` inverts that map for every q."""
    r = datum.root_system.rank
    return list(itertools.product(range(q - 1), repeat=r))


def sweep_index(q, r):
    """Residue vector -> sweep index, the inverse of ``point_from_index``."""
    return {T.point_from_index(q, r, idx): idx for idx in range((q - 1) ** r)}


def full_subsystem(datum):
    return T.Subsystem(datum.root_system, range(len(datum.root_system.roots)))


def is_elliptic(datum, q, point):
    """The centralizer subsystem of the point has full rank."""
    return (T.centralizer_subsystem(datum, q, point).rank
            == datum.root_system.rank)


def root_index(rs, coeffs):
    """The index of the root with these simple-root coefficients, read off
    its key, or None when no root has them."""
    i = rs.key_index.get(sum(c << 5 * t for t, c in enumerate(coeffs)))
    return i if i is not None and rs.roots[i].coeffs == tuple(coeffs) else None


def reflection_by_formula(rs, mirror_index):
    """s_beta(alpha) = alpha - <alpha, beta^vee> beta, root by root."""
    mirror = rs.roots[mirror_index]
    out = []
    for rt in rs.roots:
        pair = sum(a * b for a, b in zip(rt.coeffs, mirror.coroot_ambient))
        out.append(root_index(
            rs, tuple(c - pair * m for c, m in zip(rt.coeffs, mirror.coeffs))
        ))
    return tuple(out)


def weyl_reflection(weyl, mirror_index):
    """Element index of the reflection in the given root, by the formula."""
    return weyl.index[bytes(reflection_by_formula(weyl.rs, mirror_index))]


def weyl_inverse(weyl, i):
    """Element index of the inverse of element i: maketrans(perm, identity)
    sends perm[k] to k."""
    table = bytes.maketrans(weyl.perms[i], weyl.perms[0])
    return weyl.index[table[:weyl.rs.num_roots]]


def weyl_matrix(weyl, i):
    """Integer matrix of element i on the ambient coweight space.

    Row j is the functional alpha_j o w^-1, i.e. the coefficients of the
    root w^-1(alpha_j).
    """
    back = weyl.perms[weyl_inverse(weyl, i)]
    return tuple(weyl.rs.roots[back[s]].coeffs for s in weyl.rs.simple_indices)


def weyl_matrix_x(datum, weyl, i):
    """Matrix B^-1 M B of element i in the X_* basis B, from its matrix M
    on the coweight space: adj(B) M B / det B, exactly."""
    adj, d = datum.cochar.adjugate
    m = matmul(adj, matmul(weyl_matrix(weyl, i), datum.cochar.basis))
    return tuple(tuple(x // d for x in row) for row in m)


def weyl_stabilizer(datum, weyl, q, v):
    """(W_s, W_s^0) as index tuples: the stabilizer of the point s with
    residues v, and the subgroup generated by the reflections of its
    centralizer subsystem."""
    m = q - 1
    stab = tuple(
        i for i in range(weyl.order)
        if all((x - y) % m == 0
               for x, y in zip(il.matvec(weyl_matrix_x(datum, weyl, i), v), v))
    )
    sub = T.centralizer_subsystem(datum, q, v)
    return stab, reflection_closure(weyl, sub.base_indices)


def generated_subgroup(weyl, gens):
    """The subgroup generated by the given elements, closed the direct way
    under multiplication, as a sorted index tuple."""
    return tuple(sorted(R.closure([0], lambda a: [weyl.mul(g, a)
                                                  for g in gens])))


def reflection_closure(weyl, roots):
    """The subgroup generated by the reflections in the given roots."""
    return generated_subgroup(weyl, [weyl_reflection(weyl, k) for k in roots])


def subset_stabilizer(weyl, sub):
    """C_W(iota) by a scan of W: the elements that map the roots of the
    subsystem into themselves, as a sorted index tuple."""
    return tuple(w for w, perm in enumerate(weyl.perms)
                 if sub.indices.issuperset(perm[k] for k in sub.indices))


def coset_partition(weyl, subgroup):
    """Right cosets H\\W as (member of least (length, index), sorted
    members) pairs, listed by representative."""
    seen = set()
    out = []
    for w in range(weyl.order):
        if w not in seen:
            members = sorted({weyl.mul(h, w) for h in subgroup})
            seen.update(members)
            out.append((min(members, key=lambda x: (weyl.length(x), x)),
                        members))
    return sorted(out)


def pi0_order(datum, weyl, q, v):
    """|W_s / W_s^0|, the number of components of the full centralizer."""
    ws, ws0 = weyl_stabilizer(datum, weyl, q, v)
    assert set(ws0) <= set(ws)
    return len(ws) // len(ws0)


def test_point_counts():
    # point_from_index names each point once; the sweep has one byte per
    # point of each prime-power part, in point_from_index order when q-1
    # is a prime power (then one per point)
    for factors, q in [(["A1"], 3), (["A1"], 5), (["B2"], 5), (["G2"], 7)]:
        datum = R.make_datum(factors, "sc", R.characteristic_of(q))
        r = datum.root_system.rank
        points = enumerate_points(datum, q)
        assert len(points) == (q - 1) ** r
        assert sorted(sweep_index(q, r)) == points
        kills, _, _ = T.centralizer_masks_for(datum, q)
        parts = T.prime_power_factors(q - 1)
        assert len(kills) == sum(f**r for f in parts)
        if len(parts) == 1:
            assert points == [T.point_from_index(q, r, idx)
                              for idx in range(len(points))]
            assert len(kills) == len(points)


def test_f4_sweep_at_q25_visits_part_points_and_keeps_elliptic_ones():
    # q-1 = 24 = 8·3: the sweep covers all 331,776 points by visiting the
    # 8^4 + 3^4 = 4,177 points of its parts and keeps the 72 elliptic
    # points; each kept mask is the point's centralizer by dot products
    datum = R.make_datum(["F4"], "sc", 5)
    kills, masks, pos = T.centralizer_masks_for(datum, 25)
    assert len(kills) == 4177
    assert len(masks) == 72
    for idx, mask in masks.items():
        sub = T.centralizer_subsystem(datum, 25, T.point_from_index(25, 4, idx))
        assert sub.positive_indices == tuple(
            i for b, i in enumerate(pos) if mask >> b & 1)
        assert sub.rank == 4


def test_enumeration_cap():
    d4 = R.make_datum(["D4"], "sc", 7)
    with pytest.raises(R.CapExceeded):
        T.centralizer_masks_for(d4, 101, cap=10**6)


def test_point_equality_mod_q_minus_1():
    # residues are read modulo q-1
    sp4 = R.make_datum(["B2"], "sc", 5)
    assert T.centralizer_subsystem(sp4, 5, (5, -3)) == \
        T.centralizer_subsystem(sp4, 5, (1, 1))


def centralizer_by_all_roots(datum, q, residues):
    """The roots killing the point, one dot product per root, negative
    roots included: the reference for ``centralizer_subsystem``."""
    m = q - 1
    return frozenset(
        i for i, row in enumerate(datum.root_functionals)
        if sum(a * b for a, b in zip(row, residues)) % m == 0
    )


# (factors, lattice) pairs; the last is (Spin5 x SL2)/mu2, whose X_* is
# not a product of lattices of the two factors
CENTRALIZER_DATA = [
    (["A1"], "sc"), (["A2"], "ad"), (["B2"], "sc"), (["B2"], "ad"),
    (["G2"], "ad"), (["C3"], "sc"), (["D4"], "ad"), (["F4"], "sc"),
    (["A2", "A1"], "sc"), (["B2", "A1"], [[1, 0, 0], [0, 1, 0], [1, 0, 2]]),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CENTRALIZER_DATA),
       st.sampled_from([7, 11, 13, 25, 31, 61]), st.data())
def test_centralizer_subsystem_matches_all_roots(data_pair, q, data):
    # q-1 = 6, 10, 12, 24, 30, 60: composite, several prime factors.  A
    # point of order dividing d kills more roots the smaller d is, so the
    # points range from elliptic ones to ones killing no root
    factors, lat = data_pair
    datum = R.make_datum(factors, lat, R.characteristic_of(q))
    m = q - 1
    d = data.draw(st.sampled_from([k for k in range(1, m + 1) if m % k == 0]))
    r = datum.root_system.rank
    residues = [m // d * x + m * y for x, y in data.draw(st.lists(
        st.tuples(st.integers(0, d - 1), st.integers(-1, 1)),
        min_size=r, max_size=r))]
    sub = T.centralizer_subsystem(datum, q, residues)
    assert sub.indices == centralizer_by_all_roots(datum, q, residues)


def test_centralizer_examples():
    sl2 = R.make_datum(["A1"], "sc", 5)
    assert T.centralizer_subsystem(sl2, 5, (0,)).signature == "A1"
    assert T.centralizer_subsystem(sl2, 5, (1,)).indices == frozenset()
    # 2-torsion point of the simply connected B2 torus kills a long A1xA1
    sp4 = R.make_datum(["B2"], "sc", 5)
    twotor = [
        p for p in enumerate_points(sp4, 5)
        if T.centralizer_subsystem(sp4, 5, p).signature == "A1xA1"
    ]
    assert len(twotor) == 2
    for p in twotor:
        sub = T.centralizer_subsystem(sp4, 5, p)
        assert sub.rank == 2 and sub.is_closed()


def test_is_elliptic():
    sl2 = R.make_datum(["A1"], "sc", 5)
    assert is_elliptic(sl2, 5, (0,))
    assert not is_elliptic(sl2, 5, (1,))


@pytest.mark.parametrize("name,q", [("A2", 7), ("A3", 5)])
def test_type_a_has_no_noncentral_elliptic(name, q):
    datum = R.make_datum([name], "sc", q)
    rs = datum.root_system
    for p in enumerate_points(datum, q):
        sub = T.centralizer_subsystem(datum, q, p)
        if is_elliptic(datum, q, p):
            assert len(sub.indices) == len(rs.roots)


def test_weyl_stabilizer_examples():
    sl2 = R.make_datum(["A1"], "sc", 5)
    w = R.weyl_generate(sl2.root_system)
    ws, ws0 = weyl_stabilizer(sl2, w, 5, (0,))
    assert len(ws) == 2 and len(ws0) == 2
    ws, ws0 = weyl_stabilizer(sl2, w, 5, (1,))
    assert ws == (0,) and ws0 == (0,)
    assert pi0_order(sl2, w, 5, (1,)) == 1


def test_pi0_pgl2():
    pgl2 = R.make_datum(["A1"], "ad", 5)
    w = R.weyl_generate(pgl2.root_system)
    # order-2 point: fixed by the reflection but with empty centralizer
    p = (2,)
    assert T.centralizer_subsystem(pgl2, 5, p).indices == frozenset()
    assert pi0_order(pgl2, w, 5, p) == 2
    assert pi0_order(pgl2, w, 5, (0,)) == 1


def test_pi0_divides_weyl_order():
    sp4 = R.make_datum(["B2"], "sc", 5)
    w = R.weyl_generate(sp4.root_system)
    for p in enumerate_points(sp4, 5):
        assert w.order % pi0_order(sp4, w, 5, p) == 0


@pytest.mark.parametrize("factors,lat,q", [
    (["B2"], "sc", 5), (["G2"], "ad", 7), (["B3"], "ad", 5),
    (["A2", "A1"], "sc", 7),
], ids=["B2", "G2", "B3", "A2xA1"])
def test_weyl_stabilizer_reflection_part_matches_all_reflections(
        factors, lat, q):
    # W_iota from the base reflections equals the closure over the
    # reflections in every positive root of the stratum's subsystem, and
    # the poset has one W_iota coset representative per coset
    datum = R.make_datum(factors, lat, R.characteristic_of(q))
    w = R.weyl_generate(datum.root_system)
    poset = C.strata_poset(datum, q, "enumerate")
    for st in poset.strata:
        ref = reflection_closure(w, st.subsystem.positive_indices)
        assert reflection_closure(w, st.subsystem.base_indices) == ref
        assert len(w.cosets(st.subsystem.base_indices)) * len(ref) == w.order


def test_subgroup_points_center_examples():
    sl2 = R.make_datum(["A1"], "sc", 5)
    assert T.subgroup_points(sl2, 5, full_subsystem(sl2)).invariants == (2,)
    assert T.subgroup_points(sl2, 4, full_subsystem(sl2)).invariants == ()
    empty = T.Subsystem(sl2.root_system, ())
    assert T.subgroup_points(sl2, 5, empty).order == 4


def test_one_smith_form_per_point_group(monkeypatch):
    calls = []
    snf = il.snf_transform
    monkeypatch.setattr(il, "snf_transform",
                        lambda a: calls.append(a) or snf(a))
    for name, lat, q in [("B3", "ad", 5), ("F4", "sc", 13), ("E6", "sc", 7)]:
        datum = R.make_datum([name], lat, R.characteristic_of(q))
        for sub in C.equal_rank_subsystems(datum.root_system):
            before = len(calls)
            group = T.subgroup_points(datum, q, sub)
            assert len(calls) == before + 1
            assert group.order == len(set(
                tuple(sum(c * g[t] for c, g in zip(cs, group.generators))
                      % (q - 1) for t in range(datum.root_system.rank))
                for cs in itertools.product(*map(range, group.invariants))
            ))


def test_subgroup_points_match_enumeration():
    rng = random.Random(9)
    cases = [("A1", "sc", 5), ("A1", "ad", 7), ("B2", "sc", 5),
             ("A2", "sc", 7), ("G2", "ad", 7), ("B2", "ad", 9)]
    for name, lat, q in cases:
        datum = R.make_datum([name], lat, C_of(q))
        rs = datum.root_system
        funcs = datum.root_functionals
        m = q - 1
        for _ in range(4):
            sub = T.centralizer_subsystem(
                datum, q, tuple(rng.randrange(m) for _ in range(rs.rank))
            )
            group = T.subgroup_points(datum, q, sub)
            direct = [
                p for p in enumerate_points(datum, q)
                if all(
                    sum(a * b for a, b in zip(funcs[i], p)) % m == 0
                    for i in sub.indices
                )
            ]
            assert group.order == len(direct)
            # generators actually satisfy the congruences
            for g in group.generators:
                for i in sub.indices:
                    assert sum(a * b for a, b in zip(funcs[i], g)) % m == 0


@st.composite
def intermediate_data(draw):
    """A datum whose X_* lies between the coroot and coweight lattices.

    X_* is generated by the coroots and up to two coweights; its basis is
    read off a Smith form of the generators and then changed at random.
    """
    name = draw(st.sampled_from(["A1", "A2", "A3", "B2", "C3", "G2",
                                 "A1,A1", "A2,A1"]))
    q = draw(st.sampled_from([5, 7, 13]))
    rs = R.build_root_system(name.split(","))
    r = rs.rank
    extra = draw(st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r),
                          max_size=2))
    gens = from_columns(il.columns(rs.cartan) + [tuple(x) for x in extra])
    d, u, _ = il.snf_transform(gens)
    # u is unimodular, so adj(u) = ±u^-1 spans the same lattice
    basis = matmul(il.adjugate(u)[0], [row[:r] for row in d])
    basis = matmul(basis, random_unimodular(draw(st.randoms()), r))
    return R.GroupDatum(rs, R.Lattice("custom", basis), R.characteristic_of(q)), q


@settings(max_examples=60, deadline=None)
@given(intermediate_data(), st.data())
def test_subgroup_points_match_enumeration_on_random_lattices(datum_q, data):
    datum, q = datum_q
    m = q - 1
    r = datum.root_system.rank
    funcs = datum.root_functionals
    residues = data.draw(st.tuples(*[st.integers(0, m - 1)] * r))
    sub = T.centralizer_subsystem(datum, q, residues)
    group = T.subgroup_points(datum, q, sub)
    direct = {
        p for p in enumerate_points(datum, q)
        if all(sum(a * b for a, b in zip(funcs[i], p)) % m == 0
               for i in sub.indices)
    }
    span = {
        tuple(sum(c * g[t] for c, g in zip(cs, group.generators)) % m
              for t in range(r))
        for cs in itertools.product(*(range(d) for d in group.invariants))
    }
    assert group.order == len(direct)
    assert span == direct


def C_of(q):
    for p in range(2, q + 1):
        if q % p == 0:
            return p
    raise AssertionError


def test_centralizer_w_equivariance():
    rng = random.Random(4)
    datum = R.make_datum(["B2"], "sc", 5)
    w = R.weyl_generate(datum.root_system)
    import coendo.intlinalg as il

    for p in enumerate_points(datum, 5):
        wi = rng.randrange(w.order)
        mat = weyl_matrix_x(datum, w, wi)
        moved = il.matvec(mat, p)
        left = T.centralizer_subsystem(datum, 5, moved).indices
        perm = w.perms[wi]
        right = frozenset(perm[i] for i in
                          T.centralizer_subsystem(datum, 5, p).indices)
        assert left == right


def test_ellipticity_three_way_agreement():
    # full-rank centralizer, a nonsingular base, and lying in a stratum
    for name, lat, q in [("A1", "sc", 5), ("B2", "sc", 5), ("G2", "ad", 7)]:
        datum = R.make_datum([name], lat, C_of(q))
        r = datum.root_system.rank
        in_strata = {idx for st in C.strata_poset(datum, q, "enumerate").strata
                     for idx in st.s_points}
        index_of = sweep_index(q, r)
        for p in enumerate_points(datum, q):
            idx = index_of[p]
            sub = T.centralizer_subsystem(datum, q, p)
            by_rank = sub.rank == r
            assert (idx in in_strata) == by_rank
            if by_rank:
                base = [datum.root_functionals[i] for i in sub.base_indices]
                assert len(base) == r and il.det(il.mat(base)) != 0


def test_signatures():
    rs = R.build_root_system(["B3"])
    full = T.Subsystem(rs, range(rs.num_roots))
    assert full.signature == "B3"
    assert full.weyl_order == 48
    empty = T.Subsystem(rs, ())
    assert empty.signature == "-"
    assert empty.weyl_order == 1


# Reference versions of Subsystem.is_closed, base_indices and rank: the
# pair loops over coefficient tuples that the root-sum table replaced.
def pair_loop_sum_closed(rs, indices):
    have = {rs.roots[i].coeffs for i in indices}
    for a in have:
        for b in have:
            s = tuple(x + y for x, y in zip(a, b))
            if any(s) and root_index(rs, s) is not None and s not in have:
                return False
    return True


def pair_loop_is_closed(rs, indices):
    have = {rs.roots[i].coeffs for i in indices}
    return (pair_loop_sum_closed(rs, indices)
            and {tuple(-x for x in c) for c in have} == have)


def pair_loop_base(rs, indices):
    pos = [i for i in sorted(indices) if rs.roots[i].positive]
    coeff_set = {rs.roots[i].coeffs for i in pos}
    out = []
    for i in pos:
        ci = rs.roots[i].coeffs
        decomposable = False
        for j in pos:
            rem = tuple(a - b for a, b in zip(ci, rs.roots[j].coeffs))
            if any(rem) and rem in coeff_set and sum(rem) > 0:
                decomposable = True
                break
        if not decomposable:
            out.append(i)
    return tuple(out)


def pair_loop_rank(rs, indices):
    return il.rank([rs.roots[i].coeffs for i in sorted(indices)
                    if rs.roots[i].positive])


SUBSET_TYPES = ["G2", "B3", "D4", "F4", "A2,A1", "E6"]
SUBSET_KINDS = ["any", "symmetric", "centralizer", "positive part",
                "toggled"]


@st.composite
def root_subsets(draw):
    """A root system and a subset of its root indices, of one of
    SUBSET_KINDS: an arbitrary subset; a negation-stable one; the
    centralizer of a point of the adjoint torus at q = 13 (closed and
    negation-stable; the point has order dividing 1, 2, 3, 4 or 6); the
    positive roots of such a centralizer (closed, not negation-stable
    unless empty); a centralizer with one root added
    or removed (mostly not closed)."""
    name = draw(st.sampled_from(SUBSET_TYPES))
    kind = draw(st.sampled_from(SUBSET_KINDS))
    datum = R.make_datum(name.split(","), "ad", 13)
    rs = datum.root_system
    n = rs.num_roots
    if kind == "any":
        return rs, draw(st.sets(st.integers(0, n - 1)))
    if kind == "symmetric":
        pos = draw(st.sets(st.sampled_from(rs.positive_indices)))
        return rs, pos | {rs.negate[i] for i in pos}
    # a point of order dividing d, so that it kills some roots
    step = 12 // draw(st.sampled_from([1, 2, 3, 4, 6]))
    point = [step * x for x in draw(st.lists(
        st.integers(0, 11), min_size=rs.rank, max_size=rs.rank))]
    have = set(T.centralizer_subsystem(datum, 13, point).indices)
    if kind == "positive part":
        return rs, {i for i in have if rs.roots[i].positive}
    if kind == "toggled":
        return rs, have ^ {draw(st.integers(0, n - 1))}
    return rs, have


@settings(max_examples=200, deadline=None)
@given(root_subsets())
def test_subsystem_queries_match_pair_loops(case):
    rs, indices = case
    sub = T.Subsystem(rs, indices)
    assert sub.is_closed() == pair_loop_is_closed(rs, indices)
    assert sub.base_indices == pair_loop_base(rs, indices)
    assert sub.rank == pair_loop_rank(rs, indices)


def test_root_subset_kinds_cover_closed_and_symmetric_cases():
    # the strategy above reaches every combination of closed under sums
    # or not and negation-stable or not
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(root_subsets())
    def collect(case):
        rs, indices = case
        symmetric = {rs.negate[i] for i in indices} == set(indices)
        seen.add((pair_loop_sum_closed(rs, indices), symmetric))

    collect()
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_identify_cartan_canonical_names():
    # rank-2 B and C coincide; D3 = A3; rank-1 anything = A1
    from coendo.torus import identify_cartan

    assert repr(identify_cartan([[2]])) == "A1"
    assert repr(identify_cartan([[2, -2], [-1, 2]])) == "B2"
    assert repr(identify_cartan([[2, -1], [-2, 2]])) == "B2"
    assert repr(identify_cartan([[2, -1], [-3, 2]])) == "G2"


SIMPLE_TYPE_NAMES = ([f"A{n}" for n in range(1, 9)]
                     + [f"B{n}" for n in range(2, 9)]
                     + [f"C{n}" for n in range(3, 9)]
                     + [f"D{n}" for n in range(4, 9)]
                     + ["E6", "E7", "E8", "F4", "G2"])


def cartan_isomorphic(a, b) -> bool:
    """Is a = P b P^-1 for a permutation P?  Backtracking on node images."""
    n = len(a)
    if sorted(sorted(row) for row in a) != sorted(sorted(row) for row in b):
        return False
    assign = [-1] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for j in range(n):
            if not used[j] and a[i][i] == b[j][j] and all(
                    a[i][k] == b[j][assign[k]] and a[k][i] == b[assign[k]][j]
                    for k in range(i)):
                assign[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    return extend(0)


@functools.cache
def reference_type(cartan):
    """The legal type of this rank whose Cartan matrix (a tuple of rows) is
    a simultaneous permutation of this one, by search over the families."""
    for family in R.FAMILIES:
        try:
            t = R.SimpleType(family, len(cartan))
        except R.IllegalType:
            continue
        if cartan_isomorphic(cartan, t.cartan()):
            return t
    raise AssertionError(f"no type has Cartan matrix {cartan}")


def subsystem_from_base(rs, base_indices):
    """Closed subsystem generated by a simple system, by reflection closure."""
    perms = [reflection_by_formula(rs, b) for b in base_indices]
    seen = R.closure(base_indices, lambda i: [perm[i] for perm in perms])
    return T.Subsystem(rs, [*seen, *(rs.negate[i] for i in seen)])


def step_closure(rs):
    """The root subsets that prime-node deletion steps reach from the whole
    system, with no Weyl action: at least one of each W-class of full-rank
    closed subsystems (28 subsets for E8, against 132,462 in all)."""
    return list(R.closure(
        [frozenset(range(len(rs.roots)))],
        lambda s: [x.indices for _, _, x in C._prime_steps(rs, T.Subsystem(rs, s))]))


def equal_rank_subsets(rs):
    """Every full-rank closed subsystem, or the step closure for E8."""
    if repr(rs) == "E8":
        return step_closure(rs)
    return [sub.indices for sub in C.equal_rank_subsystems(rs)]


@pytest.mark.parametrize("name", SIMPLE_TYPE_NAMES)
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_identify_cartan_under_node_permutations(name, data):
    t = R.SimpleType.parse(name)
    cartan = t.cartan()
    perm = data.draw(st.permutations(range(t.rank)))
    permuted = [[cartan[i][j] for j in perm] for i in perm]
    assert T.identify_cartan(permuted) == t


@pytest.mark.parametrize("name", SIMPLE_TYPE_NAMES)
def test_component_types_match_isomorphism_search(name):
    rs = R.build_root_system([name])
    for indices in equal_rank_subsets(rs):
        sub = T.Subsystem(rs, indices)
        cart = sub.base_cartan
        assert sub.component_types == tuple(
            reference_type(tuple(tuple(cart[a][b] for b in comp) for a in comp))
            for comp in sub.components)


def vanishing(rows, m, v):
    """Bit i set iff rows[i]·v == 0 mod m, by direct dot products."""
    return sum(1 << i for i, row in enumerate(rows)
               if sum(a * x for a, x in zip(row, v)) % m == 0)


def mask_rank(rows, mask):
    """Rank of the rows named by the set bits of mask, by elimination."""
    return il.rank([row for i, row in enumerate(rows) if mask >> i & 1])


def test_masks_match_direct_computation():
    datum = R.make_datum(["B2"], "sc", 5)
    kills, masks, pos = T.centralizer_masks_for(datum, 5)
    rows = [datum.root_functionals[i] for i in pos]
    assert len(kills) == 16
    for idx, p in enumerate(enumerate_points(datum, 5)):
        mask = vanishing(rows, 4, p)
        count = bin(mask).count("1")
        assert kills[idx] == min(count, 2)
        assert masks.get(idx) == (mask if count >= 2 else None)


def test_kernel_backend_is_python():
    import coendo

    assert coendo.KERNEL_BACKEND == "python"


def test_centralizer_masks_small():
    # single row (2) mod 4: vanishes at v = 0 and 2
    assert T.centralizer_masks([(2,)], 4, 1) == (bytes([1, 0, 1, 0]),
                                                 {0: 1, 2: 1})
    # ordering: last coordinate fastest; least 0 keeps every point
    kills, kept = T.centralizer_masks([(1, 0), (0, 1)], 3, 0)
    assert kills == bytes(9)
    assert list(kept) == list(range(9))
    assert kept[0] == 0b11  # v = (0,0)
    assert kept[1] == 0b01  # v = (0,1): first row still vanishes
    assert kept[3] == 0b10  # v = (1,0)
    # counts are capped at least, and only points reaching it are kept
    kills, kept = T.centralizer_masks([(1, 0), (0, 1)], 3, 1)
    assert kills == bytes([1, 1, 1, 1, 0, 0, 1, 0, 0])
    assert kept == {0: 0b11, 1: 0b01, 2: 0b01, 3: 0b10, 6: 0b10}
    kills, kept = T.centralizer_masks([(1, 0), (0, 1)], 3, 2)
    assert kills == bytes([2, 1, 1, 1, 0, 0, 1, 0, 0])
    assert kept == {0: 0b11}


def test_centralizer_masks_row_limit():
    # any number of rows: 300 rows give 300-bit masks from 38 planes, and
    # the 300 kills at v = 0 are capped at least
    rows = [(1,)] * 150 + [(2,)] * 150
    kills, kept = T.centralizer_masks(rows, 4, 3)
    assert kills == bytes([3, 0, 3, 0])
    assert kept == {0: (1 << 300) - 1, 2: ((1 << 150) - 1) << 150}
    # a byte lane holds the capped count plus one plane's 8
    for least in (-1, 248):
        with pytest.raises(ValueError):
            T.centralizer_masks([(1,)], 3, least)


@st.composite
def sweep_cases(draw):
    r = draw(st.integers(1, 4))
    m = draw(st.sampled_from(
        [1, 2, 3, 4, 6, 12] + ([256, 257] if r <= 2 else [])))
    # keep the per-point check below to about 50,000 dot products; small
    # m^r allows more than 64 and more than 255 rows
    k = draw(st.integers(1, max(1, min(300, 50_000 // m**r))))
    entry = st.integers(-3 * m - 5, 3 * m + 5)
    rows = draw(st.lists(st.tuples(*[entry] * r), min_size=k, max_size=k))
    least = draw(st.sampled_from([0, 1, r, min(k, 247)]))
    return rows, m, least


@settings(max_examples=60, deadline=None)
@given(sweep_cases())
@example(([(0, 1)] * 40 + [(2, 0)] * 40, 2, 2))
@example(([(1,), (0,), (3,)] * 100, 3, 247))
@example(([(1, 2, 0)] * 260, 1, 1))
def test_centralizer_masks_match_dot_products(case):
    rows, m, least = case
    r = len(rows[0])
    kills, kept = T.centralizer_masks(rows, m, least)
    masks = [vanishing(rows, m, v)
             for v in itertools.product(range(m), repeat=r)]
    counts = [bin(mask).count("1") for mask in masks]
    assert kills == bytes(min(c, least) for c in counts)
    assert kept == {idx: mask for idx, mask in enumerate(masks)
                    if counts[idx] >= least}
    assert list(kept) == sorted(kept)


@pytest.mark.parametrize("m", [257, 281, 1093])
def test_centralizer_masks_on_parts_past_a_byte(m):
    # parts f > 256 occur on the sweep: f = 1093 for A1 at q = 2187 and
    # f = 281 for A2 at q = 563.  The rows share suffixes mod m, and one
    # is zero mod m
    r = 1 if m > 1000 else 2
    rng = random.Random(m)
    rows = [tuple(rng.randrange(-2 * m, 2 * m) for _ in range(r))
            for _ in range(4)]
    rows += [(rows[0][0] + m,) + rows[0][1:], (3,) + rows[1][1:], (m,) * r]
    masks = [vanishing(rows, m, v)
             for v in itertools.product(range(m), repeat=r)]
    counts = [bin(mask).count("1") for mask in masks]
    for least in (1, r):
        kills, kept = T.centralizer_masks(rows, m, least)
        assert kills == bytes(min(c, least) for c in counts)
        assert kept == {idx: mask for idx, mask in enumerate(masks)
                        if counts[idx] >= least}


def test_masks_chunked_assembly():
    # masks wider than 64 roots come from the byte planes: B9 has 81
    # positive roots, 11 planes and two 64-bit words per mask
    datum = R.make_datum(["B9"], "sc", 3)
    kills, masks, pos = T.centralizer_masks_for(datum, 3)
    rows = [datum.root_functionals[i] for i in pos]
    assert len(pos) == 81 and len(kills) == 2**9
    want = [vanishing(rows, 2, p) for p in enumerate_points(datum, 3)]
    counts = [bin(mask).count("1") for mask in want]
    assert kills == bytes(min(c, 9) for c in counts)
    assert masks == {idx: mask for idx, mask in enumerate(want)
                     if counts[idx] >= 9}
    assert max(masks.values()) >> 64


def prime_power_parts(m):
    """The largest powers of the primes dividing m, by brute force."""
    primes = [p for p in range(2, m + 1)
              if m % p == 0 and all(p % d for d in range(2, p))]
    return [max(p**k for k in range(1, m.bit_length() + 1) if m % p**k == 0)
            for p in primes]


FACTORED_TYPES = ["A1", "A2", "B2", "G2", "A1,A1", "A3", "B3", "C3",
                  "A2,A1", "A2,A2", "B4", "D4", "F4", "B2,A1,A1"]


@st.composite
def factored_sweeps(draw):
    """A datum of rank <= 4 and a q with q-1 in {4, 6, 10, 12, 24, 30, 60},
    kept to about 50,000 dot products for the per-point check below."""
    name = draw(st.sampled_from(FACTORED_TYPES))
    lattice = draw(st.sampled_from(["sc", "ad"]))
    rs = R.build_root_system(name.split(","))
    small = [q for q in (5, 7, 11, 13, 25, 31, 61)
             if (q - 1) ** rs.rank * len(rs.positive_indices) <= 50_000]
    q = draw(st.sampled_from(small))
    return R.make_datum(name.split(","), lattice, R.characteristic_of(q)), q


@settings(max_examples=40, deadline=None)
@given(factored_sweeps())
@example((R.make_datum(["G2"], "ad", 61), 61))
@example((R.make_datum(["A3"], "sc", 11), 11))
# q-1 = 210 = 2·3·5·7, four parts
@example((R.make_datum(["A2"], "sc", 211), 211))
@example((R.make_datum(["A1", "A1"], "sc", 211), 211))
def test_factored_sweep_matches_dot_products(case):
    datum, q = case
    m = q - 1
    r = datum.root_system.rank
    kills, masks, pos = T.centralizer_masks_for(datum, q)
    rows = [datum.root_functionals[i] for i in pos]
    points = [T.point_from_index(q, r, idx) for idx in range(m**r)]
    assert sorted(points) == list(itertools.product(range(m), repeat=r))
    # the digit of each part, the first part the most significant, names
    # the point modulo that part, the last coordinate varying fastest
    parts = prime_power_parts(m)
    part_points = {f: list(itertools.product(range(f), repeat=r)) for f in parts}
    for idx, v in enumerate(points):
        for f in reversed(parts):
            idx, digit = divmod(idx, f**r)
            assert part_points[f][digit] == tuple(x % f for x in v)
    want = {}
    for idx, v in enumerate(points):
        mask = vanishing(rows, m, v)
        if mask_rank(rows, mask) == r:
            want[idx] = mask
    assert masks == want
    assert list(masks) == sorted(masks)
    assert T.prime_power_factors(m) == parts
    assert len(kills) == sum(f**r for f in parts)


@pytest.mark.parametrize("name,q", [("B2", 5), ("B9", 3), ("E7", 5)])
def test_prime_power_sweep_is_one_kernel_call(monkeypatch, name, q):
    # q-1 a prime power: one kernel call, its kills returned as they stand
    datum = R.make_datum([name], "sc", q)
    r = datum.root_system.rank
    rows = [datum.root_functionals[i] for i in datum.root_system.positive_indices]
    direct = T.centralizer_masks(rows, q - 1, r)
    calls = []
    kernel = T.centralizer_masks
    monkeypatch.setattr(T, "centralizer_masks",
                        lambda *args: calls.append(args) or kernel(*args))
    kills, masks, _ = T.centralizer_masks_for(datum, q)
    assert len(calls) == 1
    # only the kernel's kept points whose roots have full rank come back
    ranks = {mask: mask_rank(rows, mask) for mask in set(direct[1].values())}
    assert kills == direct[0]
    assert masks == {idx: mask for idx, mask in direct[1].items()
                     if ranks[mask] == r}
    assert list(masks) == sorted(masks)


@pytest.mark.parametrize("name", FACTORED_TYPES + ["E7"])
def test_full_rank_test_matches_elimination_on_part_masks(name):
    # every mask the kernel keeps on a part (Z/f)^r, rank-deficient ones
    # included, against the rank of its rows by elimination; E7 has 63
    # positive roots, so its masks are wide and mostly rank-deficient
    deficient = 0
    for lattice in ("sc", "ad"):
        datum = R.make_datum(name.split(","), lattice, 61)
        rs = datum.root_system
        r = rs.rank
        pos = rs.positive_indices
        rows = [datum.root_functionals[i] for i in pos]
        full_rank = T.full_rank_test(rs, pos)
        for f in (2, 3, 4, 5, 7, 8, 9):
            # 4**7 = 16,384: E7's part at q = 5, 4,160 distinct masks (sc)
            if f**r > 20_000:
                continue
            _, kept = T.centralizer_masks(rows, f, r)
            for mask in set(kept.values()):
                by_rank = mask_rank(rows, mask) == r
                assert full_rank(mask) == by_rank, (lattice, f, bin(mask))
                deficient += not by_rank
    if name not in ("A1", "A2", "B2", "G2", "A1,A1"):
        # two distinct positive roots of a rank-2 system are independent
        assert deficient


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D5", "G2", "F4", "E6",
                                  "B3,A1", "A2,G2", "E7"])
def test_full_rank_test_accepts_every_equal_rank_subsystem(name):
    rs = R.build_root_system(name.split(","))
    pos = rs.positive_indices
    bit = {i: b for b, i in enumerate(pos)}
    full_rank = T.full_rank_test(rs, pos)
    coeffs = [rs.roots[i].coeffs for i in pos]
    for sub in C.equal_rank_subsystems(rs):
        mask = sum(1 << bit[i] for i in sub.positive_indices)
        assert mask_rank(coeffs, mask) == rs.rank
        assert full_rank(mask)
        # one base root fewer generates a closed subsystem of rank r - 1
        short = subsystem_from_base(rs, sub.base_indices[1:])
        assert not full_rank(sum(1 << bit[i] for i in short.positive_indices))
