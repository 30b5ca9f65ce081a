import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coendo import coendoscopy as C
from coendo import intlinalg as il
from coendo import rootsys as R
from coendo import torus as T
from test_intlinalg import random_unimodular


def full_subsystem(datum):
    return T.Subsystem(datum.root_system, range(len(datum.root_system.roots)))


def is_elliptic(datum, point):
    """The centralizer subsystem of the point has full rank."""
    return T.centralizer_subsystem(datum, point).rank == datum.root_system.rank


def weyl_stabilizer(datum, weyl, point):
    """(W_s, W_s^0) as index tuples: the stabilizer of s, and the subgroup
    generated by the reflections of its centralizer subsystem."""
    m = point.q - 1
    v = point.residues
    stab = tuple(
        i for i in range(weyl.order)
        if all((x - y) % m == 0
               for x, y in zip(il.matvec(datum.weyl_matrix_x(weyl, i), v), v))
    )
    sub = T.centralizer_subsystem(datum, point)
    refl = weyl.subgroup_closure([weyl.reflection(i) for i in sub.base_indices])
    return stab, refl


def pi0_order(datum, weyl, point):
    """|W_s / W_s^0|, the number of components of the full centralizer."""
    ws, ws0 = weyl_stabilizer(datum, weyl, point)
    assert set(ws0) <= set(ws)
    return len(ws) // len(ws0)


def test_point_counts():
    sl2 = R.make_datum(["A1"], "sc", 5)
    assert len(list(T.enumerate_points(sl2, 3))) == 2
    assert len(list(T.enumerate_points(sl2, 5))) == 4
    sp4 = R.make_datum(["B2"], "sc", 5)
    assert len(list(T.enumerate_points(sp4, 5))) == 16


def test_enumeration_cap():
    d4 = R.make_datum(["D4"], "sc", 7)
    with pytest.raises(R.CapExceeded):
        list(T.enumerate_points(d4, 101, cap=10**6))


def test_point_equality_mod_q_minus_1():
    assert T.TorusPoint(5, (5, -3)) == T.TorusPoint(5, (1, 1))


def test_centralizer_examples():
    sl2 = R.make_datum(["A1"], "sc", 5)
    assert T.centralizer_subsystem(sl2, T.TorusPoint(5, (0,))).signature == "A1"
    assert T.centralizer_subsystem(sl2, T.TorusPoint(5, (1,))).indices == frozenset()
    # 2-torsion point of the simply connected B2 torus kills a long A1xA1
    sp4 = R.make_datum(["B2"], "sc", 5)
    twotor = [
        p for p in T.enumerate_points(sp4, 5)
        if T.centralizer_subsystem(sp4, p).signature == "A1xA1"
    ]
    assert len(twotor) == 2
    for p in twotor:
        sub = T.centralizer_subsystem(sp4, p)
        assert sub.rank == 2 and sub.is_closed()


def test_is_elliptic():
    sl2 = R.make_datum(["A1"], "sc", 5)
    assert is_elliptic(sl2, T.TorusPoint(5, (0,)))
    assert not is_elliptic(sl2, T.TorusPoint(5, (1,)))


@pytest.mark.parametrize("name,q", [("A2", 7), ("A3", 5)])
def test_type_a_has_no_noncentral_elliptic(name, q):
    datum = R.make_datum([name], "sc", q)
    rs = datum.root_system
    for p in T.enumerate_points(datum, q):
        sub = T.centralizer_subsystem(datum, p)
        if is_elliptic(datum, p):
            assert len(sub.indices) == len(rs.roots)


def test_weyl_stabilizer_examples():
    sl2 = R.make_datum(["A1"], "sc", 5)
    w = R.weyl_generate(sl2.root_system)
    ws, ws0 = weyl_stabilizer(sl2, w, T.TorusPoint(5, (0,)))
    assert len(ws) == 2 and len(ws0) == 2
    ws, ws0 = weyl_stabilizer(sl2, w, T.TorusPoint(5, (1,)))
    assert ws == (0,) and ws0 == (0,)
    assert pi0_order(sl2, w, T.TorusPoint(5, (1,))) == 1


def test_pi0_pgl2():
    pgl2 = R.make_datum(["A1"], "ad", 5)
    w = R.weyl_generate(pgl2.root_system)
    # order-2 point: fixed by the reflection but with empty centralizer
    p = T.TorusPoint(5, (2,))
    assert T.centralizer_subsystem(pgl2, p).indices == frozenset()
    assert pi0_order(pgl2, w, p) == 2
    assert pi0_order(pgl2, w, T.TorusPoint(5, (0,))) == 1


def test_pi0_divides_weyl_order():
    sp4 = R.make_datum(["B2"], "sc", 5)
    w = R.weyl_generate(sp4.root_system)
    for p in T.enumerate_points(sp4, 5):
        assert w.order % pi0_order(sp4, w, p) == 0


@pytest.mark.parametrize("factors,lat,q", [
    (["B2"], "sc", 5), (["G2"], "ad", 7), (["B3"], "ad", 5),
    (["A2", "A1"], "sc", 7),
], ids=["B2", "G2", "B3", "A2xA1"])
def test_weyl_stabilizer_reflection_part_matches_all_reflections(
        factors, lat, q):
    # W_iota from the base reflections equals the closure over the
    # reflections in every positive root of the stratum's subsystem
    datum = R.make_datum(factors, lat, R.characteristic_of(q))
    w = R.weyl_generate(datum.root_system)
    poset = C.strata_poset(datum, q, "enumerate", weyl=w)
    for i, st in enumerate(poset.strata):
        ref = w.subgroup_closure(
            [w.reflection(k) for k in st.subsystem.positive_indices])
        assert poset.wiota_indices(i) == ref


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
                datum, T.TorusPoint(q, tuple(rng.randrange(m) for _ in range(rs.rank)))
            )
            group = T.subgroup_points(datum, q, sub)
            direct = [
                p for p in T.enumerate_points(datum, q)
                if all(
                    sum(a * b for a, b in zip(funcs[i], p.residues)) % m == 0
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
    gens = il.from_columns(il.columns(rs.cartan) + [tuple(x) for x in extra])
    d, u, _ = il.snf_transform(gens)
    basis = il.matmul(il.int_inverse(u), [row[:r] for row in d])
    basis = il.matmul(basis, random_unimodular(draw(st.randoms()), r))
    return R.GroupDatum(rs, R.Lattice("custom", basis), R.characteristic_of(q)), q


@settings(max_examples=60, deadline=None)
@given(intermediate_data(), st.data())
def test_subgroup_points_match_enumeration_on_random_lattices(datum_q, data):
    datum, q = datum_q
    m = q - 1
    r = datum.root_system.rank
    funcs = datum.root_functionals
    residues = data.draw(st.tuples(*[st.integers(0, m - 1)] * r))
    sub = T.centralizer_subsystem(datum, T.TorusPoint(q, residues))
    group = T.subgroup_points(datum, q, sub)
    direct = {
        p.residues for p in T.enumerate_points(datum, q)
        if all(sum(a * b for a, b in zip(funcs[i], p.residues)) % m == 0
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

    for p in T.enumerate_points(datum, 5):
        wi = rng.randrange(w.order)
        mat = datum.weyl_matrix_x(w, wi)
        moved = T.TorusPoint(5, il.matvec(mat, p.residues))
        left = T.centralizer_subsystem(datum, moved).indices
        perm = w.perms[wi]
        right = frozenset(perm[i] for i in
                          T.centralizer_subsystem(datum, p).indices)
        assert left == right


def test_ellipticity_three_way_agreement():
    # full-rank centralizer, a nonsingular base, and lying in a stratum
    for name, lat, q in [("A1", "sc", 5), ("B2", "sc", 5), ("G2", "ad", 7)]:
        datum = R.make_datum([name], lat, C_of(q))
        r = datum.root_system.rank
        in_strata = {v for st in C.strata_poset(datum, q, "enumerate").strata
                     for v in st.s_points}
        for p in T.enumerate_points(datum, q):
            sub = T.centralizer_subsystem(datum, p)
            by_rank = sub.rank == r
            assert (p.residues in in_strata) == by_rank
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


def test_identify_cartan_canonical_names():
    # rank-2 B and C coincide; D3 = A3; rank-1 anything = A1
    from coendo.torus import identify_cartan

    assert repr(identify_cartan([[2]])) == "A1"
    assert repr(identify_cartan([[2, -2], [-1, 2]])) == "B2"
    assert repr(identify_cartan([[2, -1], [-2, 2]])) == "B2"
    assert repr(identify_cartan([[2, -1], [-3, 2]])) == "G2"


def test_masks_match_direct_computation():
    datum = R.make_datum(["B2"], "sc", 5)
    masks, pos = T.centralizer_masks_for(datum, 5)
    funcs = datum.root_functionals
    m = 4
    for idx, mask in enumerate(masks):
        v = T.point_from_index(5, 2, idx).residues
        for b, i in enumerate(pos):
            vanishes = sum(a * b_ for a, b_ in zip(funcs[i], v)) % m == 0
            assert bool(mask >> b & 1) == vanishes


def test_kernel_backend_is_python():
    import coendo

    assert coendo.KERNEL_BACKEND == "python"


def test_centralizer_masks_small():
    # single row (2) mod 4: vanishes at v = 0 and 2
    assert T.centralizer_masks([(2,)], 4) == [1, 0, 1, 0]
    # ordering: last coordinate fastest
    out = T.centralizer_masks([(1, 0), (0, 1)], 3)
    assert len(out) == 9
    assert out[0] == 0b11  # v = (0,0)
    assert out[1] == 0b01  # v = (0,1): first row still vanishes
    assert out[3] == 0b10  # v = (1,0)


def test_centralizer_masks_row_limit():
    with pytest.raises(ValueError):
        T.centralizer_masks([(1,)] * 65, 3)


@st.composite
def sweep_cases(draw):
    r = draw(st.integers(1, 4))
    m = draw(st.sampled_from(
        [1, 2, 3, 4, 6, 12] + ([256, 257] if r <= 2 else [])))
    # keep the per-point check below to about 50,000 dot products
    k = draw(st.integers(1, max(1, min(64, 50_000 // m**r))))
    entry = st.integers(-3 * m - 5, 3 * m + 5)
    rows = draw(st.lists(st.tuples(*[entry] * r), min_size=k, max_size=k))
    return rows, m


@settings(max_examples=60, deadline=None)
@given(sweep_cases())
def test_centralizer_masks_match_dot_products(case):
    rows, m = case
    r = len(rows[0])
    out = T.centralizer_masks(rows, m)
    assert len(out) == m**r
    want = [
        sum(1 << i for i, row in enumerate(rows)
            if sum(a * x for a, x in zip(row, v)) % m == 0)
        for v in itertools.product(range(m), repeat=r)
    ]
    assert out == want


def test_masks_chunked_assembly():
    # wide mask assembly from several kernel passes (the >64-root path)
    datum = R.make_datum(["F4"], "sc", 7)
    whole, pos = T.centralizer_masks_for(datum, 5)
    pieces, pos2 = T.centralizer_masks_for(datum, 5, chunk=5)
    assert pos == pos2
    assert list(whole) == list(pieces)
