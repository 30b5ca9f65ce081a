import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coendo import cli
from coendo import coendoscopy as C
from coendo import intlinalg as il
from coendo import oracle as O
from coendo import rootsys as R
from coendo import torus as T
from test_oracle import refuse_weyl
from test_torus import SIMPLE_TYPE_NAMES, equal_rank_subsets, \
    reflection_closure, step_closure, subset_stabilizer, subsystem_from_base


def datum_for(name, lat, q):
    return R.make_datum([name], lat, R.characteristic_of(q))


def test_bds_g2():
    cls = C.borel_de_siebenthal(R.build_root_system(["G2"]))
    assert sorted(cl.signature for cl in cls) == ["A1xA1", "A2"]


def test_bds_type_a_empty():
    for name in ["A1", "A2", "A5"]:
        assert C.borel_de_siebenthal(R.build_root_system([name])) == []


def test_bds_b2():
    cls = C.borel_de_siebenthal(R.build_root_system(["B2"]))
    assert [cl.signature for cl in cls] == ["A1xA1"]


def test_bds_f4():
    cls = C.borel_de_siebenthal(R.build_root_system(["F4"]))
    assert sorted(cl.signature for cl in cls) == ["A1xC3", "A2xA2", "B4"]


def test_bds_e_types():
    e6 = C.borel_de_siebenthal(R.build_root_system(["E6"]))
    assert sorted(cl.signature for cl in e6) == ["A1xA5", "A2xA2xA2"]
    e7 = C.borel_de_siebenthal(R.build_root_system(["E7"]))
    assert sorted(cl.signature for cl in e7) == ["A1xD6", "A2xA5", "A7"]
    e8 = C.borel_de_siebenthal(R.build_root_system(["E8"]))
    assert sorted(cl.signature for cl in e8) == [
        "A1xE7", "A2xE6", "A4xA4", "A8", "D8"]


def test_bds_merges_conjugate_nodes():
    # in C3 the two prime-coefficient nodes give W-conjugate subsystems
    cls = C.borel_de_siebenthal(R.build_root_system(["C3"]))
    assert len(cls) == 1
    assert cls[0].equivalent_nodes == ((0, 1),)


def test_bds_classes_pairwise_non_conjugate():
    for name in ["B3", "C4", "D4", "G2", "F4", "B4", "D5"]:
        rs = R.build_root_system([name])
        canons = [
            C.canonical_subset(rs, cl.subsystem.indices)
            for cl in C.borel_de_siebenthal(rs)
        ]
        assert len(canons) == len(set(canons))


def test_bds_product_combinations():
    rs = R.build_root_system(["B2", "B2"])
    cls = C.borel_de_siebenthal(rs)
    # choices: (opt, None), (None, opt), (opt, opt); never the all-trivial one
    assert len(cls) == 3
    assert sorted(cl.signature for cl in cls) == [
        "A1xA1xA1xA1", "A1xA1xB2", "A1xA1xB2"]
    for cl in cls:
        assert cl.subsystem.rank == 4
        assert not cl.is_whole_group


@pytest.fixture
def no_orbit_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("a W-orbit search ran")

    monkeypatch.setattr(C, "orbit_of_subset", refuse)


@pytest.mark.parametrize("name", ["C3", "E7", "E8"])
def test_bds_runs_no_orbit_search(no_orbit_search, name):
    # options merge by (factor, signature); on a square each factor keeps
    # its own classes, so the nontrivial classes number (k + 1)^2 - 1
    single = C.borel_de_siebenthal(R.build_root_system([name]))
    square = C.borel_de_siebenthal(R.build_root_system([name, name]))
    assert len(square) == (len(single) + 1) ** 2 - 1


def representative_point(cl):
    """The sum over the chosen nodes of (fundamental coweight)/h."""
    v = [Fraction(0)] * cl.rs.rank
    for c in cl.choices:
        if c is not None:
            node, h = c
            v[node] += Fraction(1, h)
    return v


def test_class_representative_point_recovers_subsystem():
    for name, lat, q in [("B2", "sc", 5), ("G2", "ad", 7), ("B3", "sc", 5)]:
        datum = datum_for(name, lat, q)
        adj, d = datum.cochar.adjugate
        for cl in C.classify(datum, q):
            if cl.is_whole_group or not cl.rational_over_fq:
                continue
            ambient = [x * (q - 1) for x in representative_point(cl)]
            coords = [sum(a * x for a, x in zip(row, ambient)) / d
                      for row in adj]
            assert all(x.denominator == 1 for x in coords)
            pt = tuple(int(x) for x in coords)
            sub = T.centralizer_subsystem(datum, q, pt)
            assert sub.indices == cl.subsystem.indices
            assert sub.rank == datum.root_system.rank


def test_classify_rationality_g2():
    datum = R.make_datum(["G2"], "ad", 7)
    flags = {cl.signature: cl.rational_over_fq for cl in C.classify(datum, 7)}
    assert flags == {"G2": True, "A2": True, "A1xA1": True}
    flags5 = {cl.signature: cl.rational_over_fq
              for cl in C.classify(R.make_datum(["G2"], "ad", 5), 5)}
    assert flags5 == {"G2": True, "A2": False, "A1xA1": True}


def test_classify_type_a_only_whole_group():
    datum = R.make_datum(["A3"], "sc", 5)
    cls = C.classify(datum, 5)
    assert len(cls) == 1 and cls[0].is_whole_group
    assert cls[0].deleted_node is None


def test_equal_rank_subsystems_structure():
    rs = R.build_root_system(["G2"])
    subs = C.equal_rank_subsystems(rs)
    assert len(subs) == 5
    for sub in subs:
        assert sub.rank == 2
        assert sub.is_closed()
    rs4 = R.build_root_system(["F4"])
    types = {s.signature for s in C.equal_rank_subsystems(rs4)}
    assert types == {"F4", "B4", "A1xC3", "A2xA2", "D4", "A1xA3",
                     "A1xA1xB2", "A1xA1xA1xA1"}


def test_candidate_cap_raises_and_caches_only_a_complete_list():
    rs = R.build_root_system(["B3"])
    with pytest.raises(R.CapExceeded, match=r"caps\.candidates"):
        C.equal_rank_subsystems(rs, cap=4)
    assert len(C.equal_rank_subsystems(rs, cap=5)) == 5
    # no list outlives the call, so a later, smaller cap raises again
    with pytest.raises(R.CapExceeded):
        C.equal_rank_subsystems(rs, cap=4)


def test_equal_rank_subsystems_weyl_stable():
    rs = R.build_root_system(["B3"])
    subs = {s.indices for s in C.equal_rank_subsystems(rs)}
    perms = rs.simple_reflection_perms
    for s in subs:
        for perm in perms:
            assert frozenset(perm[i] for i in s) in subs


GRID = [("A1", 5), ("A1", 9), ("A2", 7), ("B2", 5), ("B2", 13), ("B3", 5),
        ("C3", 9), ("D4", 5), ("G2", 7), ("G2", 13), ("F4", 7), ("F4", 13)]


@pytest.mark.parametrize("name,q", GRID)
def test_routes_agree(name, q):
    datum = datum_for(name, "sc", q)
    pe = C.strata_poset(datum, q, "enumerate")
    pc = C.strata_poset(datum, q, "classify")
    assert [(s.key, s.s_size, s.z_order) for s in pe.strata] == \
        [(s.key, s.s_size, s.z_order) for s in pc.strata]
    assert pe.mobius_table == pc.mobius_table


@pytest.mark.parametrize("name,lat,q", [
    ("A1", "sc", 2187), ("A1", "ad", 2187), ("A2", "sc", 563),
    ("A2", "ad", 563), ("B2", "sc", 587), ("G2", "sc", 587)])
def test_routes_agree_on_parts_past_a_byte(name, lat, q):
    # q - 1 = 2 * 1093, 2 * 281 and 2 * 293: the sweep's odd part has
    # more than 256 points per coordinate
    assert max(T.prime_power_factors(q - 1)) > 256
    datum = datum_for(name, lat, q)
    pe = C.strata_poset(datum, q, "enumerate")
    pc = C.strata_poset(datum, q, "classify")
    assert [(s.key, s.s_size, s.z_order) for s in pe.strata] == \
        [(s.key, s.s_size, s.z_order) for s in pc.strata]
    assert pe.mobius_table == pc.mobius_table


def test_e6_routes_agree():
    # beyond the rank-4 grid: 77 strata (E6, 36 x A1A5, 40 x 3A2)
    datum = R.make_datum(["E6"], "sc", 7)
    pe = C.strata_poset(datum, 7, "enumerate")
    pc = C.strata_poset(datum, 7, "classify")
    assert [(s.key, s.s_size, s.z_order) for s in pe.strata] == \
        [(s.key, s.s_size, s.z_order) for s in pc.strata]
    assert len(pe) == 77
    assert sorted({s.signature for s in pe.strata}) == \
        ["A1xA5", "A2xA2xA2", "E6"]
    assert C.reeder_partition_check(pe).passed


def test_e7_routes_agree(monkeypatch):
    # 730 strata in 4 W-classes, built without enumerating W
    refuse_weyl(monkeypatch)
    datum = R.make_datum(["E7"], "sc", 5)
    pe = C.strata_poset(datum, 5, "enumerate")
    pc = C.strata_poset(datum, 5, "classify")
    assert [(s.key, s.s_size, s.z_order) for s in pe.strata] == \
        [(s.key, s.s_size, s.z_order) for s in pc.strata]
    assert pe.mobius_table == pc.mobius_table
    assert len(pe) == 730 and len({st.rep.key for st in pe.strata}) == 4


def test_wide_mask_routes_agree():
    # 78 positive roots: the sweep's masks span 10 byte planes, two words
    datum = datum_for("A12", "sc", 3)
    assert len(datum.root_system.positive_indices) == 78
    pe = C.strata_poset(datum, 3, "enumerate")
    pc = C.strata_poset(datum, 3, "classify")
    assert [(s.key, s.s_size, s.z_order) for s in pe.strata] == \
        [(s.key, s.s_size, s.z_order) for s in pc.strata]
    assert [s.signature for s in pe.strata] == ["A12"]
    assert max(pe._masks.values()) == (1 << 78) - 1
    assert C.reeder_partition_check(pe).passed


@pytest.mark.parametrize("route", ["enumerate", "classify"])
def test_one_mobius_table_per_poset(monkeypatch, route):
    calls = []
    mobius = C._mobius
    monkeypatch.setattr(C, "_mobius",
                        lambda *args: calls.append(args) or mobius(*args))
    for name, q in [("B3", 5), ("F4", 7)]:
        before = len(calls)
        C.strata_poset(datum_for(name, "sc", q), q, route)
        assert len(calls) == before + 1


def test_classify_route_scales_past_enumeration_cap():
    from coendo import coefficients as K

    datum = R.make_datum(["B2"], "sc", 1009)
    with pytest.raises(R.CapExceeded):
        C.strata_poset(datum, 1009, "enumerate")
    poset = C.strata_poset(datum, 1009, "classify")
    assert [(s.signature, s.s_size, s.z_order) for s in poset.strata] == \
        [("B2", 2, 2), ("A1xA1", 2, 4)]
    # the coefficient table is field-stable against a small admissible q
    spec = K.CharacterSpec.trivial(2, 1)
    big = K.n_table(datum, 1009, spec, poset)
    small = K.n_table(datum, 5, spec,
                      C.strata_poset(datum, 5, "classify"))
    assert {r.key(): (r.n, r.n_sum) for r in big.rows} == \
        {r.key(): (r.n, r.n_sum) for r in small.rows}


def test_product_group_routes_and_partition():
    # factor-wise deletion on a product, validated against enumeration
    datum = R.make_datum(["B2", "A1"], "sc", 5)
    pe = C.strata_poset(datum, 5, "enumerate")
    pc = C.strata_poset(datum, 5, "classify")
    assert [(s.key, s.s_size, s.z_order) for s in pe.strata] == \
        [(s.key, s.s_size, s.z_order) for s in pc.strata]
    assert C.reeder_partition_check(pe).passed
    assert sorted(s.signature for s in pe.strata) == ["A1xA1xA1", "A1xB2"]
    for st in pe.strata:
        assert st.subsystem.rank == 3


def test_minimal_stratum_is_center():
    for name, lat, q in [("A1", "sc", 5), ("B2", "sc", 5), ("G2", "ad", 7),
                         ("A1", "ad", 9)]:
        datum = datum_for(name, lat, q)
        poset = C.strata_poset(datum, q, "enumerate")
        st = poset.strata[0]
        center = T.subgroup_points(
            datum, q,
            T.Subsystem(datum.root_system, range(len(datum.root_system.roots))),
        )
        assert st.s_size == center.order == st.z_order
        assert len(st.subsystem.indices) == len(datum.root_system.roots)
        # minimal for the order: below everything
        assert all(0 in poset.below(j) for j in range(len(poset)))


def test_b2_poset_shape():
    datum = datum_for("B2", "sc", 5)
    poset = C.strata_poset(datum, 5, "enumerate")
    assert [s.signature for s in poset.strata] == ["B2", "A1xA1"]
    assert [s.s_size for s in poset.strata] == [2, 2]
    assert poset.mobius_table[(0, 1)] == -1
    assert poset.mobius_table[(0, 0)] == poset.mobius_table[(1, 1)] == 1


def assert_mobius_identity(poset):
    """sum of mu(i, k) over i <= k <= j is 1 if i == j and 0 otherwise."""
    mob = poset.mobius_table
    n = len(poset)
    for j in range(n):
        for i in range(n):
            if i not in poset.below(j):
                assert (i, j) not in mob
                continue
            total = sum(mob[(i, k)] for k in poset.below(j)
                        if i in poset.below(k))
            assert total == (1 if i == j else 0)


def test_mobius_defining_identity():
    datum = datum_for("F4", "sc", 13)
    assert_mobius_identity(C.strata_poset(datum, 13, "classify"))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A1", "A2", "B2", "G2", "A1,A1", "A2,A1", "B3", "C3"]),
       st.sampled_from(["sc", "ad"]), st.sampled_from([4, 5, 7, 8, 9, 13]))
def test_mobius_defining_identity_random(name, lat, q):
    factors = name.split(",")
    p = R.characteristic_of(q)
    assume(not R.bad_characteristic_reasons(
        p, R.build_root_system(factors).simple_factors))
    datum = R.make_datum(factors, lat, p)
    posets = [C.strata_poset(datum, q, route)
              for route in ("enumerate", "classify")]
    for poset in posets:
        sets = [s.subsystem.indices for s in poset.strata]
        assert all(poset.below(j) == tuple(i for i in range(len(poset))
                                           if sets[j] <= sets[i])
                   for j in range(len(poset)))
        assert_mobius_identity(poset)
    pe, pc = posets
    assert [(s.key, s.s_size, s.z_order) for s in pe.strata] == \
        [(s.key, s.s_size, s.z_order) for s in pc.strata]
    assert pe.mobius_table == pc.mobius_table


def test_reeder_partition_grid():
    for name, q in GRID:
        datum = datum_for(name, "sc", q)
        poset = C.strata_poset(datum, q, "enumerate")
        verdict = C.reeder_partition_check(poset)
        assert verdict.passed, verdict.witness


def test_reeder_partition_witnesses():
    # each corruption of an enumerate-route poset trips its own check
    def corrupted(change):
        poset = C.strata_poset(datum_for("B2", "sc", 5), 5, "enumerate")
        assert [s.signature for s in poset.strata] == ["B2", "A1xA1"]
        change(poset, *poset.strata)
        verdict = C.reeder_partition_check(poset)
        assert not verdict.passed
        return verdict.witness

    def set_z(poset, b2, a1a1):
        b2.z_order = 3

    def drop_point(poset, b2, a1a1):
        a1a1.s_points = a1a1.s_points[1:]

    def add_outside_point(poset, b2, a1a1):
        mask = poset._mask_of[a1a1.subsystem.indices]
        # a point the sweep did not keep reads as mask 0
        idx = next(i for i in range(16)
                   if poset._masks.get(i, 0) & mask != mask)
        a1a1.s_points += (idx,)

    def repeat_lower_point(poset, b2, a1a1):
        a1a1.s_points = (b2.s_points[0],) + a1a1.s_points[1:]

    assert corrupted(set_z) == {"stratum": "B2", "direct": 2,
                                "group_order": 3}
    assert corrupted(drop_point) == {"stratum": "A1xA1", "missing": 1,
                                     "extra": 0}
    assert corrupted(add_outside_point) == {"stratum": "A1xA1", "missing": 0,
                                            "extra": 1}
    assert corrupted(repeat_lower_point) == {"stratum": "A1xA1",
                                             "overlap_with": "A1xA1"}

    # a stratum that is not its class's representative reads |Z| from the
    # class, and the check still counts it directly
    poset = C.strata_poset(datum_for("F4", "sc", 7), 7, "enumerate")
    st = next(st for st in poset.strata if st.key != st.rep.key)
    st.z_order += 1
    assert C.reeder_partition_check(poset).witness == {
        "stratum": st.signature, "direct": st.z_order - 1,
        "group_order": st.z_order}


def test_reeder_needs_points():
    datum = datum_for("A1", "sc", 5)
    poset = C.strata_poset(datum, 5, "classify")
    assert not C.reeder_partition_check(poset).passed


def test_stratum_invariants():
    datum = datum_for("G2", "ad", 7)
    poset = C.strata_poset(datum, 7, "enumerate")
    weyl = R.weyl_generate(datum.root_system)
    for i, st in enumerate(poset.strata):
        assert st.s_size <= st.z_order
        cw = subset_stabilizer(weyl, st.subsystem)
        wiota = reflection_closure(weyl, st.subsystem.base_indices)
        assert set(wiota) <= set(cw)
        assert len(wiota) == st.subsystem.weyl_order
        assert weyl.order % len(cw) == 0


def test_canonical_class_representatives():
    datum = datum_for("G2", "ad", 7)
    poset = C.strata_poset(datum, 7, "enumerate")
    reps = poset.class_representatives()
    # G2, A2, and one representative of the three A1xA1 strata
    assert len(reps) == 3
    keys = [st.rep.key for st in poset.strata]
    orbit_sizes = sorted(keys.count(keys[i]) for i in reps)
    assert orbit_sizes == [1, 1, 3]


# The second divisibility table: when its entry divides q - 1, the
# F_q-points of each class's center already exhaust the geometric center.
TABLE_CAR2 = {
    "A": lambda r: r + 1,
    "B": lambda r: 4,
    "C": lambda r: 8,
    "D": lambda r: 8,
    "E": lambda r: {6: 18, 7: 24, 8: 90}[r],
    "F": lambda r: 6,
    "G": lambda r: 6,
}


def car2_divisor(t):
    return TABLE_CAR2[t.family](t.rank)


def rationality_tables_check(t, q):
    """Check both divisibility tables as implications, on the simply
    connected datum: under the first, every deletion class is rational at q;
    under the second, the F_q-points of each class's center already exhaust
    the geometric center."""
    p = R.characteristic_of(q)
    datum = R.make_datum([f"{t.family}{t.rank}"], "sc", p)
    inst = f"{t}@q={q}"
    classes = C.classify(datum, q)

    need = C.car_divisor(t)
    applicable = need is None or (q - 1) % need == 0
    if not applicable:
        car = C.Verdict("table_car", inst, True,
                        details={"applicable": False, "divisor": need})
    else:
        bad = [
            repr(cl) for cl in classes if not cl.rational_over_fq
        ]
        car = C.Verdict("table_car", inst, not bad,
                        witness=bad or None,
                        details={"applicable": True, "divisor": need,
                                 "classes": len(classes)})

    need2 = car2_divisor(t)
    applicable2 = (q - 1) % need2 == 0
    if not applicable2:
        car2 = C.Verdict("table_car2", inst, True,
                         details={"applicable": False, "divisor": need2})
    else:
        bad2 = []
        for cl in classes:
            geo = R.geometric_center_order(datum, cl.subsystem)
            now = T.subgroup_points(datum, q, cl.subsystem).order
            if geo != now:
                bad2.append({"class": repr(cl), "geometric": geo, "at_q": now})
        car2 = C.Verdict("table_car2", inst, not bad2,
                         witness=bad2 or None,
                         details={"applicable": True, "divisor": need2,
                                  "classes": len(classes)})
    return car, car2


@pytest.mark.parametrize("name,q,car_ok,car2_ok", [
    ("B2", 13, True, True),
    ("C3", 9, True, True),
    ("G2", 7, True, True),
    ("A3", 5, True, True),
])
def test_rationality_tables(name, q, car_ok, car2_ok):
    car, car2 = rationality_tables_check(R.SimpleType.parse(name), q)
    assert car.passed == car_ok
    assert car2.passed == car2_ok


@pytest.mark.parametrize("name,q", [("E6", 19), ("E7", 25), ("E8", 31)])
def test_rationality_tables_exceptional(name, q):
    # no enumeration involved: membership and Smith forms only
    car, car2 = rationality_tables_check(R.SimpleType.parse(name), q)
    assert car.passed and car.details["applicable"]
    assert car2.passed


def test_rationality_table_values():
    assert C.car_divisor(R.SimpleType.parse("C4")) == 4
    assert C.car_divisor(R.SimpleType.parse("C3")) == 8
    assert C.car_divisor(R.SimpleType.parse("A5")) is None
    assert C.car_divisor(R.SimpleType.parse("E7")) == 12
    assert car2_divisor(R.SimpleType.parse("A5")) == 6
    assert car2_divisor(R.SimpleType.parse("E8")) == 90
    assert car2_divisor(R.SimpleType.parse("D6")) == 8


# Types for the class-key tests: A2 to F4 and two products.
CLASS_KEY_TYPES = [["A2"], ["B2"], ["G2"], ["B3"], ["C3"], ["D4"], ["F4"],
                   ["A2", "A1"], ["A1", "A1", "A1"]]
CLASS_KEY_IDS = [",".join(f) for f in CLASS_KEY_TYPES]


@pytest.mark.parametrize("route", ["enumerate", "classify"])
@pytest.mark.parametrize("lattice", ["sc", "ad"])
@pytest.mark.parametrize("factors", CLASS_KEY_TYPES, ids=CLASS_KEY_IDS)
def test_class_keys_match_orbit_search(factors, lattice, route):
    for q in (7, 13):
        datum = R.make_datum(factors, lattice, R.characteristic_of(q))
        rs = datum.root_system
        poset = C.strata_poset(datum, q, route)
        canon = [C.canonical_subset(rs, st.subsystem.indices)
                 for st in poset.strata]
        assert [st.rep.key for st in poset.strata] == canon
        canonical = [st.key == c for st, c in zip(poset.strata, canon)]
        assert poset.class_representatives() == [
            i for i, flag in enumerate(canonical) if flag]
        summary = poset.summary()
        assert [row["canonical"] for row in summary] == canonical
        # typed once per class, every stratum has its class's type
        assert [row["signature"] for row in summary] == [
            T.Subsystem(rs, st.subsystem.indices).signature
            for st in poset.strata]


@pytest.mark.parametrize("lattice", ["sc", "ad"])
@pytest.mark.parametrize("factors", CLASS_KEY_TYPES, ids=CLASS_KEY_IDS)
def test_weyl_group_permutes_enumerated_strata(factors, lattice):
    # w·S_c = S_{w·c}: a simple reflection sends each stratum's root set to
    # a stratum with the same class data; the enumerate route relies on it
    # to take every member of a searched orbit as a stratum
    for q in (7, 13, 25):
        datum = R.make_datum(factors, lattice, R.characteristic_of(q))
        poset = C.strata_poset(datum, q, "enumerate")
        by_set = {st.subsystem.indices: st for st in poset.strata}
        for st in poset.strata:
            for perm in datum.root_system.simple_reflection_perms:
                image = frozenset(map(perm.__getitem__, st.subsystem.indices))
                assert image in by_set
                moved = by_set[image]
                assert (moved.s_size, moved.z_order, moved.z_invariants,
                        moved.rep.key) == (st.s_size, st.z_order,
                                           st.z_invariants, st.rep.key)


@pytest.mark.parametrize("route", ["enumerate", "classify"])
@pytest.mark.parametrize("factors,lattice,q,strata,classes", [
    (["F4"], "sc", 25, 44, 5), (["E7"], "sc", 5, 730, 4),
    (["G2"], "ad", 7, 5, 3)])
def test_summary_types_once_per_class(monkeypatch, route, factors, lattice,
                                      q, strata, classes):
    # signature is recomputed on every access, so the distinct subsystems
    # typed count the typings the cached property does: one per class
    datum = R.make_datum(factors, lattice, R.characteristic_of(q))
    poset = C.strata_poset(datum, q, route)
    typed = []
    signature = T.Subsystem.signature.func
    monkeypatch.setattr(T.Subsystem, "signature", property(
        lambda sub: typed.append(sub) or signature(sub)))
    summary = poset.summary()
    assert len(summary) == strata
    assert len({id(sub) for sub in typed}) == classes


MAPPING_TYPES = CLASS_KEY_TYPES + [["E7"]]


@pytest.mark.parametrize("factors", MAPPING_TYPES,
                         ids=[",".join(f) for f in MAPPING_TYPES])
def test_candidates_map_to_their_class_representative(factors):
    # key order; the candidates mapped to a representative are its W-orbit,
    # and it is keyed canonical_subset and maps to itself, so every
    # candidate maps to the member keyed canonical_subset of its own orbit
    rs = R.build_root_system(factors)
    cands = C.equal_rank_subsystems(rs)
    assert [sub.key for sub in cands] == sorted(sub.key for sub in cands)
    members = {}
    for sub, rep in cands.items():
        members.setdefault(rep, set()).add(sub.indices)
    for rep, orbit in members.items():
        assert orbit == set(C.orbit_of_subset(rs, rep.indices))
        assert rep.key == C.canonical_subset(rs, rep.indices)
        assert cands[rep] is rep


@pytest.mark.parametrize("name,classes", [("F4", 8), ("E6", 3), ("E7", 7),
                                          ("B4", 5), ("D5", 2)])
def test_candidate_class_counts(name, classes):
    rs = R.build_root_system([name])
    cands = C.equal_rank_subsystems(rs)
    assert len(set(cands.values())) == classes


def test_classify_inversion_refuses_a_negative_stratum_size(monkeypatch):
    # Sp4 at q = 13: the central stratum has |S| = |Z(G)(F_q)| = 2, so a
    # trivial Z for the largest proper class would leave it |S| = -1
    datum = R.make_datum(["B2"], "sc", 13)
    solve = C.subgroup_points
    whole = len(datum.root_system.roots)

    def too_small(datum, q, sub):
        if len(sub.indices) < whole:
            return R.FiniteAbelianGroup((), ())
        return solve(datum, q, sub)

    assert C.strata_poset(datum, 13, "classify").strata[0].s_size == 2
    monkeypatch.setattr(C, "subgroup_points", too_small)
    with pytest.raises(AssertionError, match="negative stratum size"):
        C.strata_poset(datum, 13, "classify")


@pytest.mark.parametrize("lattice", ["sc", "ad"])
@pytest.mark.parametrize("factors", CLASS_KEY_TYPES, ids=CLASS_KEY_IDS)
def test_enumerate_route_strata_cover_the_swept_points(factors, lattice):
    # the sweep returns the elliptic points only, and each lies in one stratum
    for q in (7, 13, 25):
        datum = R.make_datum(factors, lattice, R.characteristic_of(q))
        poset = C.strata_poset(datum, q, "enumerate")
        points = sorted(idx for st in poset.strata for idx in st.s_points)
        assert points == list(poset._masks)


def span(group, m, rank):
    """The residue vectors mod m of the subgroup the generators span."""
    points = {(0,) * rank}
    for g, order in zip(group.generators, group.invariants):
        points = {tuple((x + k * y) % m for x, y in zip(p, g))
                  for p in points for k in range(order)}
    return points


@pytest.mark.parametrize("route", ["enumerate", "classify"])
@pytest.mark.parametrize("lattice", ["sc", "ad"])
@pytest.mark.parametrize("factors", CLASS_KEY_TYPES, ids=CLASS_KEY_IDS)
def test_class_group_data_match_a_fresh_solve(factors, lattice, route):
    # Z data is solved once per W-class; every stratum's order and
    # invariants, and the group its own generators span, are its own
    for q in (7, 13):
        datum = R.make_datum(factors, lattice, R.characteristic_of(q))
        for st in C.strata_poset(datum, q, route).strata:
            fresh = T.subgroup_points(datum, q, st.subsystem)
            assert st.z_order == fresh.order
            assert st.z_invariants == st.z_group.invariants \
                == fresh.invariants
            r = datum.root_system.rank
            assert span(st.z_group, q - 1, r) == span(fresh, q - 1, r)


def _worklist_by_canonical_keys(rs):
    """Full-rank closed subsystems by the worklist of canonical keys that
    runs one orbit search per prime step, then one per class."""
    seen = set()
    worklist = [C.canonical_subset(rs, range(len(rs.roots)))]
    while worklist:
        key = worklist.pop()
        if key in seen:
            continue
        seen.add(key)
        for _, _, nxt in C._prime_steps(rs, T.Subsystem(rs, key)):
            worklist.append(C.canonical_subset(rs, nxt.indices))
    subsets = set()
    for key in seen:
        subsets.update(C.orbit_of_subset(rs, key))
    return sorted(tuple(sorted(s)) for s in subsets)


@pytest.mark.parametrize("factors", CLASS_KEY_TYPES, ids=CLASS_KEY_IDS)
def test_equal_rank_subsystems_match_canonical_worklist(factors):
    rs = R.build_root_system(factors)
    assert [sub.key for sub in C.equal_rank_subsystems(rs)] == \
        _worklist_by_canonical_keys(rs)


def reference_prime_steps(rs, sub):
    """Prime-node deletion steps as (t, h, indices), finding the highest
    root of each component by its own pass over the positive roots."""
    base = sub.base_indices
    adj, d = il.adjugate([rs.roots[i].coeffs for i in base])
    out = []
    for comp in sub.components:
        best, best_exp = None, None
        for i in sub.positive_indices:
            exp = tuple(x // d for x in il.vecmat(rs.roots[i].coeffs, adj))
            support = {t for t, x in enumerate(exp) if x}
            if support <= set(comp) and (best is None
                                         or sum(exp) > sum(best_exp)):
                best, best_exp = i, exp
        for t in comp:
            h = best_exp[t]
            if h in (2, 3, 5):  # highest-root marks are at most 6
                new_base = [b for s, b in enumerate(base) if s != t]
                out.append((t, h, subsystem_from_base(
                    rs, new_base + [rs.negate[best]]).indices))
    return out


STEP_TYPES = [[name] for name in O.GRID_TYPES] + [
    ["B4"], ["C4"], ["D5"], ["E6"], ["E8"], ["A2", "A1"]]


@pytest.mark.parametrize("factors", STEP_TYPES,
                         ids=[",".join(f) for f in STEP_TYPES])
def test_prime_steps_match_per_component_search(factors):
    rs = R.build_root_system(factors)
    for indices in equal_rank_subsets(rs):
        sub = T.Subsystem(rs, indices)
        assert [(t, h, step.indices) for t, h, step in C._prime_steps(rs, sub)] \
            == reference_prime_steps(rs, sub)


# Products and simple types, E7 the largest, for the maximal-member test.
MAXIMAL_TYPES = [["A3"], ["B2"], ["B3"], ["B4"], ["C3"], ["C4"], ["D4"],
                 ["D5"], ["G2"], ["F4"], ["E6"], ["E7"], ["B2", "A1"],
                 ["G2", "B2"], ["A1", "A1", "A1"], ["B3", "G2"]]


@pytest.mark.parametrize("factors", MAXIMAL_TYPES,
                         ids=[",".join(f) for f in MAXIMAL_TYPES])
def test_closure_maximal_members_are_bds_classes(factors):
    # the maximal proper full-rank closed subsystems are, up to W, the
    # single-factor Borel-de Siebenthal classes, each class once
    rs = R.build_root_system(factors)
    proper = [sub.indices for sub in C.equal_rank_subsystems(rs)
              if len(sub.indices) < len(rs.roots)]
    maximal = [s for s in proper if not any(s < t for t in proper)]
    single = [cl.subsystem.indices for cl in C.borel_de_siebenthal(rs)
              if sum(c is not None for c in cl.choices) == 1]
    assert sorted({C.canonical_subset(rs, s) for s in maximal}) == \
        sorted(C.canonical_subset(rs, s) for s in single)


def test_enumerate_route_searches_each_class_once(monkeypatch):
    calls = []
    search = C.orbit_of_subset

    def counting(rs, indices, *limit):
        calls.append(indices)
        return search(rs, indices, *limit)

    monkeypatch.setattr(C, "orbit_of_subset", counting)
    for factors, lattice, q in [(["F4"], "sc", 13), (["G2"], "ad", 7),
                                (["B3"], "sc", 13)]:
        calls.clear()
        datum = R.make_datum(factors, lattice, R.characteristic_of(q))
        poset = C.strata_poset(datum, q, "enumerate")
        assert len(calls) == len({st.rep for st in poset.strata}) \
            < len(poset.strata)


@pytest.mark.parametrize("route", ["enumerate", "classify"])
def test_strata_solve_one_smith_form_per_class(monkeypatch, route):
    # per class of strata on the enumerate route, per class of candidates
    # on the classify route; the strata report solves nothing more
    calls = []
    solve = C.subgroup_points

    def counting(datum, q, sub):
        calls.append(sub)
        return solve(datum, q, sub)

    monkeypatch.setattr(C, "subgroup_points", counting)
    for factors, lattice, q in [(["F4"], "sc", 13), (["G2"], "ad", 7),
                                (["B3"], "sc", 13)]:
        datum = R.make_datum(factors, lattice, R.characteristic_of(q))
        cands = C.equal_rank_subsystems(datum.root_system)
        calls.clear()
        poset = C.strata_poset(datum, q, route)
        poset.summary()
        classes = set([st.rep for st in poset.strata] if route == "enumerate"
                      else cands.values())
        assert len(calls) == len(classes) < len(poset.strata)


def test_bds_merges_options_by_signature(no_orbit_search):
    # E8's five options have five types, so nothing merges
    e8 = C.borel_de_siebenthal(R.build_root_system(["E8"]))
    assert [cl.equivalent_nodes for cl in e8] == [()] * 5
    # in D_n, deleting node k or n-k gives conjugate D_k x D_(n-k)
    # (a D_2 reads A1xA1, a D_3 reads A3); D4xD4 has no partner
    for name, nodes in [
            ("D4", [()]),
            ("D5", [((1, 2),)]),
            ("D6", [((1, 3),), ()]),
            ("D7", [((1, 4),), ((2, 3),)]),
            ("D8", [((1, 5),), ((2, 4),), ()])]:
        cls = C.borel_de_siebenthal(R.build_root_system([name]))
        assert [cl.equivalent_nodes for cl in cls] == nodes


BDS_TYPES = ([f"B{n}" for n in range(2, 13)] + [f"C{n}" for n in range(3, 13)]
             + [f"D{n}" for n in range(4, 13)]
             + ["E6", "E7", "E8", "F4", "G2", "D8,D8", "E7,E7"])


@pytest.mark.parametrize("name", BDS_TYPES)
def test_bds_merge_matches_orbit_classes(name):
    # canonical_subset is the reference: the options of one factor that
    # share a signature are one W-class, and no two such groups share a
    # class.  Options of different factors are never conjugate (W is the
    # product of the factors' Weyl groups), so on a square the groups are
    # per factor, and merging by signature alone would join them
    rs = R.build_root_system(name.split(","))
    whole = T.Subsystem(rs, range(len(rs.roots)))
    base = whole.base_indices
    groups = {}
    for t, _, sub in C._prime_steps(rs, whole):
        group = groups.setdefault((rs.roots[base[t]].factor, sub.signature),
                                  {"nodes": [], "keys": set()})
        group["nodes"].append(rs.simple_indices.index(base[t]))
        group["keys"].add(C.canonical_subset(rs, sub.indices))
    assert all(len(g["keys"]) == 1 for g in groups.values())
    assert len({key for g in groups.values() for key in g["keys"]}) == \
        len(groups)
    merged = [cl.equivalent_nodes[0] if cl.equivalent_nodes
              else (cl.deleted_node,)
              for cl in C.borel_de_siebenthal(rs)
              if sum(c is not None for c in cl.choices) == 1]
    assert sorted(merged) == sorted(tuple(sorted(g["nodes"]))
                                    for g in groups.values())


PRODUCT_FACTORS = (["A1", "A2", "A3", "A4", "B2", "B3", "B4", "B5", "B6",
                    "C3", "C4", "C5", "C6", "D4", "D5", "D6", "D7",
                    "E6", "F4", "G2"])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(PRODUCT_FACTORS), min_size=1, max_size=3),
       st.sampled_from(["sc", "ad"]), st.sampled_from([7, 13, 31]))
def test_classify_on_products_combines_single_factor_classes(factors,
                                                            lattice, q):
    # a class picks a single-factor class, or none, in each factor; its
    # merged nodes are that factor's, shifted by the factor's first node,
    # and on these lattices it is rational iff each picked class is
    single = {}
    for f in set(factors):
        single[f] = {cl.deleted_node: cl for cl in C.classify(
            datum_for(f, lattice, q), q)[1:]}
    datum = R.make_datum(factors, lattice, R.characteristic_of(q))
    rs = datum.root_system
    classes = C.classify(datum, q)
    assert len(classes) == math.prod(len(single[f]) + 1 for f in factors)
    assert classes[0].is_whole_group
    offsets = [sum(rs.simple_factors[g].rank for g in range(f))
               for f in range(len(factors))]
    for cl in classes[1:]:
        assert cl.subsystem.is_closed() and cl.subsystem.rank == rs.rank
        picked = [(f, c[0] - offsets[f])
                  for f, c in enumerate(cl.choices) if c is not None]
        parts = [single[factors[f]][node] for f, node in picked]
        assert cl.equivalent_nodes == tuple(
            tuple(n + offsets[f] for n in part.equivalent_nodes[0])
            for (f, _), part in zip(picked, parts) if part.equivalent_nodes)
        assert cl.rational_over_fq == all(p.rational_over_fq for p in parts)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(SIMPLE_TYPE_NAMES), min_size=1, max_size=3),
       st.sampled_from(["sc", "ad"]), st.sampled_from(O.DEFAULT_QS))
def test_product_classes_join_their_factors(factors, lattice, q):
    # the classes are the product, over factors, of the whole factor and
    # its options; a class's signature is the join of its parts' types,
    # which typing its root set from scratch must reproduce
    p = R.characteristic_of(q)
    assume(not R.bad_characteristic_reasons(
        p, map(R.SimpleType.parse, factors)))
    datum = R.make_datum(factors, lattice, p)
    rs = datum.root_system
    single = [C.classify(R.make_datum([f], lattice, p), q) for f in factors]
    classes = C.classify(datum, q)
    assert len(classes) == math.prod(
        1 + len(C.borel_de_siebenthal(R.build_root_system([f])))
        for f in factors)
    offsets = [sum(rs.simple_factors[g].rank for g in range(f))
               for f in range(len(factors))]
    for cl, parts in zip(classes, itertools.product(*single)):
        picked = [(c[0] + off, c[1]) for part, off in zip(parts, offsets)
                  for c in part.choices if c is not None]
        assert [c for c in cl.choices if c is not None] == picked
        sub = cl.subsystem
        assert cl.signature == T.Subsystem(rs, sub.indices).signature
        assert sub.is_closed() and sub.rank == rs.rank
        assert cl.rational_over_fq == all(
            part.rational_over_fq for part in parts)
        # and, from scratch, iff (q-1) times the representative point
        # lies in X_*
        point = [(q - 1) * x for x in representative_point(cl)]
        adj, d = datum.cochar.adjugate
        coords = [sum(map(Fraction.__mul__, point, row)) / d for row in adj]
        assert cl.rational_over_fq == all(
            x.denominator == 1 for x in point + coords)


@pytest.mark.parametrize("name,k", [("G2", 4), ("E8", 3)])
def test_classify_types_each_factor_once(monkeypatch, name, k):
    # a class's type joins its factors' types, so the Dynkin typing runs
    # per factor option, not per class: k copies cost k times one
    calls = []
    identify = T.identify_cartan

    def counting(cartan):
        calls.append(cartan)
        return identify(cartan)

    monkeypatch.setattr(T, "identify_cartan", counting)
    counts = []
    for factors in ([name], [name] * k):
        datum = R.make_datum(factors, "sc", 7)
        calls.clear()
        [cl.signature for cl in C.classify(datum, 7)]
        counts.append(len(calls))
    assert counts[1] == k * counts[0]


def class_representatives(rs):
    """One full-rank closed subsystem per W-class: the representatives the
    candidates map to, or the step closure for a type past the default cap."""
    if "E8" in repr(rs):
        return [T.Subsystem(rs, s) for s in step_closure(rs)]
    return list(dict.fromkeys(C.equal_rank_subsystems(rs).values()))


@pytest.mark.parametrize("factors", STEP_TYPES,
                         ids=[",".join(f) for f in STEP_TYPES])
def test_descent_coordinates_match_adjugate(factors):
    # e = c adj(A) / det A for a root c on the base rows A
    rs = R.build_root_system(factors)
    for sub in class_representatives(rs):
        base = sub.base_indices
        adj, d = il.adjugate([rs.roots[i].coeffs for i in base])
        coords = C._base_coordinates(rs, sub)
        assert list(coords) == list(sub.positive_indices)
        found = {tuple(e) for _, e in coords.values()}
        for i, (t, e) in coords.items():
            row = il.vecmat(rs.roots[i].coeffs, adj)
            assert all(x % d == 0 for x in row)
            assert e == [x // d for x in row]
            lower = tuple(x - (s == t) for s, x in enumerate(e))
            assert e[t] > 0 and (not any(lower) or lower in found)


def unpruned_orbit(rs, indices, limit=math.inf):
    """The W-orbit search with every simple reflection at every member."""
    perms = rs.simple_reflection_perms
    return set(R.closure([frozenset(indices)], lambda s: [
        frozenset(perm[i] for i in s) for perm in perms], limit))


# The W-orbits of E8's full-rank closed subsystems hold 132,462 sets, and
# searching them all both ways takes 14 s (22 s for E8 x A4) on a 2-vCPU
# machine; there each class is compared on the levels of its search up to
# 300 members.
# Pruning drops only steps that fix a member, so both searches end at the
# same level with the same sets.
@pytest.mark.parametrize("name", SIMPLE_TYPE_NAMES + ["E8,A4"])
def test_pruned_orbits_match_unpruned(name):
    rs = R.build_root_system(name.split(","))
    limit = 300 if "E8" in name else math.inf
    for sub in class_representatives(rs):
        assert set(C.orbit_of_subset(rs, sub.indices, limit)) == \
            unpruned_orbit(rs, sub.indices, limit)


def test_prime_steps_use_no_inverse_and_no_reflection(monkeypatch):
    # test_prime_steps_match_per_component_search checks what they return
    def refuse(*args):
        raise AssertionError("an inverse or a reflection was built")

    monkeypatch.setattr(il, "adjugate", refuse)
    monkeypatch.setattr(R.RootSystem, "reflection_word", refuse)
    for factors in STEP_TYPES:
        rs = R.build_root_system(factors)
        for sub in class_representatives(rs):
            C._prime_steps(rs, sub)


def test_candidate_cap_binds_during_the_orbit_search(monkeypatch):
    # every subset built is a member keyed within the cap moved by one of
    # the r simple reflections, so at most cap * r are built before the
    # error; searching the whole orbit that crosses the cap builds more
    built = []
    search = C.closure

    def counting(seeds, neighbours, *limit):
        def counted(x):
            out = neighbours(x)
            built.extend(out)
            return out
        return search(seeds, counted, *limit)

    monkeypatch.setattr(C, "closure", counting)
    rs = R.build_root_system(["E7"])
    assert len(C.equal_rank_subsystems(rs, cap=1516)) == 1516
    for cap in (1, 40, 200, 1515):
        built.clear()
        with pytest.raises(R.CapExceeded) as err:
            C.equal_rank_subsystems(rs, cap=cap)
        assert str(err.value) == (f"full-rank closed subsystems exceed cap "
                                  f"{cap} (caps.candidates)")
        assert len(built) <= cap * rs.rank


def test_classify_rationality_makes_no_lattice_product(monkeypatch):
    # each class's membership test sums adj(B) over its chosen nodes
    # alone, with no r x r product: G2 x 4 has 81 classes and makes no
    # Lattice.contains call.  The flags match contains on the scaled
    # representative point, also on a lattice that is no product; B3 sc
    # at q = 7 and E7 sc at q = 31 each have a class with h | q-1 that
    # the lattice test rejects.
    contains = R.Lattice.contains
    data = [(R.make_datum(["G2"] * 4, "sc", 7), 7),
            (R.make_datum(["B3"], "sc", 7), 7),
            (R.make_datum(["E7"], "sc", 31), 31)] + [
        (R.make_datum(["B2", "A1"], [[1, 0, 0], [0, 1, 0], [1, 0, 2]],
                      R.characteristic_of(q)), q) for q in (5, 7, 13, 25)]
    calls = []
    monkeypatch.setattr(R.Lattice, "contains",
                        lambda self, v: calls.append(v) or contains(self, v))
    classes = [C.classify(datum, q) for datum, q in data]
    assert calls == []
    assert len(classes[0]) == 81
    for (datum, q), found in zip(data, classes):
        for cl in found:
            h = dict(c for c in cl.choices if c is not None)
            scaled = [(q - 1) // h[j] if j in h else 0
                      for j in range(datum.root_system.rank)]
            assert cl.rational_over_fq == (
                all((q - 1) % n == 0 for n in h.values())
                and contains(datum.cochar, scaled))
