import functools
import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coendo import coefficients as K
from coendo import coendoscopy as C
from coendo import intlinalg as il
from coendo import oracle as O
from coendo import rootsys as R
from coendo import torus as T
from test_intlinalg import matmul
from test_rootsys import cached_weyl, cochar_data
from test_torus import (coset_partition, generated_subgroup,
                        reflection_closure, subset_stabilizer, weyl_inverse,
                        weyl_matrix, weyl_reflection)


def setup_group(name, lat, q):
    datum = R.make_datum([name], lat, R.characteristic_of(q))
    weyl = R.weyl_generate(datum.root_system)
    poset = C.strata_poset(datum, q, "enumerate")
    return datum, weyl, poset


def tuple_orbits(weyl, poset, si, num_finite, cap=K.DEFAULT_ORBIT_CAP):
    """K._tuple_orbits on the base of stratum si."""
    return K._tuple_orbits(weyl, poset.strata[si].subsystem.base_indices,
                           num_finite, cap)


def orbit_decomposition(weyl, poset, si, num_finite,
                        cap=K.DEFAULT_ORBIT_CAP):
    """(lex-least representative, orbit size) of each C_W(iota)-orbit on
    tuples of W_iota cosets."""
    return [(rep, len(members))
            for rep, members in tuple_orbits(weyl, poset, si, num_finite, cap)]


def test_spec_validation():
    with pytest.raises(ValueError):
        K.CharacterSpec([K.PlaceData("v1", (0,))])
    with pytest.raises(ValueError):
        K.CharacterSpec([K.PlaceData("inf", (0,)), K.PlaceData("inf", (0,))])
    spec = K.CharacterSpec.from_record(
        {"places": [{"tag": "inf", "lambda": [1, 2]},
                    {"tag": "v1", "lambda": [0, 1]}]}, rank=2)
    assert spec.num_places == 2 and spec.infinity.lam == (1, 2)
    with pytest.raises(ValueError):
        K.CharacterSpec.from_record(
            {"places": [{"tag": "inf", "lambda": [1]}]}, rank=2)


def test_central_product_examples():
    sl2 = R.make_datum(["A1"], "sc", 5)
    trivial = K.CharacterSpec.trivial(1, 1)
    assert K.central_product_test(trivial, sl2, 5)
    one = K.CharacterSpec([K.PlaceData("inf", (0,)), K.PlaceData("v1", (1,))])
    assert not K.central_product_test(one, sl2, 5)
    two = K.CharacterSpec([K.PlaceData("inf", (1,)), K.PlaceData("v1", (1,))])
    assert K.central_product_test(two, sl2, 5)


def test_total_character_examples():
    datum, weyl, poset = setup_group("A1", "sc", 5)
    trivial = K.CharacterSpec.trivial(1, 1)
    gamma = (0,)
    assert O.total_character(datum, weyl, trivial, gamma, 0) == (0,)
    spec = K.CharacterSpec([K.PlaceData("inf", (1,)), K.PlaceData("v1", (2,))])
    # identity coset, identity w: -(sum of lambdas)
    assert O.total_character(datum, weyl, spec, gamma, 0) == (-3,)
    # the nontrivial reflection negates the weight
    refl = 1
    assert K.character_action(datum, weyl, (1,))(refl) == (-1,)
    assert O.total_character(datum, weyl, spec, gamma, refl) == (-1,)
    # mixed-inverse flips the infinity sign
    assert O.total_character(datum, weyl, spec, gamma, 0,
                             "mixed-inverse") == (-1,)


@settings(max_examples=60, deadline=None)
@given(cochar_data(), st.data())
def test_act_character_matches_rational_conjugation(datum, data):
    weyl = R.weyl_generate(datum.root_system)
    b = datum.cochar.basis
    adj, d = datum.cochar.adjugate
    assert matmul(adj, b) == tuple(tuple(d * x for x in row)
                                   for row in il.identity(len(b)))
    i = data.draw(st.integers(0, weyl.order - 1))
    lam = data.draw(st.tuples(*[st.integers(-9, 9)] * len(b)))
    got = K.character_action(datum, weyl, lam)(i)
    assert all(type(x) is int for x in got)
    # (w.lambda)(x) = lambda(w^-1 x): the row lambda B^-1 M B, with M the
    # matrix of w^-1 on the coweight space
    m = sympy.Matrix(weyl_matrix(weyl, weyl_inverse(weyl, i)))
    b = sympy.Matrix(b)
    assert list(got) == list(sympy.Matrix([lam]) * b.inv() * m * b)


def test_stratum_sum_examples():
    datum, weyl, poset = setup_group("B2", "sc", 5)
    for i, st in enumerate(poset.strata):
        assert K.stratum_sum((0, 0), poset, i) == st.s_size
    # a character nontrivial on the center kills the minimal stratum
    i0 = 0  # the minimal stratum comes first
    lam = (0, 1)
    center = poset.strata[i0].z_group
    assert any(K._key(lam, center, 4))
    assert K.stratum_sum(lam, poset, i0) == 0
    assert O.direct_stratum_sum(lam, poset, i0) == 0


def test_stratum_sum_randomized_vs_cyclotomic():
    rng = random.Random(13)
    for name, lat, q in [("B2", "sc", 5), ("G2", "ad", 7), ("B3", "sc", 9)]:
        datum, weyl, poset = setup_group(name, lat, q)
        rank = datum.root_system.rank
        for _ in range(40):
            lam = tuple(rng.randint(-3 * q, 3 * q) for _ in range(rank))
            for i in range(len(poset)):
                verdict = O.cyclotomic_sum_check(lam, poset, i)
                assert verdict.passed, verdict.witness


def test_n_minimal_stratum_rule():
    datum, weyl, poset = setup_group("A1", "sc", 5)
    i0 = 0  # the minimal stratum comes first
    gamma = (0,)
    passing = K.CharacterSpec([K.PlaceData("inf", (3,)), K.PlaceData("v1", (1,))])
    assert K.central_product_test(passing, datum, 5)
    assert K.n_coefficient(datum, weyl, poset, i0, gamma, passing) == 2
    failing = K.CharacterSpec([K.PlaceData("inf", (2,)), K.PlaceData("v1", (1,))])
    assert not K.central_product_test(failing, datum, 5)
    assert K.n_coefficient(datum, weyl, poset, i0, gamma, failing) == 0


def test_n_all_trivial_counts_cosets():
    # every summand is 1, so n = |C_W(iota)\\W| * |S_iota|
    datum, weyl, poset = setup_group("G2", "ad", 7)
    trivial = K.CharacterSpec.trivial(2, 1)
    for si in poset.class_representatives():
        cw = subset_stabilizer(weyl, poset.strata[si].subsystem)
        cosets = weyl.order // len(cw)
        got = K.n_coefficient(datum, weyl, poset, si, (0,), trivial)
        assert got == cosets * poset.strata[si].s_size


def test_coset_independence_in_wiota():
    # replacing a coset representative by another member changes nothing
    rng = random.Random(3)
    datum, weyl, poset = setup_group("B2", "sc", 13)
    spec = O.random_spec(2, 1, rng)
    for si in poset.class_representatives():
        wiota = reflection_closure(
            weyl, poset.strata[si].subsystem.base_indices)
        reps = [rep for rep, _ in coset_partition(weyl, wiota)]
        for rep in reps:
            base = K.n_coefficient(datum, weyl, poset, si, (rep,), spec)
            for u in wiota:
                other = weyl.mul(u, rep)
                got = K.n_coefficient(datum, weyl, poset, si,
                                      (other,), spec)
                assert got == base


def test_orbit_decomposition_examples():
    datum, weyl, poset = setup_group("B2", "sc", 5)
    i0 = 0  # the minimal stratum comes first
    # minimal stratum: single coset, single orbit of size 1
    assert orbit_decomposition(weyl, poset, i0, 1) == [((0,), 1)]
    # A1xA1 stratum: two cosets per place, conjugation is trivial on the
    # 2-element quotient, so four singleton orbits over two places
    i1 = [i for i in range(len(poset)) if i != i0][0]
    orbits = orbit_decomposition(weyl, poset, i1, 2)
    assert len(orbits) == 4
    assert all(size == 1 for _, size in orbits)
    sizes = sum(size for _, size in orbit_decomposition(weyl, poset, i1, 1))
    wiota = reflection_closure(weyl, poset.strata[i1].subsystem.base_indices)
    assert sizes == weyl.order // len(wiota)


def test_orbit_cap():
    datum, weyl, poset = setup_group("B2", "sc", 5)
    i1 = 1  # the A1xA1 stratum
    with pytest.raises(R.CapExceeded):
        orbit_decomposition(weyl, poset, i1, 30, cap=1000)


def test_n_table_structure():
    datum, weyl, poset = setup_group("G2", "ad", 7)
    rng = random.Random(5)
    spec = O.random_spec(2, 2, rng)
    table = K.n_table(datum, 7, spec, poset)
    reps = poset.class_representatives()
    per_stratum = {}
    for row in table.rows:
        per_stratum.setdefault(row.stratum_index, 0)
        per_stratum[row.stratum_index] += 1
        assert isinstance(row.n, int)
        assert row.orbit_size >= 1
    assert set(per_stratum) == set(reps)
    # row count per stratum equals the number of orbits
    for si in reps:
        assert per_stratum[si] == len(orbit_decomposition(weyl, poset, si, 2))


def test_n_table_type_a_single_row():
    datum, weyl, poset = setup_group("A2", "sc", 7)
    trivial = K.CharacterSpec.trivial(2, 1)
    table = K.n_table(datum, 7, trivial, poset)
    assert len(table.rows) == 1
    assert table.rows[0].n == 3  # |Z(SL3)(F_7)|


def test_bound_constant_examples():
    sl2 = R.make_datum(["A1"], "sc", 5)
    # single stratum: |W|^2 * |W|^2 * |Z| = 4 * 4 * 2
    assert K.bound_constant(sl2, 2) == 32
    sp4 = R.make_datum(["B2"], "sc", 5)
    # strata: whole group (8*8*2) + long A1xA1 (8*4*4)
    assert K.bound_constant(sp4, 1) == 256


def test_literal_convention_oracle_agreement():
    # both sign conventions agree with their own direct summation
    rng = random.Random(41)
    datum, weyl, poset = setup_group("G2", "ad", 7)
    for _ in range(15):
        spec = O.random_spec(2, 1, rng)
        for si in poset.class_representatives():
            for rep, _ in orbit_decomposition(weyl, poset, si, 1):
                for conv in K.CONVENTIONS:
                    routed = K.n_coefficient(datum, weyl, poset, si, rep,
                                             spec, conv)
                    direct = O.direct_n_coefficient(datum, weyl, poset, si,
                                                    rep, spec, conv)
                    assert routed == direct


def test_uniform_inverse_is_the_convention_fixing_the_center_rule():
    # with lambda_inf = -lambda_v1 the product character is trivial on the
    # center, and only the uniform-inverse reading returns |Z_G(F_q)| on
    # the minimal stratum; the literal reading breaks on a 3-torsion center
    datum, weyl, poset = setup_group("A2", "sc", 7)
    spec = K.CharacterSpec([K.PlaceData("inf", (1, 0)),
                            K.PlaceData("v1", (-1, 0))])
    assert K.central_product_test(spec, datum, 7)
    i0 = 0  # the minimal stratum comes first
    gamma = (0,)
    assert K.n_coefficient(datum, weyl, poset, i0, gamma, spec,
                           "uniform-inverse") == 3
    assert K.n_coefficient(datum, weyl, poset, i0, gamma, spec,
                           "mixed-inverse") == 0


def test_bound_dominates_tables():
    rng = random.Random(17)
    for name, lat, q in [("A1", "sc", 5), ("B2", "sc", 13), ("G2", "ad", 7)]:
        datum, weyl, poset = setup_group(name, lat, q)
        bound = K.bound_constant(datum, 3)
        for _ in range(10):
            spec = O.random_spec(datum.root_system.rank, 2, rng)
            table = K.n_table(datum, q, spec, poset)
            assert table.total_abs <= bound


# Reference versions of the Weyl work in the coefficient layer, written the
# direct way: W_iota closed over the reflections in all its positive roots,
# and C_W(iota) acting by every one of its elements.

def reference_wiota(weyl, sub):
    return reflection_closure(weyl, sub.positive_indices)


def reference_cw(weyl, sub):
    return subset_stabilizer(weyl, sub)


def reference_orbits(weyl, sub, num_finite):
    cosets = coset_partition(weyl, reference_wiota(weyl, sub))
    to_rep = {x: rep for rep, members in cosets for x in members}
    reps = [rep for rep, _ in cosets]
    cw = reference_cw(weyl, sub)
    out = []
    seen = set()
    for tup in itertools.product(reps, repeat=num_finite):
        if tup in seen:
            continue
        orbit = {
            tuple(to_rep[weyl.mul(weyl.mul(weyl_inverse(weyl, c), g), c)]
                  for g in tup)
            for c in cw
        }
        seen |= orbit
        out.append((min(orbit), sorted(orbit)))
    return sorted(out)


EQUIVALENCE_GRID = [
    (["A2"], "sc", 7), (["B2"], "sc", 5), (["B3"], "sc", 5),
    (["C3"], "ad", 9), (["G2"], "ad", 7), (["A2", "A1"], "ad", 7),
]
EQUIVALENCE_IDS = ["A2", "B2", "B3", "C3", "G2", "A2xA1"]


@pytest.mark.parametrize("factors,lat,q", EQUIVALENCE_GRID,
                         ids=EQUIVALENCE_IDS)
def test_coset_rules_match_partitions(factors, lat, q):
    # the representatives from Dyer's criterion, the moves recorded by the
    # walk and the least d x for C_W(iota) against the shortest members of
    # a partition of W into cosets
    datum = R.make_datum(factors, lat, R.characteristic_of(q))
    poset = C.strata_poset(datum, q, "classify")
    weyl = R.weyl_generate(datum.root_system)
    for stratum in poset.strata:
        sub = stratum.subsystem
        base = sub.base_indices
        cosets = coset_partition(weyl, reference_wiota(weyl, sub))
        for _, members in cosets:
            shortest = min(map(weyl.length, members))
            assert [weyl.length(x) for x in members].count(shortest) == 1
        assert weyl.cosets(base) == [rep for rep, _ in cosets]
        assert weyl.cosets(base) is weyl.cosets(base)  # walked once
        to_rep = {x: rep for rep, members in cosets for x in members}
        reps = weyl.cosets(base)
        for j, moves in enumerate(weyl.coset_moves(base)):
            s_j = weyl_reflection(weyl, datum.root_system.simple_indices[j])
            assert [reps[i] for i in moves] == [
                to_rep[weyl.mul(x, s_j)] for x in reps]
        cw = reference_cw(weyl, sub)
        assert weyl.cw_cosets(base) == [
            rep for rep, _ in coset_partition(weyl, cw)]
        assert weyl.stabilizer(base) == [
            c for c in cw if {weyl.perms[c][t] for t in base} == set(base)]


@functools.cache
def class_representatives(name):
    rs = cached_weyl((name,)).rs
    return list(dict.fromkeys(C.equal_rank_subsystems(rs).values()))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["F4", "E6", "B4", "D4", "C3", "G2"]), st.data())
def test_coset_count_times_wiota_order_is_weyl_order(name, data):
    sub = data.draw(st.sampled_from(class_representatives(name)))
    weyl = cached_weyl((name,))
    assert len(weyl.cosets(sub.base_indices)) * sub.weyl_order == weyl.order


@pytest.mark.parametrize("factors,lat,q", EQUIVALENCE_GRID,
                         ids=EQUIVALENCE_IDS)
def test_orbits_and_wiota_match_reference(factors, lat, q):
    datum = R.make_datum(factors, lat, R.characteristic_of(q))
    poset = C.strata_poset(datum, q, "classify")
    weyl = R.weyl_generate(datum.root_system)
    rs = datum.root_system
    simple = [weyl_reflection(weyl, s) for s in rs.simple_indices]
    for si in range(len(poset)):
        sub = poset.strata[si].subsystem
        base = sub.base_indices
        assert reflection_closure(weyl, base) == reference_wiota(weyl, sub)
        cw = reference_cw(weyl, sub)
        # the generators that _tuple_orbits follows, each multiplied out
        # from its word: the reflections in the base, and d^-1 for d in
        # Stab(Delta_iota) other than 1
        words = [rs.reflection_word(t) for t in base] + [
            weyl.word(d)[::-1] for d in weyl.stabilizer(base)[1:]]
        gens = [functools.reduce(weyl.mul, [simple[j] for j in word], 0)
                for word in words]
        assert generated_subgroup(weyl, gens) == cw
        for nf in (0, 1, 2, 3) if factors in (["G2"], ["A2"]) else (1, 2):
            ref = reference_orbits(weyl, sub, nf)
            orbits = tuple_orbits(weyl, poset, si, nf)
            assert orbits == ref
            assert sum(len(members) for _, members in orbits) == len(
                weyl.cosets(base)) ** nf


@pytest.mark.parametrize("name", ["C3", "B4"])
def test_orbits_match_reference_on_every_class(name):
    # Stab(Delta_iota) of A1^3 in C3 and of A1^4 in B4 has elements of
    # order 3 and 4; no stratum of EQUIVALENCE_GRID has one of order > 2
    weyl = cached_weyl((name,))
    for sub in class_representatives(name):
        for nf in (1, 2):
            assert K._tuple_orbits(weyl, sub.base_indices, nf,
                                   K.DEFAULT_ORBIT_CAP) == reference_orbits(
                weyl, sub, nf)


@pytest.mark.parametrize("factors,lat,q", EQUIVALENCE_GRID,
                         ids=EQUIVALENCE_IDS)
def test_n_table_rows_match_per_row_routes(factors, lat, q):
    datum = R.make_datum(factors, lat, R.characteristic_of(q))
    poset = C.strata_poset(datum, q, "enumerate")
    classified = C.strata_poset(datum, q, "classify")
    weyl = R.weyl_generate(datum.root_system)
    rng = random.Random(q * 31 + len(factors))
    rank = datum.root_system.rank
    # nf = 0 is a one-place curve; three finite places on the small types
    small = R.weyl_order(datum.root_system) <= 12
    for nf in (0, 1, 2, 3) if small else (0, 1, 2):
        spec = O.random_spec(rank, nf, rng, bound=q)
        for conv in K.CONVENTIONS:
            table = K.n_table(datum, q, spec, poset, conv)
            assert table.to_records() == K.n_table(
                datum, q, spec, classified, conv).to_records()
            for row in table.rows:
                si = row.stratum_index
                args = (datum, weyl, poset, si, row.orbit_rep, spec, conv)
                assert row.n == K.n_coefficient(*args)
                assert row.n == O.direct_n_coefficient(*args)
                members = dict(tuple_orbits(weyl, poset, si, nf))[
                    row.orbit_rep]
                values = [K.n_coefficient(datum, weyl, poset, si, t,
                                          spec, conv) for t in members]
                assert row.n_sum == sum(values)
                assert row.n_abs_sum == sum(map(abs, values))


def test_n_table_enumerates_w_once_and_walks_each_base_once(monkeypatch):
    # each table enumerates W once, and walks the cosets of each class
    # representative's base once (R.closure also runs once inside
    # weyl_generate)
    groups, walks = [], []
    weyl_generate, closure = R.weyl_generate, R.closure

    def counted_weyl(*args):
        groups.append(weyl_generate(*args))
        return groups[-1]

    def counted_closure(*args):
        walks.append(args)
        return closure(*args)

    monkeypatch.setattr(K, "weyl_generate", counted_weyl)
    monkeypatch.setattr(R, "closure", counted_closure)
    rng = random.Random(8)
    for name, lat, q, nf in [("G2", "ad", 7, 2), ("B3", "sc", 5, 1),
                             ("C3", "ad", 9, 2)]:
        datum = R.make_datum([name], lat, R.characteristic_of(q))
        poset = C.strata_poset(datum, q, "classify")
        bases = {poset.strata[si].subsystem.base_indices
                 for si in poset.class_representatives()}
        spec = O.random_spec(datum.root_system.rank, nf, rng)
        for _ in range(2):
            groups.clear()
            walks.clear()
            K.n_table(datum, q, spec, poset)
            assert len(groups) == 1
            assert len(walks) == 1 + len(bases)
            assert set(groups[0]._cosets) == bases


@pytest.mark.parametrize("lattice", ["sc", "ad"])
@pytest.mark.parametrize("factors", [
    ["A2"], ["B2"], ["G2"], ["B3"], ["C3"], ["D4"], ["F4"], ["A2", "A1"],
    ["A1", "A1", "A1"]], ids=lambda f: ",".join(f))
def test_bound_constant_sums_one_term_per_class(factors, lattice):
    datum = R.make_datum(factors, lattice, 7)
    rs = datum.root_system
    w_order = R.weyl_order(rs)
    seen = set()
    total = 0
    for sub in C.equal_rank_subsystems(rs):
        canon = C.canonical_subset(rs, sub.indices)
        if canon not in seen:
            seen.add(canon)
            total += (w_order * sub.weyl_order) ** 3 \
                * R.geometric_center_order(datum, sub)
    assert K.bound_constant(datum, 3) == total


@functools.cache
def keyed_poset(factors, lat, q, route):
    datum = R.make_datum(list(factors), lat, R.characteristic_of(q))
    return C.strata_poset(datum, q, route)


def reference_row_value(poset, si, terms, finite):
    """Sum over the terms t of the stratum sums of finite + t, one
    triviality test per (term, stratum below) pair."""
    m = poset.q - 1
    total = 0
    for t in terms:
        lam = [a + b for a, b in zip(finite, t)]
        for j in poset.below(si):
            z = poset.strata[j].z_group
            if all(sum(a * b for a, b in zip(lam, g)) % m == 0
                   for g in z.generators):
                total += poset.mobius_table[(j, si)] * z.order
    return total


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(("B2",), "sc", 5), (("G2",), "ad", 7),
                        (("A2", "A1"), "ad", 7)]),
       st.sampled_from(["enumerate", "classify"]), st.data())
def test_keyed_row_value_matches_per_pair_loop(group, route, data):
    poset = keyed_poset(*group, route)
    rank = poset.datum.root_system.rank
    si = data.draw(st.integers(0, len(poset) - 1))
    vector = st.tuples(*[st.integers(-20, 20)] * rank)
    terms = data.draw(st.lists(vector, min_size=1, max_size=12))
    finite = data.draw(vector)
    hists = K._histograms(poset, si, terms)
    assert K._row_value(hists, finite, poset.q - 1) == \
        reference_row_value(poset, si, terms, finite)
