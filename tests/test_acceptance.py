"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every tolerance here is exact (integer or rational equality);
the only non-exact budgets are the stated wall-clock limits.
"""

import random
import time
from fractions import Fraction

import pytest

from coendo import coendoscopy as C
from coendo import coefficients as K
from coendo import intlinalg as il
from coendo import oracle as O
from coendo import predictions as P
from coendo import rootsys as R
from test_rootsys import (coroot_lattice, highest_root_coefficients,
                          lattice_quotient)

ALL_SIMPLE = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(3, 9)]
    + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def report(num, ok, text):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, text


def test_criterion_1_highest_root_table():
    """Highest-root coefficient multisets match the classification table."""
    expected = {
        "A": lambda r: sorted([1] * r),
        "B": lambda r: sorted([1] + [2] * (r - 1)),
        "C": lambda r: sorted([2] * (r - 1) + [1]),
        "D": lambda r: sorted([1, 1, 1] + [2] * (r - 3)),
        "E": lambda r: {6: [1, 1, 2, 2, 2, 3], 7: [1, 2, 2, 2, 3, 3, 4],
                        8: [2, 2, 3, 3, 4, 4, 5, 6]}[r],
        "F": lambda r: [2, 2, 3, 4],
        "G": lambda r: [2, 3],
    }
    t0 = time.time()
    bad = []
    for name in ALL_SIMPLE:
        rs = R.build_root_system([name])
        t = rs.simple_factors[0]
        got = sorted(highest_root_coefficients(rs, 0))
        if got != expected[t.family](t.rank):
            bad.append((name, got))
    elapsed = time.time() - t0
    report(1, not bad and elapsed < 1.0,
           f"{len(ALL_SIMPLE)} types, {elapsed:.2f}s" +
           (f", mismatches: {bad}" if bad else ""))


def test_criterion_2_fundamental_group_table():
    """Coweight/coroot quotients match the lattice-structure table."""
    t0 = time.time()
    bad = []
    for name in ALL_SIMPLE:
        rs = R.build_root_system([name])
        t = rs.simple_factors[0]
        got = lattice_quotient(
            R.Lattice("coweight", il.identity(rs.rank)),
            coroot_lattice(rs)).invariants
        if t.family == "A":
            want = (t.rank + 1,) if t.rank else ()
        elif t.family in ("B", "C"):
            want = (2,)
        elif t.family == "D":
            want = (2, 2) if t.rank % 2 == 0 else (4,)
        elif t.family == "E":
            want = {6: (3,), 7: (2,), 8: ()}[t.rank]
        else:
            want = ()
        if got != want:
            bad.append((name, got, want))
    elapsed = time.time() - t0
    report(2, not bad and elapsed < 1.0,
           f"{len(ALL_SIMPLE)} types, {elapsed:.2f}s" +
           (f", mismatches: {bad}" if bad else ""))


GRID_POSETS = {}


def _grid():
    if GRID_POSETS:
        return GRID_POSETS
    for name in O.GRID_TYPES:
        t = R.SimpleType.parse(name)
        for q in O.DEFAULT_QS:
            if O.admissible_q(t, q):
                datum = R.make_datum([name], "sc", R.characteristic_of(q))
                poset = C.strata_poset(datum, q, "enumerate")
                GRID_POSETS[(name, q)] = (datum, poset)
    return GRID_POSETS


def test_criterion_3_classification_cross_validation():
    """Brute strata + node-deletion checks across the admissible grid,
    with both routes producing identical posets; < 5 minutes total."""
    t0 = time.time()
    failures = []
    grid = _grid()
    for (name, q), (datum, poset) in grid.items():
        v = O.brute_strata_check(datum, q)
        if not v.passed:
            failures.append((name, q, "brute", v.witness))
        pc = C.strata_poset(datum, q, "classify")
        same = (
            [(s.key, s.s_size, s.z_order) for s in poset.strata]
            == [(s.key, s.s_size, s.z_order) for s in pc.strata]
            and poset.mobius_table == pc.mobius_table
        )
        if not same:
            failures.append((name, q, "routes", None))
    for name in O.GRID_TYPES:
        v = O.bds_cross_check(name)
        if not v.passed:
            failures.append((name, None, "bds", v.witness))
    elapsed = time.time() - t0
    report(3, not failures and elapsed < 300,
           f"{len(grid)} grid instances + {len(O.GRID_TYPES)} deletion "
           f"checks, {elapsed:.1f}s" +
           (f", failures: {failures[:3]}" if failures else ""))


def test_criterion_4_reeder_partition():
    """Partition identity Z_i(F_q) = disjoint union of S_j, exactly."""
    failures = []
    for (name, q), (datum, poset) in _grid().items():
        v = C.reeder_partition_check(poset)
        if not v.passed:
            failures.append((name, q, v.witness))
    report(4, not failures,
           f"identity exact on {len(_grid())} enumerated posets" +
           (f", failures: {failures}" if failures else ""))


COEFF_GROUPS = [("A1", "sc"), ("A2", "sc"), ("B2", "sc"), ("G2", "ad")]
COEFF_QS = (5, 7, 13)


def test_criterion_5_coefficient_correctness():
    """Möbius-route coefficients equal direct cyclotomic sums, >= 100
    randomized character specs per (group, q); all integers."""
    rng = random.Random(2024)
    checked = 0
    failures = []
    for name, lat in COEFF_GROUPS:
        for q in COEFF_QS:
            datum = R.make_datum([name], lat, R.characteristic_of(q))
            weyl = R.weyl_generate(datum.root_system)
            poset = C.strata_poset(datum, q, "enumerate")
            rank = datum.root_system.rank
            for _ in range(100):
                spec = O.random_spec(rank, rng.randint(1, 2), rng,
                                     bound=3 * q)
                for si in poset.class_representatives():
                    base = poset.strata[si].subsystem.base_indices
                    for rep, _members in K._tuple_orbits(
                            weyl, base, len(spec.finite), K.DEFAULT_ORBIT_CAP):
                        routed = K.n_coefficient(datum, weyl, poset, si, rep,
                                                 spec)
                        direct = O.direct_n_coefficient(
                            datum, weyl, poset, si, rep, spec)
                        checked += 1
                        if direct is None or routed != direct or \
                                not isinstance(routed, int):
                            failures.append((name, q, si, rep,
                                             routed, direct))
    report(5, not failures,
           f"{checked} coefficient evaluations verified" +
           (f", failures: {failures[:3]}" if failures else ""))


def test_criterion_6_minimal_stratum_value():
    """Central triviality forces the minimal-stratum coefficient to equal
    the center order; its failure forces zero."""
    rng = random.Random(77)
    checked = 0
    failures = []
    for name, lat in COEFF_GROUPS:
        for q in COEFF_QS:
            datum = R.make_datum([name], lat, R.characteristic_of(q))
            weyl = R.weyl_generate(datum.root_system)
            poset = C.strata_poset(datum, q, "classify")
            i0 = 0  # the minimal stratum comes first
            center = poset.strata[i0].z_order
            rank = datum.root_system.rank
            gamma = ()
            spec0 = K.CharacterSpec([K.PlaceData("inf", (0,) * rank)])
            assert K.n_coefficient(datum, weyl, poset, i0, gamma,
                                   spec0) == center
            for _ in range(60):
                nf = rng.randint(1, 2)
                spec = O.random_spec(rank, nf, rng, bound=2 * q)
                n = K.n_coefficient(datum, weyl, poset, i0, (0,) * nf, spec)
                want = center if K.central_product_test(spec, datum, q) else 0
                checked += 1
                if n != want:
                    failures.append((name, q, n, want))
    report(6, not failures, f"{checked} minimal-stratum checks" +
           (f", failures: {failures[:3]}" if failures else ""))


def test_criterion_7_bound():
    """Sum of |n| over all rows stays below the explicit constant."""
    rng = random.Random(99)
    checked = 0
    failures = []
    for name, lat in COEFF_GROUPS:
        for q in COEFF_QS:
            datum = R.make_datum([name], lat, R.characteristic_of(q))
            poset = C.strata_poset(datum, q, "classify")
            for nf in (1, 2):
                bound = K.bound_constant(datum, nf + 1)
                for _ in range(20):
                    spec = O.random_spec(datum.root_system.rank, nf, rng,
                                         bound=2 * q)
                    table = K.n_table(datum, q, spec, poset)
                    checked += 1
                    if table.total_abs > bound:
                        failures.append((name, q, table.total_abs, bound))
    report(7, not failures, f"{checked} tables bounded" +
           (f", failures: {failures[:3]}" if failures else ""))


def test_criterion_8_field_extension():
    """Coefficient tables are invariant under q -> q^n on the manifest."""
    failures = []
    count = 0
    for inst in O.FIELD_EXTENSION_INSTANCES:
        for n in (2, 3):
            datum = R.make_datum(inst["factors"], inst["lattice"],
                                 R.characteristic_of(inst["q"]))
            rng = random.Random(inst["seed"] + n)
            spec = O.random_spec(datum.root_system.rank, 2, rng)
            v = O.field_extension_check(datum, spec, inst["q"], n)
            count += 1
            if not v.passed:
                failures.append((inst, n, v.witness))
    report(8, not failures, f"{count} extension instances (n in {{2,3}})" +
           (f", failures: {failures[:2]}" if failures else ""))


def test_criterion_9_dimension_identities():
    """Exponent and dimension identities over 1000 randomized inputs."""
    rng = random.Random(4242)
    ranks = {"A": range(1, 9), "B": range(2, 9), "C": range(3, 9),
             "D": range(4, 9), "E": (6, 7, 8), "F": (4,), "G": (2,)}
    cache = {}
    failures = 0
    for _ in range(1000):
        fam = rng.choice(list(ranks))
        rank = rng.choice(list(ranks[fam]))
        key = f"{fam}{rank}"
        if key not in cache:
            rs = R.build_root_system([key])
            cache[key] = (rs.dim_g, rs.rank)
        dim_g, r = cache[key]
        genus = rng.randint(0, 5)
        rest = [rng.randint(1, 3) for _ in range(rng.randint(0, 3))]
        degrees = [1] + rest if sum(rest) <= 5 else [1]
        curve = P.CurveData(genus, degrees)
        dim_m, dim_r, dim_a = P.hitchin_dims(dim_g, r, curve)
        if P.exponent_n(dim_g, r, curve) != Fraction(dim_m - dim_r, 2):
            failures += 1
        if dim_m != 2 * dim_a - curve.deg_s * r:
            failures += 1
    report(9, failures == 0, "1000 randomized (type, genus, degree) inputs")


def test_criterion_10_weyl_infrastructure():
    """|W| by enumeration equals the degree product for every type with
    |W| <= 51840; exponent sums match half the root count everywhere."""
    failures = []
    enumerated = 0
    for name in ALL_SIMPLE:
        rs = R.build_root_system([name])
        m = R.exponents(rs, 0)
        if sum(m) * 2 != rs.num_roots:
            failures.append((name, "exponent sum"))
        order = R.weyl_order(rs)
        if order <= 51840:
            group = R.weyl_generate(rs)
            enumerated += 1
            if group.order != order:
                failures.append((name, group.order, order))
    report(10, not failures,
           f"{enumerated} full enumerations up to order 51840, exponent "
           f"sums exact for all {len(ALL_SIMPLE)} types" +
           (f", failures: {failures}" if failures else ""))
