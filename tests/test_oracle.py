import json
import random
import sys
from pathlib import Path

import pytest

from coendo import coendoscopy as C
from coendo import coefficients as K
from coendo import oracle as O
from coendo import rootsys as R
from coendo import torus as T

VERIFY_MANIFEST = (Path(__file__).resolve().parents[1] / "perfbench"
                   / "verify_manifest.json")


def test_cyclotomic_polynomials():
    assert O.cyclotomic_polynomial(1) == [-1, 1]
    assert O.cyclotomic_polynomial(2) == [1, 1]
    assert O.cyclotomic_polynomial(4) == [1, 0, 1]
    assert O.cyclotomic_polynomial(6) == [1, -1, 1]
    assert O.cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    # degree is Euler phi
    assert len(O.cyclotomic_polynomial(24)) - 1 == 8


def test_exponent_sum_integer_detection():
    # full orbit of 4th roots of unity sums to zero
    assert O.exponent_sum_as_integer({0: 1, 1: 1, 2: 1, 3: 1}, 4) == 0
    # 1 + zeta_4^2 = 0
    assert O.exponent_sum_as_integer({0: 1, 2: 1}, 4) == 0
    assert O.exponent_sum_as_integer({0: 5}, 4) == 5
    # 1 + zeta_4 is not an integer
    assert O.exponent_sum_as_integer({0: 1, 1: 1}, 4) is None
    # zeta_6 + zeta_6^-1 = 1
    assert O.exponent_sum_as_integer({1: 1, 5: 1}, 6) == 1


def test_direct_stratum_sum_matches_sizes():
    datum = R.make_datum(["G2"], "ad", 7)
    poset = C.strata_poset(datum, 7, "enumerate")
    for i, st in enumerate(poset.strata):
        assert O.direct_stratum_sum((0, 0), poset, i) == st.s_size


def test_brute_strata_check_grid():
    for name, lat, q in [("A1", "sc", 5), ("A2", "sc", 7), ("B2", "sc", 5),
                         ("B2", "ad", 5), ("G2", "ad", 7), ("B3", "sc", 9)]:
        datum = R.make_datum([name], lat, R.characteristic_of(q))
        verdict = O.brute_strata_check(datum, q)
        assert verdict.passed, (verdict.instance, verdict.witness)


COMPOSITE_Q_GRID = pytest.mark.parametrize(
    "name,q", [("B2", 31), ("G2", 31), ("A2", 31), ("A3", 61), ("D4", 11),
               ("C3", 19)])


@COMPOSITE_Q_GRID
@pytest.mark.parametrize("lat", ["sc", "ad"])
def test_brute_strata_check_composite_q_minus_1(name, q, lat):
    # q-1 has two or three prime factors, so the sweep joins its parts and
    # point_from_index decodes by Chinese remainders; checks (a)-(d) all run
    datum = R.make_datum([name], lat, R.characteristic_of(q))
    verdict = O.brute_strata_check(datum, q)
    assert verdict.passed, (verdict.instance, verdict.witness)


@COMPOSITE_Q_GRID
@pytest.mark.parametrize("lat", ["sc", "ad"])
def test_every_stratum_closed_and_full_rank(name, q, lat):
    # check (c) tests these once per W-class; here every stratum is tested
    datum = R.make_datum([name], lat, R.characteristic_of(q))
    poset = C.strata_poset(datum, q, "enumerate")
    for st in poset.strata:
        sub = T.Subsystem(datum.root_system, st.subsystem.indices)
        assert sub.is_closed() and sub.rank == datum.root_system.rank, st


def count_calls(monkeypatch, owner, name, calls):
    """Replace owner.name by a wrapper that appends its first argument to
    ``calls`` before calling the original."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def capture_poset(monkeypatch):
    """Record the posets the oracle layer builds, in a returned list."""
    posets = []
    build = O.strata_poset

    def recording(*args, **kwargs):
        posets.append(build(*args, **kwargs))
        return posets[-1]

    monkeypatch.setattr(O, "strata_poset", recording)
    return posets


def test_brute_strata_tests_closedness_once_per_class(monkeypatch):
    # F4 sc at q=25: 44 strata in 5 W-classes
    closed, centralizers = [], []
    count_calls(monkeypatch, T.Subsystem, "is_closed", closed)
    count_calls(monkeypatch, O, "centralizer_subsystem", centralizers)
    posets = capture_poset(monkeypatch)
    datum = R.make_datum(["F4"], "sc", 5)
    assert O.brute_strata_check(datum, 25).passed
    poset = posets[0]
    assert (len(poset.strata), len({st.rep for st in poset.strata})) == (44, 5)
    assert len(closed) == 5 and len(centralizers) == 44
    assert len({sub.indices for sub in closed}) == 5


def test_bds_cross_types_one_stratum_per_class(monkeypatch):
    # signature is recomputed on every access, so the distinct subsystems
    # typed count the classes typed: only the 3 maximal ones of F4
    typed = []
    signature = T.Subsystem.signature.func
    monkeypatch.setattr(T.Subsystem, "signature", property(
        lambda sub: typed.append(sub) or signature(sub)))
    posets = capture_poset(monkeypatch)
    assert O.bds_cross_check("F4", 7).passed
    strata = {id(st.subsystem) for st in posets[0].strata}
    assert len(strata) == 32
    assert len({id(sub) for sub in typed if id(sub) in strata}) == 3


def test_cyclotomic_grid_decodes_each_point_once(monkeypatch):
    decoded = []
    count_calls(monkeypatch, O, "point_from_index", decoded)
    posets = capture_poset(monkeypatch)
    assert O.instance_check(
        {"check": "cyclotomic_grid", "factors": ["B2"], "lattice": "sc",
         "q": 5, "samples": 7, "seed": 11})().passed
    assert len(decoded) == sum(len(st.s_points) for st in posets[0].strata)


def refuse_weyl(monkeypatch):
    """Make weyl_generate raise in every coendo module that binds it, and
    return the names of those modules."""
    def refuse(*args, **kwargs):
        raise AssertionError("W was enumerated")

    bound = [name for name, module in sorted(sys.modules.items())
             if name.split(".")[0] == "coendo"
             and getattr(module, "weyl_generate", None) is R.weyl_generate]
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "weyl_generate", refuse)
    return bound


def test_strata_oracles_never_enumerate_weyl(monkeypatch):
    # strata, Reeder, classify and stratum sums never enumerate W; only
    # the coefficient tables hold a binding of weyl_generate
    assert refuse_weyl(monkeypatch) == ["coendo.coefficients",
                                        "coendo.rootsys"]
    datum = R.make_datum(["B2"], "sc", 5)
    assert O.brute_strata_check(datum, 5).passed
    assert O.bds_cross_check("G2", 7).passed
    assert O.instance_check(
        {"check": "cyclotomic_grid", "factors": ["G2"], "lattice": "ad",
         "q": 7, "samples": 5, "seed": 12})().passed


def test_bds_cross_examples():
    assert O.bds_cross_check("B2", 5).details["types"] == ["A1xA1"]
    assert O.bds_cross_check("A3", 5).details["types"] == []
    v = O.bds_cross_check("F4", 13)
    assert v.passed and v.details["types"] == ["A1xC3", "A2xA2", "B4"]


def test_admissible_q():
    t = R.SimpleType.parse("G2")
    assert [q for q in O.DEFAULT_QS if O.admissible_q(t, q)] == [7, 13, 25]
    t = R.SimpleType.parse("A2")
    # q = 9 has characteristic 3, which divides n = 3
    assert [q for q in O.DEFAULT_QS if O.admissible_q(t, q)] == [5, 7, 13, 25]
    t = R.SimpleType.parse("C3")
    assert [q for q in O.DEFAULT_QS if O.admissible_q(t, q)] == [9, 25]


def test_centers_stable():
    assert O.centers_stable(R.make_datum(["B2"], "sc", 5), 5)
    assert not O.centers_stable(R.make_datum(["A2"], "sc", 5), 5)
    assert O.centers_stable(R.make_datum(["A2"], "sc", 7), 7)


def test_field_extension_simple():
    datum = R.make_datum(["A1"], "sc", 5)
    spec = K.CharacterSpec([K.PlaceData("inf", (3,)), K.PlaceData("v1", (2,))])
    v = O.field_extension_check(datum, spec, 5, 2)
    assert v.passed, v.witness
    v3 = O.field_extension_check(datum, spec, 5, 3)
    assert v3.passed


def test_field_extension_precondition_reported():
    datum = R.make_datum(["A2"], "sc", 5)  # center not rational at q=5
    spec = K.CharacterSpec.trivial(2, 1)
    v = O.field_extension_check(datum, spec, 5, 2)
    assert not v.passed
    assert "precondition" in str(v.witness)


def test_field_extension_randomized():
    rng = random.Random(31)
    for name, lat, q in [("B2", "sc", 5), ("G2", "ad", 7)]:
        datum = R.make_datum([name], lat, R.characteristic_of(q))
        for _ in range(5):
            spec = O.random_spec(2, rng.randint(1, 2), rng)
            v = O.field_extension_check(datum, spec, q, 2)
            assert v.passed, v.witness


@pytest.mark.parametrize("name,q", [("A1", 101), ("B2", 1009)])
def test_field_extension_at_large_prime(name, q):
    datum = R.make_datum([name], "sc", q)
    spec = O.random_spec(datum.root_system.rank, 2, random.Random(q))
    v = O.field_extension_check(datum, spec, q, 2)
    assert v.passed, v.witness
    assert v.details["rows"] > 0


# (Spin5 x SL2)/mu2: X_* has basis columns (1,0,1), (0,1,0), (0,0,2) in
# fundamental-coweight coordinates, a lattice that is not a product of
# lattices of the two factors
DIAGONAL_B2_A1 = [[1, 0, 0], [0, 1, 0], [1, 0, 2]]


@pytest.mark.parametrize("q", [5, 7, 9, 13, 25])
def test_strata_oracles_on_diagonal_lattice(q):
    datum = R.make_datum(["B2", "A1"], DIAGONAL_B2_A1, R.characteristic_of(q))
    assert R.pi1_order(datum) == 2
    assert datum.cochar.contains((1, 0, 1))
    assert not datum.cochar.contains((1, 0, 0))
    reeder = C.reeder_partition_check(C.strata_poset(datum, q, "enumerate"))
    assert reeder.passed, reeder.witness
    verdict = O.brute_strata_check(datum, q)
    assert verdict.passed, (verdict.instance, verdict.witness)


def test_verdict_witness_on_failure():
    # failing verdicts must carry a reproducible witness
    datum = R.make_datum(["A2"], "sc", 5)
    spec = K.CharacterSpec.trivial(2, 1)
    v = O.field_extension_check(datum, spec, 5, 2)
    assert v.witness is not None
    rec = v.to_record()
    assert rec["passed"] is False and rec["witness"]


def test_manifest_deterministic_and_passing():
    m1 = O.default_manifest()
    m2 = O.default_manifest()
    assert m1 == m2
    # spot-run a slice to keep this test fast; the full grid runs in
    # test_acceptance
    verdicts = O.run_manifest(m1[:6])
    assert all(v.passed for v in verdicts)


def test_builtin_manifests_pass_validation():
    frozen = json.loads(VERIFY_MANIFEST.read_text())
    for inst in O.default_manifest() + frozen:
        assert callable(O.instance_check(inst)), inst


def test_run_instance_unknown_check():
    with pytest.raises(ValueError):
        O.instance_check({"check": "nope"})


def test_field_extension_enumerates_candidates_once(monkeypatch):
    # the candidates are q-independent: the precondition and both
    # classify-route posets share one enumeration
    calls = []
    enumerate_ = C.equal_rank_subsystems

    def counting(rs, *cap):
        calls.append(rs)
        return enumerate_(rs, *cap)

    monkeypatch.setattr(C, "equal_rank_subsystems", counting)
    monkeypatch.setattr(O, "equal_rank_subsystems", counting)
    datum = R.make_datum(["G2"], "ad", 7)
    spec = O.random_spec(2, 2, random.Random(107))
    assert O.field_extension_check(datum, spec, 7, 2).passed
    assert len(calls) == 1
