"""Brute-force verifiers, algorithmically independent of the main routes.

Character sums are recomputed in the ring Z[x]/(Phi_m(x)) by reducing the
exponent-multiset polynomial modulo the m-th cyclotomic polynomial; since
the power basis of Z[zeta_m] is integral, a sum is an integer exactly when
the reduction is constant, so a matching verdict is an instance-level
proof.  Strata checks re-derive everything from raw point enumeration.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Callable

from .rootsys import (
    DEFAULT_WEYL_CAP,
    GroupDatum,
    SimpleType,
    WeylGroup,
    bad_characteristic_reasons,
    characteristic_of,
    geometric_center_order,
    make_datum,
)
from .torus import (
    DEFAULT_POINT_CAP,
    centralizer_subsystem,
    point_from_index,
    subgroup_points,
)
from .coendoscopy import (
    StrataPoset,
    Verdict,
    borel_de_siebenthal,
    canonical_subset,
    car_divisor,
    classify,
    equal_rank_subsystems,
    reeder_partition_check,
    strata_poset,
)
from .coefficients import (
    CONVENTIONS,
    CharacterSpec,
    PlaceData,
    character_action,
    n_table,
    stratum_sum,
)

DEFAULT_QS = (5, 7, 9, 13, 25)


# ---------------------------------------------------------------------------
# exact cyclotomic arithmetic


@functools.cache
def _cyclotomic(n: int) -> tuple[int, ...]:
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, _cyclotomic(d))
    return tuple(poly)


def cyclotomic_polynomial(n: int) -> list[int]:
    """Coefficients (ascending) of Phi_n, by exact division of x^n - 1."""
    return list(_cyclotomic(n))


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[k] = q
        for i, d in enumerate(den):
            num[k + i] -= q * d
    assert not any(num)
    return out


def _poly_mod(poly: list[int], mod: list[int]) -> list[int]:
    out = list(poly)
    deg = len(mod) - 1
    for k in range(len(out) - 1, deg - 1, -1):
        c = out[k]
        if c:
            for i, d in enumerate(mod):
                out[k - deg + i] -= c * d
    while len(out) > deg:
        out.pop()
    return out


def exponent_sum_as_integer(exponents: dict[int, int], m: int) -> int | None:
    """Value of sum over e of count_e zeta_m^e, when it is an integer.

    Reduces the polynomial sum count_e x^e modulo Phi_m; in the power basis
    of Z[zeta_m] the value is integral iff the remainder is constant.
    Returns None otherwise.
    """
    poly = [0] * m
    for e, c in exponents.items():
        poly[e % m] += c
    poly = _poly_mod(poly, cyclotomic_polynomial(m))
    if any(poly[1:]):
        return None
    return poly[0] if poly else 0


# ---------------------------------------------------------------------------
# direct summation routes


def _stratum_residues(poset: StrataPoset, stratum_index: int):
    """Residue vectors of the points of an enumerate-route stratum."""
    st = poset.strata[stratum_index]
    if st.s_points is None:
        raise ValueError("stratum has no explicit point list (classify route)")
    r = poset.datum.root_system.rank
    return [point_from_index(poset.q, r, idx) for idx in st.s_points]


def _exponent_sum(lam, points, m: int):
    """sum over the residue vectors v of zeta_m^<lam, v>, when an integer."""
    hist: dict[int, int] = {}
    for v in points:
        e = sum(a * b for a, b in zip(lam, v)) % m
        hist[e] = hist.get(e, 0) + 1
    return exponent_sum_as_integer(hist, m)


def direct_stratum_sum(lam, poset: StrataPoset, stratum_index: int):
    """Character sum over the listed points of S_iota, cyclotomic route."""
    return _exponent_sum(lam, _stratum_residues(poset, stratum_index),
                         poset.q - 1)


def cyclotomic_sum_check(lam, poset: StrataPoset, stratum_index: int) -> Verdict:
    """Möbius-route stratum sum against the direct cyclotomic evaluation."""
    return _sum_verdict(lam, poset, stratum_index,
                        _stratum_residues(poset, stratum_index))


def _sum_verdict(lam, poset: StrataPoset, stratum_index: int,
                 points) -> Verdict:
    """cyclotomic_sum_check, given the stratum's decoded points."""
    inst = (
        f"{poset.datum.root_system}@q={poset.q}/"
        f"{poset.strata[stratum_index].signature}"
    )
    direct = _exponent_sum(lam, points, poset.q - 1)
    routed = stratum_sum(lam, poset, stratum_index)
    if direct is None:
        return Verdict("cyclotomic_sum", inst, False,
                       witness={"lam": list(lam), "reason": "sum not integral"})
    ok = direct == routed
    return Verdict(
        "cyclotomic_sum", inst, ok,
        witness=None if ok else {"lam": list(lam), "direct": direct,
                                 "mobius": routed},
        details={"value": routed},
    )


def total_character(
    datum: GroupDatum,
    weyl: WeylGroup,
    spec: CharacterSpec,
    gamma: tuple[int, ...],
    w: int,
    convention: str = "uniform-inverse",
):
    """The combined character evaluated against torsion points; ``gamma``
    holds one minimal-length W_iota coset representative per finite place.

    uniform-inverse:  Lambda = -sum_v gamma_v.lambda_v - w.lambda_inf
    mixed-inverse:      Lambda = -sum_v gamma_v.lambda_v + w.lambda_inf
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    rank = datum.root_system.rank
    lam = [0] * rank
    for g, place in zip(gamma, spec.finite):
        moved = character_action(datum, weyl, place.lam)(g)
        lam = [a - b for a, b in zip(lam, moved)]
    inf = character_action(datum, weyl, spec.infinity.lam)(w)
    if convention == "uniform-inverse":
        lam = [a - b for a, b in zip(lam, inf)]
    else:
        lam = [a + b for a, b in zip(lam, inf)]
    return tuple(lam)


def direct_n_coefficient(
    datum: GroupDatum,
    weyl: WeylGroup,
    poset: StrataPoset,
    stratum_index: int,
    gamma: tuple[int, ...],
    spec: CharacterSpec,
    convention: str = "uniform-inverse",
) -> int | None:
    """The row coefficient by explicit point summation (no Möbius step)."""
    m = poset.q - 1
    hist: dict[int, int] = {}
    points = _stratum_residues(poset, stratum_index)
    base = poset.strata[stratum_index].subsystem.base_indices
    for w in weyl.cw_cosets(base):
        lam = total_character(datum, weyl, spec, gamma, w, convention)
        for v in points:
            e = sum(a * b for a, b in zip(lam, v)) % m
            hist[e] = hist.get(e, 0) + 1
    return exponent_sum_as_integer(hist, m)


# ---------------------------------------------------------------------------
# strata and classification cross-checks


def _maximal_proper_strata(poset: StrataPoset) -> list[int]:
    sets = [st.subsystem.indices for st in poset.strata]
    full = len(poset.datum.root_system.roots)
    proper = [i for i, s in enumerate(sets) if len(s) < full]
    return [i for i in proper if not any(sets[i] < sets[j] for j in proper)]


def brute_strata_check(datum: GroupDatum, q: int) -> Verdict:
    """Enumerate T(F_q), group by centralizer, and verify:

    (a) maximal proper elliptic strata are exactly the W-translates of the
        rational node-deletion classes;
    (b) the partition identity for every Z_iota(F_q) (Reeder);
    (c) every stratum is closed, negation-stable and of full rank, and its
        first point's directly recomputed centralizer matches;
    (d) the classify-route poset is identical to the enumerated one.

    In (c), closedness, negation-stability and rank are W-invariant, so
    they are tested once per class, on each stratum's representative: the
    representatives come from an exact orbit search of the strata's own
    roots, so strata sharing one are W-conjugate.  The centralizer
    comparison tests the sweep's output point by point, so it runs on
    every stratum.

    None of these enumerates W.
    """
    rs = datum.root_system
    inst = f"{rs}@q={q}({datum.cochar.name})"
    poset = strata_poset(datum, q, "enumerate")

    # (a) maximal proper strata vs rational classes, as canonical subsets:
    # the strata's representatives against a fresh orbit search per class
    maximal = {poset.strata[i].rep.key for i in _maximal_proper_strata(poset)}
    rational = {
        canonical_subset(rs, cl.subsystem.indices)
        for cl in classify(datum, q)
        if not cl.is_whole_group and cl.rational_over_fq
    }
    if maximal != rational:
        return Verdict(
            "brute_strata", inst, False,
            witness={
                "only_enumerated": sorted(map(list, maximal - rational)),
                "only_classified": sorted(map(list, rational - maximal)),
            },
        )

    # (b) Reeder partition identity
    reeder = reeder_partition_check(poset)
    if not reeder:
        return Verdict("brute_strata", inst, False,
                       witness={"reeder": reeder.witness})

    # (c) structural re-verification, independent of the sweep kernel:
    # the W-invariant tests once per class, the centralizer per stratum
    tested = set()
    for st in poset.strata:
        if st.rep not in tested:
            tested.add(st.rep)
            if st.rep.rank != rs.rank or not st.rep.is_closed():
                return Verdict("brute_strata", inst, False,
                               witness={"stratum": st.signature,
                                        "reason": "not closed or not full rank"})
        v = point_from_index(q, rs.rank, st.s_points[0])
        if centralizer_subsystem(datum, q, v).indices != st.subsystem.indices:
            return Verdict("brute_strata", inst, False,
                           witness={"stratum": st.signature, "point": list(v),
                                    "reason": "kernel/direct mismatch"})

    # (d) route agreement
    other = strata_poset(datum, q, "classify")
    here = [(st.key, st.s_size, st.z_order) for st in poset.strata]
    there = [(st.key, st.s_size, st.z_order) for st in other.strata]
    if here != there or poset.mobius_table != other.mobius_table:
        return Verdict("brute_strata", inst, False,
                       witness={"reason": "route disagreement",
                                "enumerate": len(here), "classify": len(there)})

    return Verdict(
        "brute_strata", inst, True,
        details={
            "strata": len(poset.strata),
            "types": sorted({st.signature for st in poset.strata}),
        },
    )


def bds_cross_check(t: SimpleType | str, q: int | None = None) -> Verdict:
    """Node-deletion class types against brute-enumerated maximal strata.

    Only the maximal strata are typed, each on its class representative:
    one Dynkin-diagram typing per maximal W-class."""
    if isinstance(t, str):
        t = SimpleType.parse(t)
    if q is None:
        q = first_admissible_q(t)
        if q is None:
            return Verdict("bds_cross", f"{t}", False,
                           witness="no admissible q in the default grid")
    p = characteristic_of(q)
    datum = make_datum([repr(t)], "sc", p)
    poset = strata_poset(datum, q, "enumerate")
    enumerated = {poset.strata[i].signature
                  for i in _maximal_proper_strata(poset)}
    classified = {cl.signature for cl in borel_de_siebenthal(datum.root_system)}
    ok = enumerated == classified
    return Verdict(
        "bds_cross", f"{t}@q={q}", ok,
        witness=None if ok else {"enumerated": sorted(enumerated),
                                 "classified": sorted(classified)},
        details={"types": sorted(classified)},
    )


def centers_stable(datum: GroupDatum, q: int, subs=None) -> bool:
    """All geometric subsystem centers already rational at q: for every
    full-rank closed subsystem (``subs``, by default all), |Z(F_q)| equals
    the geometric order; both are W-invariant, so one per class is tested."""
    subs = subs or equal_rank_subsystems(datum.root_system)
    return all(
        subgroup_points(datum, q, sub).order
        == geometric_center_order(datum, sub)
        for sub in dict.fromkeys(subs.values())
    )


def field_extension_check(datum: GroupDatum, spec: CharacterSpec, q: int,
                          n: int,
                          convention: str = "uniform-inverse") -> Verdict:
    """Row-for-row equality of the coefficient table at q and at q^n."""
    inst = f"{datum.root_system}@q={q}^{n}"
    subs = equal_rank_subsystems(datum.root_system)  # q-independent
    if not centers_stable(datum, q, subs):
        return Verdict("field_extension", inst, False,
                       witness="precondition failed: centers not stable at q")
    table_q, table_qn = (
        n_table(datum, qq, spec, strata_poset(datum, qq, "classify",
                                              candidates=subs), convention)
        for qq in (q, q**n))
    rows_q = {r.key(): (r.n, r.n_sum, r.orbit_size) for r in table_q.rows}
    rows_qn = {r.key(): (r.n, r.n_sum, r.orbit_size) for r in table_qn.rows}
    ok = rows_q == rows_qn
    witness = None
    if not ok:
        diff = {
            str(k): {"at_q": rows_q.get(k), "at_qn": rows_qn.get(k)}
            for k in set(rows_q) | set(rows_qn)
            if rows_q.get(k) != rows_qn.get(k)
        }
        witness = {"rows": diff}
    return Verdict("field_extension", inst, ok, witness=witness,
                   details={"rows": len(rows_q)})


def admissible_q(t: SimpleType, q: int) -> bool:
    """Very good characteristic, table divisibility, and both default caps."""
    try:
        p = characteristic_of(q)
    except ValueError:
        return False
    if bad_characteristic_reasons(p, [t]):
        return False
    need = car_divisor(t)
    if need is not None and (q - 1) % need:
        return False
    if (q - 1) ** t.rank > DEFAULT_POINT_CAP:
        return False
    return t.weyl_order <= DEFAULT_WEYL_CAP


def first_admissible_q(t: SimpleType) -> int | None:
    """The least q of DEFAULT_QS admissible for t, or None."""
    return next((q for q in DEFAULT_QS if admissible_q(t, q)), None)


# ---------------------------------------------------------------------------
# the instance manifest


GRID_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4")

FIELD_EXTENSION_INSTANCES = (
    {"factors": ["A1"], "lattice": "sc", "q": 5, "n": 2, "seed": 101},
    {"factors": ["A1"], "lattice": "sc", "q": 5, "n": 3, "seed": 102},
    {"factors": ["A1"], "lattice": "ad", "q": 5, "n": 2, "seed": 103},
    {"factors": ["A2"], "lattice": "sc", "q": 7, "n": 2, "seed": 104},
    {"factors": ["B2"], "lattice": "sc", "q": 5, "n": 2, "seed": 105},
    {"factors": ["B2"], "lattice": "sc", "q": 13, "n": 2, "seed": 106},
    {"factors": ["G2"], "lattice": "ad", "q": 7, "n": 2, "seed": 107},
    {"factors": ["A1", "A1"], "lattice": "sc", "q": 5, "n": 2, "seed": 108},
)


def random_spec(rank: int, num_finite: int, rng: random.Random,
                bound: int = 6) -> CharacterSpec:
    places = [
        PlaceData("inf", [rng.randint(-bound, bound) for _ in range(rank)])
    ]
    places += [
        PlaceData(f"v{i+1}", [rng.randint(-bound, bound) for _ in range(rank)])
        for i in range(num_finite)
    ]
    return CharacterSpec(places)


def default_manifest() -> list[dict]:
    """The deterministic instance grid run by `coendo verify`."""
    manifest = []
    for name in GRID_TYPES:
        t = SimpleType.parse(name)
        for q in DEFAULT_QS:
            if admissible_q(t, q):
                manifest.append(
                    {"check": "brute_strata", "factors": [name],
                     "lattice": "sc", "q": q}
                )
    for name in GRID_TYPES:
        q = first_admissible_q(SimpleType.parse(name))
        if q is not None:
            manifest.append({"check": "bds_cross", "type": name, "q": q})
    for inst in FIELD_EXTENSION_INSTANCES:
        manifest.append({"check": "field_extension", **inst})
    manifest.append(
        {"check": "cyclotomic_grid", "factors": ["B2"], "lattice": "sc",
         "q": 5, "samples": 60, "seed": 11}
    )
    manifest.append(
        {"check": "cyclotomic_grid", "factors": ["G2"], "lattice": "ad",
         "q": 7, "samples": 60, "seed": 12}
    )
    return manifest


# The keys a manifest entry of each check must have, besides "check"
# (bds_cross also takes an optional "q").
MANIFEST_CHECKS = {
    "brute_strata": ("factors", "lattice", "q"),
    "bds_cross": ("type",),
    "field_extension": ("factors", "lattice", "q", "seed", "n"),
    "cyclotomic_grid": ("factors", "lattice", "q", "samples", "seed"),
}


def instance_check(inst) -> Callable[[], Verdict]:
    """Validate one manifest entry, a ValueError naming it if bad, and bind
    its check to the inputs built from it, the group datum among them
    (bds_cross builds its own): a zero-argument callable."""
    check = inst.get("check") if isinstance(inst, dict) else None
    if not isinstance(check, str) or check not in MANIFEST_CHECKS:
        raise ValueError(f"manifest entries need a 'check' out of "
                         f"{', '.join(MANIFEST_CHECKS)}: {inst!r}")
    required = MANIFEST_CHECKS[check]
    missing = [key for key in required if key not in inst]
    if missing:
        raise ValueError(f"manifest entry {inst!r} lacks {', '.join(missing)}")
    optional = ("q",) if check == "bds_cross" else ()
    unknown = sorted(set(inst) - {"check", *required, *optional})
    if unknown:
        raise ValueError(f"manifest entry {inst!r} has unknown keys "
                         f"{', '.join(unknown)}")
    try:
        return _bind_values(check, inst)
    except ValueError as exc:
        raise ValueError(f"manifest entry {inst!r}: {exc}") from exc


def _bind_values(check: str, inst: dict) -> Callable[[], Verdict]:
    """instance_check past the keys: each value is checked, and the inputs
    built from them are bound to the check."""
    for key in ("n", "samples"):
        if key in inst and not (type(inst[key]) is int and inst[key] >= 1):
            raise ValueError(f"{key} must be a positive integer")
    if "seed" in inst and type(inst["seed"]) is not int:
        raise ValueError("seed must be an integer")
    q = inst.get("q")
    p = None
    if q is not None or check != "bds_cross":
        if not (type(q) is int and q >= 3):
            raise ValueError("q must be a prime power >= 3")
        p = characteristic_of(q)
    if check == "bds_cross":
        if not isinstance(inst["type"], str):
            raise ValueError('type must be a type name such as "B2"')
        t = SimpleType.parse(inst["type"])
        if p and (reasons := bad_characteristic_reasons(p, [t])):
            raise ValueError("; ".join(reasons))
        return lambda: bds_cross_check(t, q)
    factors = inst["factors"]
    if not (isinstance(factors, list) and factors
            and all(isinstance(f, str) for f in factors)):
        raise ValueError('factors must be a list of type names such as ["B2"]')
    datum = make_datum(factors, inst["lattice"], p)
    if check == "brute_strata":
        return lambda: brute_strata_check(datum, q)
    if check == "field_extension":
        spec = random_spec(datum.root_system.rank, 2,
                           random.Random(inst["seed"]))
        n = inst["n"]
        return lambda: field_extension_check(datum, spec, q, n)
    samples, seed = inst["samples"], inst["seed"]
    return lambda: cyclotomic_grid_check(datum, q, samples, seed)


def run_instance(check: Callable[[], Verdict]) -> Verdict:
    """Run one check that instance_check bound."""
    return check()


def cyclotomic_grid_check(datum: GroupDatum, q: int, samples: int,
                          seed: int) -> Verdict:
    """Randomized characters: Möbius-route sums against cyclotomic sums."""
    poset = strata_poset(datum, q, "enumerate")
    rng = random.Random(seed)
    rank = datum.root_system.rank
    name = f"{datum.root_system}@q={q}"
    # each stratum's points are decoded once, not once per sample
    points = [_stratum_residues(poset, si) for si in range(len(poset.strata))]
    for _ in range(samples):
        lam = tuple(rng.randint(-2 * q, 2 * q) for _ in range(rank))
        for si, pts in enumerate(points):
            sub = _sum_verdict(lam, poset, si, pts)
            if not sub:
                return Verdict("cyclotomic_grid", name, False,
                               witness=sub.witness)
    return Verdict("cyclotomic_grid", name, True,
                   details={"samples": samples})


def run_manifest(manifest: list[dict] | None = None) -> list[Verdict]:
    """Validate every entry, then run each; a bad entry runs nothing."""
    if manifest is None:
        manifest = default_manifest()
    checks = [instance_check(inst) for inst in manifest]
    return [run_instance(check) for check in checks]
