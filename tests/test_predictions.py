import random
from fractions import Fraction

import pytest

from coendo import coefficients as K
from coendo import coendoscopy as C
from coendo import intlinalg as il
from coendo import oracle as O
from coendo import predictions as P
from coendo import rootsys as R
from test_intlinalg import from_columns, matmul, random_unimodular
from test_rootsys import coroot_lattice, lattice_quotient


def test_curve_validation():
    with pytest.raises(ValueError):
        P.CurveData(-1, [1])
    with pytest.raises(ValueError):
        P.CurveData(0, [])
    with pytest.raises(ValueError):
        P.CurveData(0, [2, 3])  # no degree-1 place for infinity
    c = P.CurveData(2, [1, 2, 1])
    assert c.deg_s == 4 and c.num_places == 3 and c.hypothesis_ok


def test_hitchin_dims_examples():
    # dim g = 3, rank 1
    assert P.hitchin_dims(3, 1, P.CurveData(1, [1])) == (3, 1, 2)
    assert P.hitchin_dims(3, 1, P.CurveData(0, [1, 1, 1])) == (3, 3, 3)


def test_exponent_examples():
    assert P.exponent_n(3, 1, P.CurveData(1, [1])) == 1
    # dim sl3 = 8, rank 2, g = 2, deg S = 2
    assert P.exponent_n(8, 2, P.CurveData(2, [1, 1])) == 14
    # boundary: negative exponent, hypothesis violated
    c = P.CurveData(0, [1, 1])
    assert P.exponent_n(3, 1, c) == -1
    assert not c.hypothesis_ok


def test_dimension_identities_randomized():
    rng = random.Random(23)
    families = ["A", "B", "C", "D", "E", "F", "G"]
    ranks = {"A": range(1, 9), "B": range(2, 9), "C": range(3, 9),
             "D": range(4, 9), "E": (6, 7, 8), "F": (4,), "G": (2,)}
    dims = {}
    for _ in range(1000):
        fam = rng.choice(families)
        rank = rng.choice(list(ranks[fam]))
        key = f"{fam}{rank}"
        if key not in dims:
            rs = R.build_root_system([key])
            dims[key] = (rs.dim_g, rs.rank)
        dim_g, r = dims[key]
        genus = rng.randint(0, 5)
        degrees = [1] + [rng.randint(1, 3)
                         for _ in range(rng.randint(0, 4))]
        if sum(degrees) > 6:
            degrees = degrees[:2]
        curve = P.CurveData(genus, degrees)
        dim_m, dim_r, dim_a = P.hitchin_dims(dim_g, r, curve)
        n = P.exponent_n(dim_g, r, curve)
        assert n == Fraction(dim_m - dim_r, 2)
        assert dim_m == 2 * dim_a - curve.deg_s * r


def test_leading_term_examples():
    curve = P.CurveData(1, [1])
    sl2 = R.make_datum(["A1"], "sc", 5)
    rec = P.leading_term(sl2, 5, curve)
    assert (rec["center_order"], rec["pi1"], rec["value"]) == (2, 1, 10)
    pgl2 = R.make_datum(["A1"], "ad", 5)
    rec = P.leading_term(pgl2, 5, curve)
    assert (rec["center_order"], rec["pi1"], rec["value"]) == (1, 2, 10)
    # q = 4: the center has no rational points, only q^N survives
    rec4 = P.leading_term(R.make_datum(["A1"], "sc", 5), 4, curve)
    assert rec4["center_order"] == 1 and rec4["value"] == 4


def test_leading_term_scaling_under_extension():
    curve = P.CurveData(1, [1, 1])
    datum = R.make_datum(["B2"], "sc", 5)
    n = P.exponent_n(datum.root_system.dim_g, 2, curve)
    v1 = P.leading_term(datum, 5, curve)
    v2 = P.leading_term(datum, 25, curve)
    # centers stable at q=5, so the ratio is exactly q^N
    assert v2["value"] / v1["value"] == Fraction(5) ** int(n)


def test_component_count():
    sl2 = R.make_datum(["A1"], "sc", 5)
    assert P.component_count(sl2) == 1
    ad = R.make_datum(["G2"], "ad", 7)
    assert P.component_count(ad) == 1  # G2 has trivial fundamental group
    pgl2 = R.make_datum(["A1"], "ad", 5)
    assert P.component_count(pgl2) == 2
    # long A1xA1 inside the simply connected B2 group: index of its coroot
    # lattice in X_* is 1 (the subgroup is simply connected)
    sp4 = R.make_datum(["B2"], "sc", 5)
    poset = C.strata_poset(sp4, 5, "enumerate")
    sub = [st.subsystem for st in poset.strata if st.signature == "A1xA1"][0]
    assert P.component_count(sp4, sub) == 1
    # the same subsystem inside the adjoint group has two components
    so5 = R.make_datum(["B2"], "ad", 5)
    poset_ad = C.strata_poset(so5, 5, "enumerate")
    sub_ad = [st.subsystem for st in poset_ad.strata
              if st.signature == "A1xA1"][0]
    assert P.component_count(so5, sub_ad) == 2


def custom_datum(name):
    """X_* generated by the coroots and the last fundamental coweight, in a
    basis changed by a unimodular matrix of determinant -1."""
    rs = R.build_root_system([name])
    r = rs.rank
    last = tuple(int(i == r - 1) for i in range(r))
    d, u, _ = il.snf_transform(from_columns(il.columns(rs.cartan) + [last]))
    # u is unimodular, so adj(u) = ±u^-1 spans the same lattice
    basis = matmul(il.adjugate(u)[0], [row[:r] for row in d])
    basis = matmul(basis, random_unimodular(random.Random(name), r))
    flipped = [[-row[0], *row[1:]] for row in basis]
    return R.make_datum([name], flipped, 7)


@pytest.mark.parametrize("lattice", ["sc", "ad", "custom"])
@pytest.mark.parametrize("name", O.GRID_TYPES)
def test_lattice_indices_match_smith_forms(name, lattice):
    # indices by determinants against the order of a Smith-form quotient
    if lattice == "custom":
        datum = custom_datum(name)
    else:
        datum = R.make_datum([name], lattice, 7)
    rs = datum.root_system
    assert R.pi1_order(datum) == P.component_count(datum) == \
        lattice_quotient(datum.cochar, coroot_lattice(rs)).order
    for sub in C.equal_rank_subsystems(rs):
        coroots = from_columns(
            [rs.roots[i].coroot_ambient for i in sub.base_indices])
        assert P.component_count(datum, sub) == lattice_quotient(
            datum.cochar, R.Lattice("sub-coroot", coroots)).order


def _table(name, lat, q, spec=None):
    datum = R.make_datum([name], lat, R.characteristic_of(q))
    poset = C.strata_poset(datum, q, "enumerate")
    if spec is None:
        spec = K.CharacterSpec.trivial(datum.root_system.rank, 1)
    return datum, K.n_table(datum, q, spec, poset)


def test_assemble_type_a_approx_equals_leading_term():
    curve = P.CurveData(1, [1, 1])
    datum, table = _table("A2", "sc", 7)
    report = P.assemble_prediction(datum, 7, curve, table)
    lead = P.leading_term(datum, 7, curve)
    assert report.value == lead["center_order"] * lead["pi1"] * \
        Fraction(7) ** int(lead["exponent"])
    assert report.mode == "approximate"
    assert any("approximate" in c for c in report.caveats)


def test_assemble_with_counts():
    curve = P.CurveData(1, [1])
    datum, table = _table("A1", "sc", 5)
    key = (table.rows[0].stratum.signature, table.rows[0].orbit_rep)
    report = P.assemble_prediction(datum, 5, curve, table, {key: 10})
    # n = 2, count = 10, N = 1: contribution 2*10/5
    assert report.value == Fraction(4)
    zero = P.assemble_prediction(datum, 5, curve, table, {key: 0})
    assert zero.value == 0


def test_assemble_missing_count():
    curve = P.CurveData(1, [1, 1])
    datum, table = _table("A1", "sc", 5)
    with pytest.raises(K.MissingCount):
        P.assemble_prediction(datum, 5, curve, table, {})


def test_assemble_two_row_arithmetic():
    # two rows with supplied counts {10, 4} and coefficients {2, -1}:
    # the total is 2*10*q^(-N_G) + (-1)*4*q^(-N_H), assembled exactly
    curve = P.CurveData(1, [1])
    datum, table = _table("B2", "sc", 5)
    rows = table.rows
    assert len(rows) == 3  # B2 row plus two A1xA1 coset rows
    fake_n = {rows[0].key(): 2, rows[1].key(): -1, rows[2].key(): 0}
    patched = [
        K.NTableRow(r.stratum_index, r.stratum, r.orbit_rep, r.orbit_size,
                    fake_n[r.key()], fake_n[r.key()], abs(fake_n[r.key()]))
        for r in rows
    ]
    table2 = K.NTable(datum, 5, table.spec, table.convention, patched)
    counts = {
        (r.stratum.signature, r.orbit_rep): c
        for r, c in zip(patched, (10, 4, 7))
    }
    report = P.assemble_prediction(datum, 5, curve, table2, counts)
    n_g = P.exponent_n(datum.root_system.dim_g, 2, curve)
    n_h = P.exponent_n(4 + 2, 2, curve)
    expected = 2 * 10 * Fraction(5) ** -int(n_g) + \
        (-1) * 4 * Fraction(5) ** -int(n_h)
    assert report.value == expected


def test_report_record_is_serializable():
    import json

    curve = P.CurveData(1, [1, 1])
    datum, table = _table("B2", "sc", 5)
    report = P.assemble_prediction(datum, 5, curve, table)
    blob = json.dumps(report.to_record(), sort_keys=True)
    assert "stratum_type" in blob
