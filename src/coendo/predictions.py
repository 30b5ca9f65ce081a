"""Dimension bookkeeping and leading-term predictions.

All quantities are exact.  Dimensions and exponents are integers: the
root count |Phi| is even, so every halving below is exact.  Assembled
predictions are lists of (exponent, integer coefficient) terms in q plus
their exact rational value.  Component counts are lattice indices, read
as ratios of determinants.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .rootsys import GroupDatum, coroot_index, pi1_order
from .torus import Subsystem, subgroup_points
from .coefficients import MissingCount, NTable


class CurveData:
    """Genus and the degrees of the marked places; one place of degree 1
    (the base point at infinity) is required for the counting setup."""

    def __init__(self, genus: int, place_degrees):
        if genus < 0:
            raise ValueError("genus must be non-negative")
        self.genus = genus
        self.place_degrees = tuple(int(d) for d in place_degrees)
        if not self.place_degrees or any(d < 1 for d in self.place_degrees):
            raise ValueError("place degrees must be positive, at least one place")
        if 1 not in self.place_degrees:
            raise ValueError("no degree-1 place for infinity")

    @property
    def deg_s(self) -> int:
        return sum(self.place_degrees)

    @property
    def num_places(self) -> int:
        return len(self.place_degrees)

    @property
    def hypothesis_ok(self) -> bool:
        """deg S > max(2 - g, 0): the surjectivity/dimension hypothesis."""
        return self.deg_s > max(2 - self.genus, 0)

    def to_record(self):
        return {"genus": self.genus, "place_degrees": list(self.place_degrees)}


def hitchin_dims(dim_g: int, rank: int, curve: CurveData):
    """(dim M, dim R, dim A) for a group of the given dimension and rank.

    dim M = dim g * (2g - 2 + deg S);  dim R = deg S * rank;
    dim A = (deg S * rank)/2 + (2g - 2 + deg S) * dim g / 2.
    """
    deg_d = 2 * curve.genus - 2 + curve.deg_s
    dim_m = dim_g * deg_d
    dim_r = curve.deg_s * rank
    # dim g = |Phi| + rank, so the numerator is deg S |Phi| mod 2: even
    dim_a = (curve.deg_s * rank + deg_d * dim_g) // 2
    return dim_m, dim_r, dim_a


def exponent_n(dim_g: int, rank: int, curve: CurveData) -> int:
    """N = ((2g - 2 + deg S) dim g - deg S rank)/2 = (dim M - dim R)/2,
    an integer since the numerator is deg S |Phi| mod 2."""
    deg_d = 2 * curve.genus - 2 + curve.deg_s
    return (deg_d * dim_g - curve.deg_s * rank) // 2


def _q_power(q: int, e: int) -> Fraction:
    """q^e as an exact Fraction.

    A power with more decimal digits than ``sys.get_int_max_str_digits()``
    lets a report print is refused; past 4 times that limit (q^e >= 16^limit
    then) it is refused before it is computed.
    """
    limit = sys.get_int_max_str_digits()
    if limit and (abs(e) >= 4 * limit or q ** abs(e) >= 10 ** limit):
        raise ValueError(f"q^e with q = {q} and e = {e} has more than {limit} "
                         "digits, too many to print")
    return Fraction(q) ** e


def leading_term(datum: GroupDatum, q: int, curve: CurveData) -> dict:
    """|Z_G(F_q)| |pi_1(G)| q^N with all three factors exact."""
    rs = datum.root_system
    center = subgroup_points(
        datum, q, Subsystem(rs, range(len(rs.roots)))
    ).order
    pi1 = pi1_order(datum)
    n = exponent_n(rs.dim_g, rs.rank, curve)
    return {
        "center_order": center,
        "pi1": pi1,
        "exponent": n,
        "hypothesis_ok": curve.hypothesis_ok,
        "value": center * pi1 * _q_power(q, n),
    }


def component_count(datum: GroupDatum, subsystem: Subsystem | None = None) -> int:
    """Number of connected components of the (coendoscopic) moduli space:
    the index of the subsystem's coroot lattice in X_*(T)."""
    return pi1_order(datum) if subsystem is None else coroot_index(datum, subsystem)


LEADING_TERM_APPROX = "LEADING_TERM_APPROX"


class PredictionReport:
    """Assembled multiplicity prediction: per-row contributions as exact
    (exponent, coefficient) terms in q, with totals."""

    def __init__(self, datum, q, curve, mode, rows, terms, caveats, dims):
        self.datum = datum
        self.q = q
        self.curve = curve
        self.mode = mode
        self.rows = rows
        self.terms = terms
        self.caveats = tuple(caveats)
        self.dims = dims

    @property
    def value(self) -> Fraction:
        """Exact rational total."""
        return sum((coeff * _q_power(self.q, e)
                    for e, coeff in self.terms.items()), Fraction(0))

    def to_record(self):
        return {
            "mode": self.mode,
            "q": self.q,
            "curve": self.curve.to_record(),
            "dims": self.dims,
            "rows": self.rows,
            "terms": sorted(
                [[str(e), c] for e, c in self.terms.items()], key=lambda t: t[0]
            ),
            "value": str(self.value),
            "caveats": list(self.caveats),
        }


def assemble_prediction(
    datum: GroupDatum,
    q: int,
    curve: CurveData,
    ntable: NTable,
    counts=LEADING_TERM_APPROX,
) -> PredictionReport:
    """Combine the coefficient table with fiber point counts.

    ``counts`` maps (stratum_type, orbit_rep tuple) to the point count of
    the corresponding fiber component; in LEADING_TERM_APPROX mode each
    count is replaced by its dominant term |pi_1(H)| q^(dim M_H - dim R_H),
    making every row contribute n |pi_1(H)| q^(N_H) with relative error of
    order q^(-1/2).
    """
    approx = counts == LEADING_TERM_APPROX
    rows = []
    terms: dict[int, int] = {}
    caveats = ["counts_may_vanish: point counts of all fibers can vanish in extreme cases"]
    if approx:
        caveats.append("approximate: relative error of order q^(-1/2) per row")
    if not curve.hypothesis_ok:
        caveats.append("hypothesis deg S > max(2-g, 0) violated")
    rank = datum.root_system.rank
    dim_m, dim_r, dim_a = hitchin_dims(datum.root_system.dim_g, rank, curve)
    dims = {"G": {"dim_m": dim_m, "dim_r": dim_r, "dim_a": dim_a}}
    for row in ntable.rows:
        sub = row.stratum.subsystem
        dim_h = len(sub.indices) + datum.root_system.rank
        if row.stratum.signature not in dims:
            hm, hr, ha = hitchin_dims(dim_h, rank, curve)
            dims[row.stratum.signature] = {
                "dim_m": hm, "dim_r": hr, "dim_a": ha
            }
        n_h = exponent_n(dim_h, datum.root_system.rank, curve)
        pi1_h = component_count(datum, sub)
        if approx:
            coeff = row.n_sum * pi1_h
            exponent = n_h
            count = None
        else:
            key = (row.stratum.signature, row.orbit_rep)
            if key not in counts:
                raise MissingCount(f"no point count for row {key}")
            count = int(counts[key])
            coeff = row.n_sum * count
            exponent = -n_h
        if coeff:
            terms[exponent] = terms.get(exponent, 0) + coeff
        rows.append({**row.to_record(), "components": pi1_h,
                     "exponent": str(n_h), "count": count})
    mode = "approximate" if approx else "exact-counts"
    return PredictionReport(datum, q, curve, mode, rows, terms, caveats, dims)
