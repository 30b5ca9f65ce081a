"""Integer multiplicity coefficients from per-place character data.

Each place v carries an algebraic character lambda_v in X^*(T); on a
torsion point t = v/(q-1) the character evaluates through the canonical
residue pairing as the exponent <lambda, v> mod q-1 of a fixed primitive
(q-1)-th root of unity.  Sums of character values over a stratum are
computed exactly by Möbius inversion over the strata poset plus character
orthogonality on the finite groups Z_j(F_q): no floating point and no
cyclotomic reduction anywhere on this route.  A Weyl element moves a
character through its permutation of the roots (``character_action``), with
no matrix.

A character is trivial on Z_j iff its key k_j(lambda) = (<lambda, g> mod q-1
for the generators g of Z_j) vanishes, and keys are additive.  So a row over
a finite term f and the infinity terms t counts the keys k_j(t) once per
j <= i (a histogram) and reads sum_j mu(j, i)·|Z_j|·hist_j[-k_j(f)].

Sign convention: by default every place is evaluated at the inverse point
(``uniform-inverse``), which is the unique reading for which the minimal
stratum coefficient equals |Z_G(F_q)| whenever the product of the place
characters is trivial on the center.  The alternative that evaluates the
infinity place at the point itself is exposed as ``mixed-inverse``
(see cli/config ``convention``).
"""

from __future__ import annotations

import functools
import itertools
from array import array
from collections import Counter
from operator import mul

from . import intlinalg as il
from .rootsys import (
    DEFAULT_WEYL_CAP,
    CapExceeded,
    GroupDatum,
    WeylGroup,
    closure,
    geometric_center_order,
    weyl_generate,
    weyl_order,
)
from .coendoscopy import StrataPoset, Stratum, equal_rank_subsystems
from .torus import Subsystem, subgroup_points

CONVENTIONS = ("uniform-inverse", "mixed-inverse")
DEFAULT_ORBIT_CAP = 1_000_000

INFINITY_TAG = "inf"


class MissingCount(KeyError):
    pass


class PlaceData:
    """One place: a tag ('inf' or a finite-place name) and a character."""

    def __init__(self, tag: str, lam):
        self.tag = tag
        self.lam = tuple(int(x) for x in lam)

    @property
    def is_infinity(self) -> bool:
        return self.tag == INFINITY_TAG

    def to_record(self):
        return {"tag": self.tag, "lambda": list(self.lam)}

    def __repr__(self):
        return f"PlaceData({self.tag}, {list(self.lam)})"


class CharacterSpec:
    """Per-place characters; exactly one place tagged 'inf'."""

    def __init__(self, places):
        self.places = tuple(places)
        infs = [p for p in self.places if p.is_infinity]
        if len(infs) != 1:
            raise ValueError("exactly one place must be tagged 'inf'")
        self.infinity = infs[0]
        self.finite = tuple(p for p in self.places if not p.is_infinity)

    @classmethod
    def from_record(cls, record, rank: int) -> "CharacterSpec":
        places = [PlaceData(p["tag"], p["lambda"]) for p in record["places"]]
        for p in places:
            if len(p.lam) != rank:
                raise ValueError(
                    f"place {p.tag}: character has length {len(p.lam)}, "
                    f"expected {rank}"
                )
        return cls(places)

    @classmethod
    def trivial(cls, rank: int, num_finite: int = 1) -> "CharacterSpec":
        places = [PlaceData(INFINITY_TAG, (0,) * rank)]
        places += [
            PlaceData(f"v{i+1}", (0,) * rank) for i in range(num_finite)
        ]
        return cls(places)

    @property
    def num_places(self) -> int:
        return len(self.places)

    def to_record(self):
        return {"places": [p.to_record() for p in self.places]}


def character_action(datum: GroupDatum, weyl: WeylGroup, lam):
    """w -> w . lambda, i.e. (w.lambda)(x) = lambda(w^-1 x), in X^* coords.

    On the coweight space lambda is sum_j c_j alpha_j, where d c = lambda
    adj(B) for the X_* basis B and d = det B, solved once per lambda; so d
    w.lambda is the sum of d c_j times the X_* functional of w(alpha_j).
    """
    adj, d = datum.cochar.adjugate
    funcs = datum.root_functionals
    terms = [(c, s) for c, s in zip(il.vecmat(lam, adj),
                                    datum.root_system.simple_indices) if c]

    def act(w: int) -> tuple[int, ...]:
        perm = weyl.perms[w]
        out = [0] * len(lam)
        for c, s in terms:
            out = [x + c * y for x, y in zip(out, funcs[perm[s]])]
        return tuple(x // d for x in out)

    return act


def _key(lam, group, m: int) -> tuple[int, ...]:
    """(<lambda, g> mod m for each generator g of a subgroup of T(F_q)):
    all zero iff the residue character of lambda is trivial on it."""
    return tuple(sum(map(mul, lam, g)) % m for g in group.generators)


def central_product_test(spec: CharacterSpec, datum: GroupDatum, q: int) -> bool:
    """Triviality of the product of all place characters on Z_G(F_q)."""
    rank = datum.root_system.rank
    total = [0] * rank
    for p in spec.places:
        total = [a + b for a, b in zip(total, p.lam)]
    center = subgroup_points(
        datum, q, Subsystem(datum.root_system, range(len(datum.root_system.roots)))
    )
    return not any(_key(total, center, q - 1))


def _histograms(poset: StrataPoset, stratum_index: int, terms):
    """(mu(j, i)·|Z_j|, Z_j, Counter of k_j(t) over the terms t) for each
    stratum j <= i with mu(j, i) != 0."""
    m = poset.q - 1
    out = []
    for j in poset.below(stratum_index):
        mu = poset.mobius_table[(j, stratum_index)]
        if mu:
            z = poset.strata[j].z_group
            hist = Counter(_key(t, z, m) for t in terms)
            out.append((mu * z.order, z, hist))
    return out


def _row_value(hists, finite, m: int) -> int:
    """Sum over the counted terms t of the stratum sums of finite + t:
    finite + t is trivial on Z_j iff k_j(t) = k_j(-finite)."""
    neg = [-x for x in finite]
    return sum(weight * hist[_key(neg, group, m)]
               for weight, group, hist in hists)


def stratum_sum(lam, poset: StrataPoset, stratum_index: int) -> int:
    """Sum of the character over S_iota, via Möbius inversion and
    orthogonality on each group Z below: always an exact integer."""
    return _row_value(_histograms(poset, stratum_index, [lam]),
                      (0,) * len(lam), poset.q - 1)


def _infinity_terms(datum: GroupDatum, weyl: WeylGroup, base,
                    spec: CharacterSpec,
                    convention: str) -> list[tuple[int, ...]]:
    """The w.lambda_inf term of the total character, with its sign, for each
    canonical C_W(iota)\\W representative w in order, iota having the
    simple roots ``base``."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    sign = -1 if convention == "uniform-inverse" else 1
    act = character_action(datum, weyl, spec.infinity.lam)
    return [tuple(sign * x for x in act(w)) for w in weyl.cw_cosets(base)]


def _finite_term(datum: GroupDatum, acts, reps) -> list[int]:
    """-sum_v gamma_v.lambda_v, the part of the total character free of w;
    ``acts[v]`` is the ``character_action`` of lambda_v."""
    lam = [0] * datum.root_system.rank
    for g, act in zip(reps, acts):
        lam = [a - b for a, b in zip(lam, act(g))]
    return lam


def n_coefficient(
    datum: GroupDatum,
    weyl: WeylGroup,
    poset: StrataPoset,
    stratum_index: int,
    gamma: tuple[int, ...],
    spec: CharacterSpec,
    convention: str = "uniform-inverse",
) -> int:
    """The integer coefficient of one (stratum, coset tuple) row: the sum
    over canonical C_W(iota)\\W representatives w of the stratum sums of
    the total character of (gamma, w)."""
    base = poset.strata[stratum_index].subsystem.base_indices
    terms = _infinity_terms(datum, weyl, base, spec, convention)
    acts = [character_action(datum, weyl, p.lam) for p in spec.finite]
    finite = _finite_term(datum, acts, gamma)
    return _row_value(_histograms(poset, stratum_index, terms), finite,
                      poset.q - 1)


def _tuple_orbits(weyl: WeylGroup, base, num_finite_places: int, cap: int):
    """Orbits of C_W(iota) by simultaneous conjugation on tuples of
    W_iota\\W representatives, iota having the simple roots ``base``, as
    (lex-least representative tuple, sorted member list) pairs, in order.

    C_W(iota) is generated by the reflections in the base and by
    Stab(Delta_iota), the elements mapping the base onto itself: c in
    C_W(iota) maps the base to a simple system of iota, and W_iota acts
    transitively on those.  An orbit of a group is an orbit of any
    generating set, so the search moves tuples by those generators c only,
    each sending W_iota x to W_iota c^-1 x c.  For c = s_beta, beta in the
    base, that is W_iota x s_beta; for c = d^-1 with d in Stab(Delta_iota),
    a group, it is W_iota (d x) c, and d x is already a representative.
    Both are right actions along a word of c (``RootSystem.reflection_word``,
    or a reduced word of d reversed), one ``coset_moves`` table per letter.
    A tuple is coded as its coset positions read as base-n digits, the
    first digit most significant, so code order is lex order.
    """
    reps = weyl.cosets(base)
    n = len(reps)
    total = n ** num_finite_places
    if total > cap:
        raise CapExceeded(
            f"{n}^{num_finite_places} coset tuples exceed cap {cap} "
            "(caps.orbits)",
            order=total,
        )
    moves = weyl.coset_moves(base)
    at = {x: i for i, x in enumerate(reps)}
    typecode = "I" if total <= 1 << 32 else "q"
    # (W_iota c^-1 x for each x, a word of c) for each generator c
    gens = [(range(n), weyl.rs.reflection_word(t)) for t in base] + [
        ([at[weyl.mul(d, x)] for x in reps], weyl.word(d)[::-1])
        for d in weyl.stabilizer(base)[1:]]
    images = []
    for table, word in gens:
        for j in word:
            table = list(map(moves[j].__getitem__, table))
        image = [0]
        for _ in range(num_finite_places):
            image = array(typecode,
                          [a * n + b for a in image for b in table])
        images.append(image)
    tuples = list(itertools.product(reps, repeat=num_finite_places))
    seen = bytearray(total)
    out = []
    for code in range(total):
        if seen[code]:
            continue
        orbit = sorted(closure([code], lambda cur: [
            image[cur] for image in images]))
        for c in orbit:
            seen[c] = 1
        out.append((tuples[code], [tuples[c] for c in orbit]))
    return out


class NTableRow:
    def __init__(self, stratum_index: int, stratum: Stratum, orbit_rep: tuple,
                 orbit_size: int, n: int, n_sum: int, n_abs_sum: int):
        self.stratum_index = stratum_index
        self.stratum = stratum
        self.orbit_rep = orbit_rep
        self.orbit_size = orbit_size
        self.n = n
        self.n_sum = n_sum
        self.n_abs_sum = n_abs_sum

    def key(self):
        # rows exist for class representatives only, whose key is the
        # class key
        return (self.stratum.key, self.orbit_rep)

    def to_record(self):
        return {
            "stratum_type": self.stratum.signature,
            "orbit_rep": list(self.orbit_rep),
            "orbit_size": self.orbit_size,
            "n": self.n,
            "n_sum": self.n_sum,
        }

    def __repr__(self):
        return (
            f"NTableRow({self.stratum.signature}, rep={self.orbit_rep}, "
            f"size={self.orbit_size}, n={self.n})"
        )


class NTable:
    """Rows keyed by (stratum class, coset-tuple orbit).

    ``n`` is the coefficient of the canonical orbit representative; ``n_sum``
    sums the coefficients over the whole orbit (that is the quantity each
    orbit contributes to the assembled prediction, the per-orbit point
    counts being equal).
    """

    def __init__(self, datum: GroupDatum, q: int, spec: CharacterSpec,
                 convention: str, rows: list[NTableRow]):
        self.datum = datum
        self.q = q
        self.spec = spec
        self.convention = convention
        self.rows = tuple(rows)

    @property
    def total_abs(self) -> int:
        return sum(row.n_abs_sum for row in self.rows)

    def to_records(self):
        return [row.to_record() for row in self.rows]


def n_table(
    datum: GroupDatum,
    q: int,
    spec: CharacterSpec,
    poset: StrataPoset,
    convention: str = "uniform-inverse",
    orbit_cap: int = DEFAULT_ORBIT_CAP,
    weyl_cap: int = DEFAULT_WEYL_CAP,
) -> NTable:
    """One row per (stratum class representative, coset-tuple orbit), from
    one enumeration of W (under ``weyl_cap``)."""
    weyl = weyl_generate(datum.root_system, weyl_cap)
    rows = []
    nf = len(spec.finite)
    m = poset.q - 1
    acts = [functools.cache(character_action(datum, weyl, p.lam))
            for p in spec.finite]
    for si in poset.class_representatives():
        base = poset.strata[si].subsystem.base_indices
        hists = _histograms(
            poset, si, _infinity_terms(datum, weyl, base, spec, convention))
        for rep, members in _tuple_orbits(weyl, base, nf, orbit_cap):
            values = [_row_value(hists, _finite_term(datum, acts, t), m)
                      for t in members]
            rows.append(
                NTableRow(
                    si, poset.strata[si], rep, len(members),
                    values[0], sum(values), sum(abs(v) for v in values),
                )
            )
    rows.sort(key=NTableRow.key)
    return NTable(datum, q, spec, convention, rows)


def bound_constant(datum: GroupDatum, num_places: int,
                   candidates=None) -> int:
    """Explicit q-independent bound: over geometric subsystem classes,
    |W|^|S| |W_iota|^|S| |Z_iota(geometric)| summed up, over
    ``candidates`` (by default ``equal_rank_subsystems`` of the system)."""
    rs = datum.root_system
    w_order = weyl_order(rs)
    if candidates is None:
        candidates = equal_rank_subsystems(rs)
    total = 0
    for sub in dict.fromkeys(candidates.values()):
        z_geo = geometric_center_order(datum, sub)
        total += (w_order ** num_places) * (sub.weyl_order ** num_places) * z_geo
    return total
