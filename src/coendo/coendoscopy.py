"""Classification of split elliptic coendoscopic groups and torus strata.

Two independent routes produce the stratification of T(F_q) by centralizer
subsystems:

* ENUMERATE covers all (q-1)^r torus points, visiting only the
  sum of the f^r points of the parts (Z/f)^r over the prime-power
  factors f of q-1, keeps only the elliptic ones, and groups them by the
  set of roots they kill;
* CLASSIFY generates every full-rank closed subsystem geometrically (by
  iterating the extended-diagram node-deletion step with prime highest-root
  coefficient, closing under the Weyl action) and recovers the stratum
  sizes from the partition identity |Z_c(F_q)| = sum of |S_d| over the
  subsystems d containing c (M. Reeder, Enseign. Math. 2010).  Walking the
  candidates from the most roots to the fewest, |S_c| = |Z_c| minus the
  sizes of the strata already found that properly contain c: Möbius
  inversion done by back-substitution, with no candidate-level order
  matrix.  On E7 at q = 5 (1,516 candidates, 730 strata) the classify-route
  `strata` command takes 0.37-0.46 s on a 2-vCPU machine.

Both routes solve one Smith form per W-class, for its representative:
|Z_c(F_q)| and its invariant factors are class data, as w·Z_c = Z_{w·c}.
The poset of realized strata computes its Möbius function once, from the
lower sets of its elements.

Agreement of the two routes on small instances is the central
cross-validation of the whole artifact.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from operator import attrgetter, itemgetter

from . import intlinalg as il
from .rootsys import (
    CapExceeded,
    FiniteAbelianGroup,
    GroupDatum,
    RootSystem,
    SimpleType,
    closure,
)

from .torus import (
    DEFAULT_POINT_CAP,
    Subsystem,
    centralizer_masks_for,
    subgroup_points,
)

# ---------------------------------------------------------------------------
# subset machinery


def subsystem_from_base(rs: RootSystem, base_indices) -> Subsystem:
    """Closed subsystem generated by a simple system, by reflection closure."""
    perms = [rs.reflection_perm(b) for b in base_indices]
    seen = closure(base_indices, lambda i: [perm[i] for perm in perms])
    return Subsystem(rs, [*seen, *(rs.negate[i] for i in seen)])


def orbit_of_subset(rs: RootSystem, indices) -> list[frozenset]:
    """W-orbit of a root subset, via the simple-reflection permutations."""
    perms = rs.simple_reflection_perms
    orbit = closure([frozenset(indices)],
                    lambda s: [frozenset(perm[i] for i in s) for perm in perms])
    return sorted(orbit, key=lambda s: tuple(sorted(s)))


def keyed_orbit(rs: RootSystem, indices) -> dict[frozenset, tuple[int, ...]]:
    """Every member of the W-orbit of a root subset, mapped to the class
    key: the lexicographically least member, as a sorted tuple."""
    orbit = orbit_of_subset(rs, indices)
    return dict.fromkeys(orbit, tuple(sorted(orbit[0])))


def canonical_subset(rs: RootSystem, indices) -> tuple[int, ...]:
    """Lexicographically least member of the W-orbit, as a sorted tuple."""
    indices = frozenset(indices)
    return keyed_orbit(rs, indices)[indices]


def class_keys(rs: RootSystem, sets) -> list[tuple[int, ...]]:
    """canonical_subset of each frozenset, one orbit search per W-class:
    every member of a searched orbit is keyed at once."""
    keys = {}
    for s in sets:
        if s not in keys:
            keys.update(keyed_orbit(rs, s))
    return [keys[s] for s in sets]


# ---------------------------------------------------------------------------
# Borel-de Siebenthal classification


class CoendoscopicClass:
    """A split elliptic coendoscopic class, given by per-factor node choices.

    ``choices[f]`` is None (factor untouched) or (global_node, h) with h the
    prime highest-root coefficient at that node.  The representative torsion
    point is the sum over chosen nodes of (fundamental coweight)/h.
    """

    def __init__(self, rs: RootSystem, choices, subsystem: Subsystem,
                 equivalent_nodes=()):
        self.rs = rs
        self.choices = tuple(choices)
        self.subsystem = subsystem
        self.equivalent_nodes = tuple(equivalent_nodes)
        self.rational_over_fq = None

    @property
    def is_whole_group(self) -> bool:
        return all(c is None for c in self.choices)

    @property
    def deleted_node(self):
        """The chosen node, a tuple of them for several, None for G."""
        nodes = [c[0] for c in self.choices if c is not None]
        if not nodes:
            return None
        return nodes[0] if len(nodes) == 1 else tuple(nodes)

    @property
    def signature(self) -> str:
        return self.subsystem.signature

    def __repr__(self):
        tag = "G" if self.is_whole_group else str(self.deleted_node)
        return f"CoendoscopicClass({self.signature}, node={tag})"


def borel_de_siebenthal(rs: RootSystem) -> list[CoendoscopicClass]:
    """Nontrivial coendoscopic classes: the prime-node deletions of the
    whole system, W-conjugate ones merged, combined over factors.

    W is the product of the factors' Weyl groups, so options in different
    factors or of different types are never W-conjugate: only options of
    one factor that share a signature are searched for conjugates.  A
    deletion in one factor leaves the others whole, so choosing a
    deletion in each of several factors gives the intersection of their
    subsystems.
    """
    whole = Subsystem(rs, range(len(rs.roots)))
    base = whole.base_indices
    steps = [(rs.roots[base[t]].factor, rs.simple_indices.index(base[t]), h,
              sub) for t, h, sub in _prime_steps(rs, whole)]
    sigs = Counter((f, sub.signature) for f, _, _, sub in steps)
    keys = iter(class_keys(rs, [sub.indices for f, _, _, sub in steps
                                if sigs[f, sub.signature] > 1]))
    merged = {}
    for f, node, h, sub in steps:
        key = next(keys) if sigs[f, sub.signature] > 1 else None
        merged.setdefault((f, sub.signature, key), []).append((node, h, sub))
    per_factor = [[None] for _ in rs.simple_factors]
    for (factor, _, _), group in merged.items():
        node, h, sub = min(group, key=itemgetter(0))
        nodes = tuple(sorted(n for n, _, _ in group))
        per_factor[factor].append(((node, h), sub, nodes))
    classes = []
    for combo in itertools.product(*per_factor):
        chosen = [c for c in combo if c is not None]
        if not chosen:
            continue
        indices = frozenset.intersection(*(sub.indices for _, sub, _ in chosen))
        classes.append(CoendoscopicClass(
            rs, [None if c is None else c[0] for c in combo],
            Subsystem(rs, indices),
            tuple(nodes for _, _, nodes in chosen if len(nodes) > 1),
        ))
    classes.sort(
        key=lambda cl: tuple(-1 if c is None else c[0] for c in cl.choices)
    )
    return classes


def classify(datum: GroupDatum, q: int) -> list[CoendoscopicClass]:
    """All coendoscopic classes (whole group first) with rationality flags.

    A class is rational over F_q iff (q-1) times its representative point
    lies in X_*(T): it has (q-1)/h at each chosen node, and X_* lies in
    Z^r, so this is h | q-1 at each chosen node plus a membership test.
    """
    rs = datum.root_system
    whole = CoendoscopicClass(
        rs, [None] * len(rs.simple_factors),
        Subsystem(rs, range(len(rs.roots))),
    )
    whole.rational_over_fq = True
    out = [whole]
    for cl in borel_de_siebenthal(rs):
        chosen = [c for c in cl.choices if c is not None]
        scaled = [0] * rs.rank
        for node, h in chosen:
            scaled[node] = (q - 1) // h
        cl.rational_over_fq = (all((q - 1) % h == 0 for _, h in chosen)
                               and datum.cochar.contains(scaled))
        out.append(cl)
    return out


# ---------------------------------------------------------------------------
# full-rank closed subsystems by iterated deletion


def _prime_steps(rs: RootSystem, sub: Subsystem) -> list[tuple[int, int, Subsystem]]:
    """Every prime-coefficient deletion step on sub, as (t, h, subsystem).

    For each component of sub and each base position t in it whose
    coefficient h in the component's highest root is prime, the base loses
    t and gains the negative of that highest root (A. Borel and J. de
    Siebenthal, 1949); the other components stay whole.
    """
    base = sub.base_indices
    # a root c = e A on the base rows A has e = c adj(A) / det A
    adj, d = il.adjugate([rs.roots[i].coeffs for i in base])
    comp_of = {t: c for c, comp in enumerate(sub.components) for t in comp}
    # the support of a positive root lies in one component
    comp_roots = [[] for _ in sub.components]
    for i in sub.positive_indices:
        exp = tuple(x // d for x in il.vecmat(rs.roots[i].coeffs, adj))
        comp_roots[comp_of[next(t for t, x in enumerate(exp) if x)]].append(
            (sum(exp), i, exp))
    out = []
    for comp, roots in zip(sub.components, comp_roots):
        _, best, best_exp = max(roots)  # the component's highest root
        for t in comp:
            h = best_exp[t]
            if h < 2 or any(h % p == 0 for p in range(2, h)):
                continue
            new_base = [b for s, b in enumerate(base) if s != t]
            new_base.append(rs.negate[best])
            out.append((t, h, subsystem_from_base(rs, new_base)))
    return out


DEFAULT_CANDIDATE_CAP = 10_000


class Candidates(list):
    """The full-rank closed subsystems in key order, with ``class_keys``:
    the class key of each, recorded by the orbit search that found it."""

    def __init__(self, subsystems, class_keys):
        super().__init__(subsystems)
        self.class_keys = class_keys


def equal_rank_subsystems(rs: RootSystem,
                          cap: int = DEFAULT_CANDIDATE_CAP) -> Candidates:
    """Every full-rank closed subsystem, as explicit root subsets.

    Closure of the whole system under prime-node deletion steps and the
    Weyl action, one orbit search per W-class, which keys every member of
    the class.  CapExceeded is raised as soon as more than ``cap``
    subsystems are found; a complete list is cached on the root system.
    """
    cached = getattr(rs, "_equal_rank_subs", None)
    if cached is not None and len(cached) <= cap:
        return cached
    keys = {}
    worklist = [frozenset(range(len(rs.roots)))]
    while worklist:
        s = worklist.pop()
        if s in keys:
            continue
        orbit = keyed_orbit(rs, s)
        keys.update(orbit)
        if len(keys) > cap:
            raise CapExceeded(
                f"full-rank closed subsystems exceed cap {cap} "
                "(caps.candidates)", order=len(keys))
        worklist += [step.indices
                     for _, _, step in _prime_steps(rs, Subsystem(rs, orbit[s]))]
    subs = sorted((Subsystem(rs, s) for s in keys), key=attrgetter("key"))
    out = Candidates(subs, [keys[sub.indices] for sub in subs])
    rs._equal_rank_subs = out
    return out


# ---------------------------------------------------------------------------
# strata and the poset


class Stratum:
    """An element of the elliptic stratification: a full-rank centralizer
    subsystem together with its group data at a fixed q.

    ``class_key`` is the canonical key of the subsystem's W-class.  As
    w·Z_c = Z_{w·c}, ``z_order`` and ``z_invariants`` are those of
    ``z_class``, the group Z(F_q) of the class representative (the member
    whose key is the class key).  ``z_group``, with generators of this
    stratum's own group, is ``z_class`` on the representative and is
    solved on first use on the other members.

    On the enumerate route ``s_points`` holds the sweep indices of the
    stratum's points (``point_from_index`` gives their residues); the
    classify route lists no points.
    """

    def __init__(self, datum: GroupDatum, q: int, subsystem: Subsystem,
                 class_key: tuple[int, ...], z_class: FiniteAbelianGroup,
                 s_size: int, s_points=None):
        self.datum = datum
        self.q = q
        self.subsystem = subsystem
        self.class_key = class_key
        self.z_order = z_class.order
        self.z_invariants = z_class.invariants
        self.s_size = s_size
        self.s_points = s_points
        if subsystem.key == class_key:
            self.z_group = z_class

    @cached_property
    def z_group(self) -> FiniteAbelianGroup:
        return subgroup_points(self.datum, self.q, self.subsystem)

    @property
    def key(self) -> tuple[int, ...]:
        return self.subsystem.key

    @property
    def signature(self) -> str:
        return self.subsystem.signature

    def __repr__(self):
        return (
            f"Stratum({self.signature}, |Z|={self.z_order}, |S|={self.s_size})"
        )


def _class_groups(datum: GroupDatum, q: int, subs,
                  keys) -> dict[tuple[int, ...], FiniteAbelianGroup]:
    """Z(F_q) of each W-class among the subsystems, keyed by class key:
    one Smith form per class, solved for its representative."""
    return {key: subgroup_points(datum, q, sub)
            for sub, key in zip(subs, keys) if sub.key == key}


class StrataPoset:
    """The poset of realized elliptic strata at a fixed q.

    Order: i <= j iff the subsystem of j is contained in that of i.  The
    strata are sorted by decreasing root count, so index 0 is the minimal
    element, the central stratum with the full root system.
    """

    def __init__(self, datum: GroupDatum, q: int, route: str,
                 strata: list[Stratum], warnings=()):
        self.datum = datum
        self.q = q
        self.route = route
        self.strata = sorted(
            strata, key=lambda st: (-len(st.subsystem.indices), st.key)
        )
        self.warnings = tuple(warnings)
        sets = [st.subsystem.indices for st in self.strata]
        # canonical_subset of each stratum: the lex-least member of its W-class
        self.class_keys = [st.class_key for st in self.strata]
        # i <= j only if i has at least as many roots, so i <= j implies
        # index i <= index j
        self._below = [
            tuple(i for i in range(j + 1) if sets[j] <= sets[i])
            for j in range(len(sets))
        ]
        self.mobius_table = _mobius(self._below)

    def __len__(self):
        return len(self.strata)

    def below(self, j: int) -> tuple[int, ...]:
        return self._below[j]

    def class_representatives(self) -> list[int]:
        """Strata that are the lex-least subset in their W-orbit."""
        return [
            i for i, (st, key) in enumerate(zip(self.strata, self.class_keys))
            if st.key == key
        ]

    def summary(self) -> list[dict]:
        """One row per stratum, from class data: W-conjugate strata (equal
        class keys) have the same type, so each class's signature is
        computed once, and no generators of Z are solved."""
        signatures = {}
        for st, key in zip(self.strata, self.class_keys):
            if key not in signatures:
                signatures[key] = st.signature
        return [
            {
                "signature": signatures[key],
                "roots": len(st.subsystem.indices),
                "z_invariants": list(st.z_invariants),
                "z_order": st.z_order,
                "s_size": st.s_size,
                "canonical": st.key == key,
            }
            for st, key in zip(self.strata, self.class_keys)
        ]


def _mobius(below) -> dict[tuple[int, int], int]:
    """mu(i, j) for every i <= j, given ``below[j]``, the indices i <= j in
    increasing order and ending with j: column by column, mu(j, j) = 1 and
    mu(i, j) = -sum of mu(i, k) over i <= k < j."""
    table: dict[tuple[int, int], int] = {}
    for j, column in enumerate(below):
        for k in column[:-1]:
            for i in below[k]:
                table[(i, j)] = table.get((i, j), 0) - table[(i, k)]
        table[(j, j)] = 1
    return table


def strata_poset(
    datum: GroupDatum,
    q: int,
    route: str = "enumerate",
    point_cap: int = DEFAULT_POINT_CAP,
    candidate_cap: int = DEFAULT_CANDIDATE_CAP,
) -> StrataPoset:
    """Build the realized elliptic strata poset at q by either route.

    Neither route enumerates W: the strata are W-classes of root subsets,
    found by orbit searches under the simple reflections.
    """
    if route == "enumerate":
        poset = _strata_by_enumeration(datum, q, point_cap)
    elif route == "classify":
        poset = _strata_by_classification(datum, q, candidate_cap)
    else:
        raise ValueError(f"unknown route {route!r}")
    return poset


def _strata_by_enumeration(datum, q, point_cap) -> StrataPoset:
    rs = datum.root_system
    # only the elliptic points come back, so each distinct mask is a stratum
    _, masks, pos = centralizer_masks_for(datum, q, cap=point_cap)
    groups: dict[int, list[int]] = {}
    for idx, mask in masks.items():
        groups.setdefault(mask, []).append(idx)
    subs = []
    for mask in groups:
        indices = [pos[b] for b in range(len(pos)) if mask >> b & 1]
        indices += [rs.negate[i] for i in indices]
        subs.append(Subsystem(rs, indices))
    keys = class_keys(rs, [sub.indices for sub in subs])
    z_of = _class_groups(datum, q, subs, keys)
    strata = [Stratum(datum, q, sub, key, z_of[key], len(pts), tuple(pts))
              for sub, key, pts in zip(subs, keys, groups.values())]
    poset = StrataPoset(datum, q, "enumerate", strata)
    poset._masks = masks
    poset._mask_of = dict(zip((sub.key for sub in subs), groups))
    return poset


def _strata_by_classification(datum, q, candidate_cap) -> StrataPoset:
    rs = datum.root_system
    cands = equal_rank_subsystems(rs, candidate_cap)
    z_of = _class_groups(datum, q, cands, cands.class_keys)
    # Möbius inversion of |Z_c| = sum of |S_d| over d >= c, by
    # back-substitution: a candidate with more roots comes first, so every
    # stratum above c is already known, and only nonempty ones count
    strata = []
    for cand, key in sorted(zip(cands, cands.class_keys),
                            key=lambda pair: -len(pair[0].indices)):
        z = z_of[key]
        size = z.order - sum(st.s_size for st in strata
                             if cand.indices < st.subsystem.indices)
        if size < 0:
            raise AssertionError("negative stratum size from inversion")
        if size > 0:
            strata.append(Stratum(datum, q, cand, key, z, size))
    warnings = []
    for t in rs.simple_factors:
        need = car_divisor(t)
        if need is not None and (q - 1) % need:
            # stratum sizes stay exact: they come from inversion over the
            # full geometric candidate poset, not from the divisibility table
            warnings.append(
                f"{t}: divisibility {need} | q-1 fails at q={q}; sizes "
                "recovered by inversion remain exact"
            )
    return StrataPoset(datum, q, "classify", strata, warnings)


# ---------------------------------------------------------------------------
# verdicts and table checks


class Verdict:
    """Outcome of a structural check, with a reproducible witness on failure."""

    def __init__(self, name: str, instance: str, passed: bool, witness=None,
                 details=None):
        self.name = name
        self.instance = instance
        self.passed = passed
        self.witness = witness
        self.details = details or {}

    def __bool__(self):
        return self.passed

    def __repr__(self):
        tag = "pass" if self.passed else "FAIL"
        return f"Verdict({self.name}@{self.instance}: {tag})"

    def to_record(self):
        return {
            "check": self.name,
            "instance": self.instance,
            "passed": self.passed,
            "witness": self.witness,
            "details": self.details,
        }


def reeder_partition_check(poset: StrataPoset) -> Verdict:
    """Exact check of Z_i(F_q) = disjoint union of S_j over j <= i.

    |Z_i| is counted afresh from the swept masks: a point lies in Z_i iff
    its mask contains that of stratum i.  The points of the strata below
    i are then checked one by one against the same masks.  The sweep kept
    only the elliptic points, and that loses none of Z_i: a root set
    containing stratum i's full-rank one has full rank.  A point it did
    not keep reads as mask 0.
    """
    inst = f"{poset.datum.root_system}@q={poset.q}"
    if poset.route != "enumerate":
        return Verdict("reeder_partition", inst, False,
                       witness="requires an enumerate-route poset")
    masks = poset._masks
    mask_counts = Counter(masks.values())
    for i, st in enumerate(poset.strata):
        mask_i = poset._mask_of[st.key]
        direct = sum(count for mk, count in mask_counts.items()
                     if mk & mask_i == mask_i)
        if direct != st.z_order:
            return Verdict(
                "reeder_partition", inst, False,
                witness={"stratum": st.signature, "direct": direct,
                         "group_order": st.z_order},
            )
        covered: set[int] = set()
        for j in poset.below(i):
            idxs = set(poset.strata[j].s_points)
            if covered & idxs:
                return Verdict("reeder_partition", inst, False,
                               witness={"stratum": st.signature,
                                        "overlap_with": poset.strata[j].signature})
            covered |= idxs
        inside = sum(1 for idx in covered
                     if masks.get(idx, 0) & mask_i == mask_i)
        if inside != direct or inside != len(covered):
            return Verdict("reeder_partition", inst, False,
                           witness={"stratum": st.signature,
                                    "missing": direct - inside,
                                    "extra": len(covered) - inside})
    return Verdict("reeder_partition", inst, True,
                   details={"strata": len(poset.strata)})


TABLE_CAR = {
    "A": lambda r: None,
    "B": lambda r: 4,
    "C": lambda r: 4 if r % 2 == 0 else 8,
    "D": lambda r: 4,
    "E": lambda r: {6: 18, 7: 12, 8: 30}[r],
    "F": lambda r: 6,
    "G": lambda r: 6,
}


def car_divisor(t: SimpleType) -> int | None:
    return TABLE_CAR[t.family](t.rank)
