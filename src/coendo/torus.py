"""Points of the split maximal torus over F_q and their centralizer data.

A point of T(F_q) is modelled as a residue vector v modulo q-1 in the
X_*(T) basis, standing for the torsion element t = v/(q-1) mod X_*(T).
Root evaluation is then an integer dot product modulo q-1, and every
operation below is exact.  q is always an explicit parameter so that the
same machinery runs over any extension field.

The sweep (``centralizer_masks_for``) covers every point but returns masks
only for the elliptic points, those whose centralizer has full rank.  On
each part (Z/f)^r of T(F_q), f a prime-power factor of q-1, the kernel
(``centralizer_masks``) builds each root's vanishing indicator over all
f^r points by joins from the indicators of the root's shorter coefficient
suffixes mod f, memoized for the call, so no Python code runs per point
and one code path serves every f.  Points whose roots have less than full
rank are dropped, counted from simple roots (``full_rank_test``).  A root
kills a point iff it kills each part, so the elliptic points are the
tuples of part points whose masks AND to a full-rank set.  A point is
named by its sweep index, a mixed-radix Chinese-remainder index over the
parts (``point_from_index``).  Subsystems are typed by Dynkin diagram.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from functools import cached_property
from itertools import compress
from operator import mul

from . import intlinalg as il
from .rootsys import (
    CapExceeded,
    FiniteAbelianGroup,
    GroupDatum,
    SimpleType,
    closure,
)

DEFAULT_POINT_CAP = 1_000_000


def prime_power_factors(m: int) -> list[int]:
    """The prime powers p^k exactly dividing m, by increasing p; trial
    division, enough for m up to the point cap."""
    factors, p = [], 2
    while p * p <= m:
        if m % p == 0:
            f = 1
            while m % p == 0:
                m, f = m // p, f * p
            factors.append(f)
        p += 1
    if m > 1:
        factors.append(m)
    return factors


def point_from_index(q: int, rank: int, index: int) -> tuple[int, ...]:
    """Sweep index -> residue vector modulo q-1.

    The index is a mixed-radix number with one digit in range(f^rank) per
    prime-power factor f of q-1, the first factor the most significant.
    A digit names a point modulo f, the last coordinate varying fastest,
    and the point modulo q-1 is the one that reduces to each of them
    (Chinese remainders).  When q-1 is a prime power, the points run
    through (Z/(q-1))^rank with the last coordinate varying fastest.
    """
    m = q - 1
    point = [0] * rank
    for f in reversed(prime_power_factors(m)):
        # e = 1 mod f and 0 modulo the other factors
        e = m // f * pow(m // f, -1, f) % m
        index, digit = divmod(index, f**rank)
        for j in range(rank - 1, -1, -1):
            digit, x = divmod(digit, f)
            point[j] = (point[j] + e * x) % m
    return tuple(point)


class Subsystem:
    """A closed, negation-stable set of roots of a parent root system."""

    def __init__(self, rs, indices):
        self.rs = rs
        self.indices = frozenset(indices)

    @cached_property
    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))

    @cached_property
    def positive_indices(self) -> tuple[int, ...]:
        # roots are sorted by height, so the positive ones come last
        return self.key[bisect_left(self.key, len(self.rs.roots) // 2):]

    @cached_property
    def rank(self) -> int:
        """Rank of the positive roots of the set (of all its roots when it
        is negation-stable), read off the base rows alone.

        Exact for any root set, closed or not: by induction on height,
        every positive root of the set is a base root or the sum of two
        positive roots of the set, each of smaller height, so the base
        spans every positive root of the set.
        """
        return il.rank([self.rs.roots[i].coeffs for i in self.base_indices])

    @cached_property
    def base_indices(self) -> tuple[int, ...]:
        """Positive roots of the set not the sum of two of its positive
        roots, for any root set: beta is one iff key(beta) - key(alpha) is
        the key of a positive root of the set for none of those alpha."""
        keys = self.rs.keys
        pos = self.positive_indices
        inside = {keys[i] for i in pos}
        return tuple(i for i in pos
                     if inside.isdisjoint(map(keys[i].__sub__, inside)))

    def is_closed(self) -> bool:
        """alpha, beta in the set and alpha+beta a root  =>  alpha+beta in the
        set; and the set is negation-stable.  Read off the roots' keys."""
        keys = self.rs.keys
        have = {keys[i] for i in self.indices}
        # a + b = c for a root c outside the set iff b = c - a.  In a
        # negation-stable set, a > 0 and c > 0 suffice: a + b = c < 0 with
        # a > 0 has b < 0, and then (-b) + (-a) = -c > 0 with -b > 0.
        outside = [c for c in keys[len(keys) // 2:] if c not in have]
        return (all(-k in have for k in have)
                and all(have.isdisjoint(map(keys[i].__rsub__, outside))
                        for i in self.positive_indices))

    @cached_property
    def base_cartan(self):
        base = self.base_indices
        roots = self.rs.roots
        return il.mat([[sum(map(mul, roots[i].coeffs, roots[j].coroot_ambient))
                        for j in base] for i in base])

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the base, as positions into base_indices."""
        n = len(self.base_indices)
        cart = self.base_cartan
        comps = []
        seen = set()
        for start in range(n):
            if start not in seen:
                comp = closure([start], lambda a: [b for b in range(n)
                                                   if cart[a][b]])
                seen.update(comp)
                comps.append(tuple(sorted(comp)))
        return tuple(comps)

    @cached_property
    def component_types(self) -> tuple[SimpleType, ...]:
        return tuple(
            identify_cartan([[self.base_cartan[a][b] for b in comp] for a in comp])
            for comp in self.components
        )

    @cached_property
    def signature(self) -> str:
        """Canonical type string, e.g. 'A1xA1xB2'; empty subsystem is '-'."""
        return "x".join(sorted(map(repr, self.component_types))) or "-"

    @cached_property
    def weyl_order(self) -> int:
        return math.prod(t.weyl_order for t in self.component_types)

    def __eq__(self, other):
        return isinstance(other, Subsystem) and self.indices == other.indices

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return f"Subsystem({self.signature}, {len(self.indices)} roots)"


def identify_cartan(cartan) -> SimpleType:
    """The type of an irreducible Cartan matrix, read off its Dynkin diagram
    (N. Bourbaki, Lie IV-VI, Plates I-IX).

    A -3 entry is G2.  At a double bond, with a the long node and b the
    short one (c[a][b] = -2), the type is B when b is an end node (so B2
    at rank 2), C when a is, and F4 otherwise.  A simply-laced diagram is
    A when it has no branch node, D when at least two arms at the branch
    node are single nodes, and E otherwise.
    """
    if any(-3 in row for row in cartan):
        return SimpleType("G", 2)
    n = len(cartan)
    degree = [sum(1 for x in row if x < 0) for row in cartan]
    ends = {i for i in range(n) if degree[i] == 1}
    double = [(a, b) for a in range(n) for b in range(n) if cartan[a][b] == -2]
    if double:
        (a, b), = double
        family = "B" if b in ends else "C" if a in ends else "F"
        return SimpleType(family, n)
    branch = [i for i in range(n) if degree[i] > 2]
    if not branch:
        return SimpleType("A", n)
    arms = [j for j in range(n) if cartan[branch[0]][j] < 0]
    return SimpleType("D" if len(ends.intersection(arms)) >= 2 else "E", n)


def centralizer_subsystem(datum: GroupDatum, q: int, residues) -> Subsystem:
    """Roots alpha with <alpha, v> = 0 mod q-1, i.e. alpha(s) = 1, for the
    point s with residue vector v; one dot product per positive root, no
    sweep.  The functional of -alpha is minus that of alpha, so -alpha
    kills s exactly when alpha does."""
    m = q - 1
    rs = datum.root_system
    funcs = datum.root_functionals
    pos = [i for i in rs.positive_indices
           if sum(map(mul, funcs[i], residues)) % m == 0]
    return Subsystem(rs, pos + [rs.negate[i] for i in pos])


def subgroup_points(datum: GroupDatum, q: int, sub: Subsystem) -> FiniteAbelianGroup:
    """The group {t in T(F_q) : alpha(t) = 1 for all alpha in the subsystem}.

    Solved exactly from the congruence system <alpha, v> = 0 mod q-1 by one
    Smith form u a v = d; no point enumeration.  Column j of v spans a
    cyclic factor of order gcd(d_j, q-1), or q-1 where d_j = 0.  The d_j
    form a divisibility chain with the zeros last, so these orders do too,
    and the columns are independent because v is unimodular: the result is
    already in invariant-factor form.  Generators are residue vectors.
    """
    m = q - 1
    r = datum.root_system.rank
    base = sub.base_indices
    if not base:
        return FiniteAbelianGroup([m] * r, il.identity(r))
    funcs = datum.root_functionals
    d, _, v = il.snf_transform(il.mat([funcs[i] for i in base]))
    k = len(base)
    gens, orders = [], []
    for j in range(r):
        dj = d[j][j] if j < k else 0
        order = math.gcd(dj, m) if dj else m
        if order > 1:
            mult = m // order
            gens.append(tuple(mult * v[i][j] % m for i in range(r)))
            orders.append(order)
    return FiniteAbelianGroup(orders, gens)


# Set bits of each byte value, as a bytes.translate table.
POPCOUNT = bytes(bin(b).count("1") for b in range(256))


def centralizer_masks(rows, m, least):
    """Vanishing bitmasks of the points of (Z/m)^r killed by >= ``least`` rows.

    ``rows`` is a k x r integer matrix.  Points v run through (Z/m)^r with
    the last coordinate varying fastest, point ``idx`` being the idx-th.
    Returns ``(kills, kept)``: ``kills`` is an m^r-byte string whose byte
    idx is min(number of rows vanishing at v, least), and ``kept`` maps
    each idx with ``kills[idx] == least`` to its mask, in which bit i is
    set iff rows[i]·v == 0 mod m.

    No Python code runs per point, only per kept point.  Row i becomes a
    0/1 byte string over all points, 1 where it vanishes, built from the
    last coordinate: for the suffix (a_j, ..., a_{r-1}) of the row mod m,
    ``ind[d]`` is that string over the coordinates j.. given the residue d
    of the dot product with the ones before j, the join of the m strings
    ``ind[(d + a_j·x) % m]`` of the next suffix.  The lists are memoized by
    suffix for the call, so rows that share a suffix share every level
    below it, and the joins hold any m.  Each group of 8 rows is OR-ed into
    one byte plane, row i at bit i % 8.  A plane's popcount lanes are added
    to the running counts as big ints, and the sum is capped at ``least``
    by ``translate``: a lane then never exceeds least + 8 <= 255, so it
    never carries into its neighbour.  The masks of the kept points are
    read back from their bytes in the planes.
    """
    if not 0 <= least <= 247:
        raise ValueError("least must lie in 0..247")
    r = len(rows[0])
    n = m**r
    cap = bytes(range(least)) + bytes([least]) * (256 - least)
    kills = bytes(n)
    planes = []
    memo = {(): [b"\1"] + [b"\0"] * (m - 1)}
    for g in range(0, len(rows), 8):
        plane = 0
        for i in range(g, min(g + 8, len(rows))):
            row = tuple(map(m.__rmod__, rows[i]))
            ind = memo[()]
            for j in range(r - 1, -1, -1):
                below, ind = ind, memo.get(row[j:])
                if ind is None:
                    # below[(d + s) % m] over steps: a gather from a rotation
                    steps = [row[j] * x % m for x in range(m)]
                    ind = memo[row[j:]] = [
                        b"".join(map((below[d:] + below[:d]).__getitem__,
                                     steps)) for d in range(m if j else 1)]
            plane |= int.from_bytes(ind[0], "little") << i % 8
        planes.append(plane := plane.to_bytes(n, "little"))
        total = (int.from_bytes(kills, "little")
                 + int.from_bytes(plane.translate(POPCOUNT), "little"))
        kills = total.to_bytes(n, "little").translate(cap)
    reached = bytes(least) + b"\1" * (256 - least)
    kept = list(compress(range(n), kills.translate(reached)))
    # byte g of a kept point's mask is its byte in plane g; each 8 bytes
    # of it make one little-endian 64-bit word
    width = -(-len(planes) // 8)
    packed = bytearray(8 * width * len(kept))
    for g, plane in enumerate(planes):
        packed[g::8 * width] = bytes(map(plane.__getitem__, kept))
    words = array("Q", packed)
    if sys.byteorder == "big":
        words.byteswap()
    masks = words[::width].tolist()
    for w in range(1, width):
        masks = [lo | hi << 64 * w for lo, hi in zip(masks, words[w::width])]
    return kills, dict(zip(kept, masks))


def full_rank_test(rs, pos):
    """The test mask -> "the roots of mask have full rank", for masks over
    all positive roots ``pos`` in height order (bit b for root pos[b])
    that are the positive part of a closed, negation-stable root set, as
    the roots that kill a point are.

    Such a set is a root system; a positive root of it is a simple root
    plus a lower positive root of it unless it is simple (Bourbaki, Lie VI
    §1.6), and no difference of two simple roots is a root.  The set is
    closed, so beta - s is in it when it is a root.  A test walks the
    mask's bits upward, calls a bit simple unless pos[j] - s is a root for
    a simple s found before (``lower[j]`` has bit l when pos[j] - pos[l]
    is a positive root, found from key differences), and stops at r of
    them: one AND per bit, once per mask.
    """
    r = rs.rank
    keys = [rs.keys[i] for i in pos]
    value = {k: 1 << b for b, k in enumerate(keys)}
    # pos[j] - pos[l] = pos[b] iff pos[j] - pos[b] = pos[l]: bit l of
    # lower[j] is the value of the key difference with some pos[b]
    lower = [sum(filter(None, map(value.get, map(k.__sub__, keys))))
             for k in keys]
    cache = {}

    def test(mask):
        full = cache.get(mask)
        if full is None:
            simple = count = 0
            rest = mask
            while rest and count < r:
                low = rest & -rest
                if not lower[low.bit_length() - 1] & simple:
                    simple |= low
                    count += 1
                rest ^= low
            full = cache[mask] = count == r
        return full

    return test


def centralizer_masks_for(datum: GroupDatum, q: int, cap: int = DEFAULT_POINT_CAP):
    """Vanishing masks over the positive roots of the elliptic points of
    T(F_q): the points whose centralizer has full rank.

    Returns ``(kills, masks, positive_root_indices)``.  ``masks`` maps an
    elliptic point's index idx, standing for ``point_from_index(q, r,
    idx)``, in increasing order, to its mask, in which bit b is set iff
    the root ``positive_root_indices[b]`` kills that point.

    ``centralizer_masks`` sweeps each part (Z/f)^r, f a prime-power factor
    of q-1, with ``least`` the rank, and ``full_rank_test`` drops the kept
    points of the part whose roots have less than full rank.  A point's
    mask is the AND of its parts' masks, a subset of each, so a dropped
    part point has no elliptic point over it.  From the one-point empty
    product, killed by every root, each part joins a point x so far and a
    kept part point y into x·f^r + y, of mask a & b, kept when that has
    full rank; x and y ascend and y < f^r, so the indices do too.
    ``kills`` concatenates the parts' ``kills``, one byte per point visited.
    """
    rs = datum.root_system
    r = rs.rank
    m = q - 1
    total = m ** r
    if total > cap:
        raise CapExceeded(f"|T(F_q)| = {total} exceeds cap {cap} "
                          "(caps.points)", order=total)
    pos = rs.positive_indices
    rows = [datum.root_functionals[i] for i in pos]
    full_rank = full_rank_test(rs, pos)
    swept, masks = [], {0: (1 << len(pos)) - 1}
    for f in prime_power_factors(m):
        kills, kept = centralizer_masks(rows, f, r)
        swept.append(kills)
        kept = [(y, b) for y, b in kept.items() if full_rank(b)]
        size = f**r
        masks = {x * size + y: a & b for x, a in masks.items()
                 for y, b in kept if full_rank(a & b)}
    return b"".join(swept), masks, pos
