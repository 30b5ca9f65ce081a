"""Root systems, Weyl groups and lattices with exact integer arithmetic.

Coordinates
-----------
The ambient space is X_*(T) tensor Q with the *fundamental coweight* basis
of the (product) root system.  In these coordinates:

* a root alpha = sum c_i alpha_i is the integer functional row ``c``, and
  the pairing <alpha, x> is the plain dot product c . x;
* the simple coroot alpha_j^vee is column j of the Cartan matrix, so the
  coroot lattice has basis matrix C and the coweight lattice the identity;
* every lattice between them (any cocharacter lattice of a semisimple
  group) has an integer basis matrix B, and a lattice holds the integer
  pair (adj B, det B) in place of B^-1, so membership and coordinates
  need no fractions;
* the index of a full-rank sublattice is a ratio of determinants
  (``coroot_index``), with no Smith normal form.

Weyl elements are permutations of the roots.  The characteristic of q
comes from integer roots of q and a deterministic Miller-Rabin test.

All structures are immutable after construction; the functions here are
pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from itertools import compress
from operator import add, itemgetter, neg

from . import intlinalg as il
from .intlinalg import Matrix, Vector

DEFAULT_WEYL_CAP = 1_000_000

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
EXCEPTIONAL_WEYL_ORDERS = {"E6": 51840, "E7": 2903040, "E8": 696729600,
                           "F4": 1152, "G2": 12}


class IllegalType(ValueError):
    """Not a legal Dynkin type."""


class CapExceeded(RuntimeError):
    """Enumeration would exceed the configured cap.

    ``order`` holds the exact figure that passed the cap: |W| from the
    degrees (caps.weyl), |T(F_q)| (caps.points) or the number of coset
    tuples (caps.orbits); for caps.candidates, the number of full-rank
    closed subsystems found when the search stopped, a lower bound.
    """

    def __init__(self, message: str, order: int | None = None):
        super().__init__(message)
        self.order = order


class NotASublattice(ValueError):
    pass


class NotFullRank(ValueError):
    pass


class BadCharacteristic(ValueError):
    pass


class SimpleType:
    """A simple Dynkin type, e.g. B3 (validity: B needs rank >= 2, etc.)."""

    _MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "F": 4, "G": 2}

    def __init__(self, family: str, rank: int):
        family = family.upper()
        if family not in FAMILIES:
            raise IllegalType(f"unknown family {family!r}")
        if family == "E":
            if rank not in (6, 7, 8):
                raise IllegalType(f"E{rank} is not a legal type")
        elif family in ("F", "G"):
            if rank != self._MIN_RANK[family]:
                raise IllegalType(f"{family}{rank} is not a legal type")
        elif rank < self._MIN_RANK[family]:
            raise IllegalType(f"{family}{rank} is not a legal type")
        self.family = family
        self.rank = rank

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise IllegalType(f"cannot parse type {text!r}")
        return cls(text[0], int(text[1:]))

    def cartan(self) -> Matrix:
        """Cartan matrix C with C[i][j] = <alpha_i, alpha_j^vee> (Bourbaki)."""
        r = self.rank
        c = [[2 * (i == j) for j in range(r)] for i in range(r)]

        def link(i, j, cij=-1, cji=-1):
            c[i][j] = cij
            c[j][i] = cji

        fam = self.family
        if fam in ("A", "B", "C"):
            for i in range(r - 1):
                link(i, i + 1)
            if fam == "B":
                link(r - 2, r - 1, -2, -1)
            elif fam == "C":
                link(r - 2, r - 1, -1, -2)
        elif fam == "D":
            for i in range(r - 3):
                link(i, i + 1)
            link(r - 3, r - 2)
            link(r - 3, r - 1)
        elif fam == "E":
            # Bourbaki: chain 1-3-4-5-..., node 2 hangs off node 4
            chain = [0] + list(range(2, r))
            for a, b in zip(chain, chain[1:]):
                link(a, b)
            link(1, 3)
        elif fam == "F":
            link(0, 1)
            link(1, 2, -2, -1)
            link(2, 3)
        elif fam == "G":
            link(0, 1, -1, -3)
        return il.mat(c)

    @property
    def weyl_order(self) -> int:
        """|W| from its closed form, without building the root system."""
        n = self.rank
        if self.family == "A":
            return math.factorial(n + 1)
        if self.family in ("B", "C"):
            return 2**n * math.factorial(n)
        if self.family == "D":
            return 2 ** (n - 1) * math.factorial(n)
        return EXCEPTIONAL_WEYL_ORDERS[repr(self)]

    def __repr__(self):
        return f"{self.family}{self.rank}"

    def __eq__(self, other):
        return isinstance(other, SimpleType) and repr(other) == repr(self)

    def __hash__(self):
        return hash((self.family, self.rank))


class Root:
    """A root in simple-root coefficients, with its coroot in fundamental
    coweight coordinates."""

    __slots__ = ("coeffs", "factor", "height", "index", "coroot_ambient")

    def __init__(self, coeffs: Vector, factor: int, index: int,
                 coroot_ambient: Vector):
        self.coeffs = coeffs
        self.factor = factor
        self.height = sum(coeffs)
        self.index = index
        self.coroot_ambient = coroot_ambient

    @property
    def positive(self) -> bool:
        return self.height > 0

    def __repr__(self):
        return f"Root{self.coeffs}"


def closure(seeds, neighbours, limit=math.inf) -> dict:
    """Everything reachable from ``seeds`` by ``neighbours``, mapped to its
    distance from the seeds.

    Keys are in breadth-first discovery order: the seeds first (a repeated
    seed once), then level by level, each element's neighbours in the order
    the callable yields them.  Once more than ``limit`` are found, the
    search stops at the end of that level and returns what it found.
    """
    dist = dict.fromkeys(seeds, 0)
    frontier = list(dist)
    depth = 0
    while frontier and len(dist) <= limit:
        depth += 1
        new = []
        for x in frontier:
            for y in neighbours(x):
                if y not in dist:
                    dist[y] = depth
                    new.append(y)
        frontier = new
    return dist


class RootSystem:
    """Product of simple root systems; see module docstring for coordinates."""

    def __init__(self, factors: list[SimpleType]):
        if not factors:
            raise IllegalType("empty factor list")
        self.simple_factors = tuple(factors)
        self.rank = r = sum(t.rank for t in factors)
        cart, factor_of = [], []
        for fi, t in enumerate(factors):
            off = len(cart)
            cart += [(0,) * off + row + (0,) * (r - off - t.rank)
                     for row in t.cartan()]
            factor_of += [fi] * t.rank
        self.cartan = cart = tuple(cart)
        cols = tuple(zip(*cart))
        # (i, C[j][i], C[i][j]) for the nodes i linked to node j
        links = [[(i, a, cols[j][i]) for i, a in enumerate(row)
                  if a and i != j] for j, row in enumerate(cart)]

        # a root's key is its coefficients as base-32 digits, so keys add as
        # roots do; marks are at most 6, so a sum or difference of two roots
        # (coefficients in -12..12) is a root iff its key is a root's key.
        # A positive root's key maps to its coefficients c, pairing row
        # p = c C, coroot x and factor.  s_j sends key k to k - p_j 32^j, a
        # new root taking (c - p_j e_j, p - p_j C[j], x - x_j C^T[j]) from
        # its parent, and permutes the positive roots but alpha_j, so the
        # closure of the simple roots finds them all (Bourbaki, Lie VI
        # §1.6).  ``moves`` records each root's images where p_j != 0.
        unit = [1 << 5 * j for j in range(r)]
        data = {unit[i]: (tuple(int(i == j) for j in range(r)), cart[i],
                          cols[i], factor_of[i]) for i in range(r)}
        moves = {}

        def step(k):
            c, p, x, f = data[k]
            moves[k] = out = {j: k - p[j] * unit[j]
                              for j in compress(range(r), p)}
            for j, d in out.items():
                if d > 0 and d not in data:
                    pj, xj, p2, x2 = p[j], x[j], list(p), list(x)
                    p2[j], x2[j] = -pj, -xj
                    for i, a, b in links[j]:
                        p2[i] -= pj * a
                        x2[i] -= xj * b
                    data[d] = (c[:j] + (c[j] - pj,) + c[j + 1:], tuple(p2),
                               tuple(x2), f)
            return [d for d in out.values() if d > 0]

        closure(unit, step)
        pos = sorted(data, key=lambda k: (sum(data[k][0]), data[k][0]))
        # roots sorted by (height, coefficients): the negatives are the
        # positives negated in reverse, so root i has negative 2N - 1 - i
        n = 2 * len(pos)
        self.keys = keys = tuple([-k for k in reversed(pos)] + pos)
        self.key_index = key_index = dict(zip(keys, range(n)))
        self.roots = tuple(
            Root(c, f, i, x) if k > 0 else
            Root(tuple(map(neg, c)), f, i, tuple(map(neg, x)))
            for i, k in enumerate(keys)
            for c, _, x, f in [data[abs(k)]])
        self.simple_indices = tuple(map(key_index.__getitem__, unit))
        self.positive_indices = tuple(range(n // 2, n))
        self.negate = tuple(range(n - 1, -1, -1))
        # root-index permutations of the simple reflections, in node order;
        # s_j(-beta) = -s_j(beta)
        perms = [list(range(n)) for _ in range(r)]
        for i, k in enumerate(pos, n // 2):
            for j, d in moves[k].items():
                perms[j][i] = t = key_index[d]
                perms[j][n - 1 - i] = n - 1 - t
        self.simple_reflection_perms = tuple(map(tuple, perms))

    @property
    def num_roots(self) -> int:
        return len(self.roots)

    @property
    def dim_g(self) -> int:
        return len(self.roots) + self.rank

    def reflection_word(self, root_index: int) -> list[int]:
        """The reflection in the given root as a word in the simple
        reflections (node indices): the palindrome j_1 ... j_k t j_k ... j_1.

        s_beta = s_-beta.  A positive root beta that is not simple has a
        node j with <beta, alpha_j^vee> > 0, so gamma = s_j beta is a
        positive root of smaller height (a smaller index, roots being
        sorted by height), and s_beta = s_j s_gamma s_j (Bourbaki, Lie VI
        §1.6).  The descent j_1, ..., j_k ends at a simple root alpha_t.
        """
        beta = max(root_index, self.negate[root_index])  # the positive one
        simple, perms = self.simple_indices, self.simple_reflection_perms
        descent = []
        while beta not in simple:
            j = next(j for j, p in enumerate(perms) if p[beta] < beta)
            descent.append(j)
            beta = perms[j][beta]
        return descent + [simple.index(beta)] + descent[::-1]

    def __repr__(self):
        return "x".join(map(repr, self.simple_factors))


def build_root_system(factors) -> RootSystem:
    """Construct the root system of a product of simple types."""
    parsed = [t if isinstance(t, SimpleType) else SimpleType.parse(t) for t in factors]
    return RootSystem(parsed)


def exponents(rs: RootSystem, factor_index: int) -> tuple[int, ...]:
    """Exponents of an irreducible factor, from the height distribution.

    The positive-root height histogram is the conjugate of the partition
    formed by the exponents; sum m_i = half the number of roots.
    """
    hist = Counter(rt.height for rt in rs.roots
                   if rt.factor == factor_index and rt.positive).values()
    return tuple(sorted(sum(v >= level for v in hist)
                        for level in range(1, max(hist) + 1)))


def weyl_order(rs: RootSystem) -> int:
    """|W| as the product over factors of prod(m_i + 1)."""
    return math.prod(m + 1 for fi in range(len(rs.simple_factors))
                     for m in exponents(rs, fi))


class WeylGroup:
    """A fully enumerated Weyl group.

    Element i is stored as its permutation ``perms[i]`` of the root indices,
    a byte string (w sends root k to root ``perms[i][k]``), so that
    ``bytes.translate`` composes two in C.  W acts faithfully on the roots,
    so products, inverses, lengths and the action on characters
    (``coefficients.character_action``) need no matrices.
    """

    def __init__(self, rs: RootSystem, perms, lengths):
        self.rs = rs
        self.perms = tuple(perms)
        self.index = {p: i for i, p in enumerate(self.perms)}
        self.order = len(self.perms)
        self._lengths = tuple(lengths)
        self._pad = bytes(256 - rs.num_roots)
        # the simple reflections as translate tables, in node order:
        # p.translate(table) is s_j o p
        self._simple = tuple(bytes(p) + self._pad
                             for p in rs.simple_reflection_perms)
        self._cosets: dict[tuple[int, ...], list[int]] = {}

    def mul(self, i: int, j: int) -> int:
        """Index of w_i w_j; its permutation is perms[i] o perms[j], and
        b.translate(a + pad), with zeros padding a to 256 bytes, is a o b."""
        return self.index[self.perms[j].translate(self.perms[i] + self._pad)]

    def length(self, i: int) -> int:
        """Coxeter length: the number of positive roots sent to negative
        ones, equal to the BFS depth at which the element was enumerated."""
        return self._lengths[i]

    def cosets(self, base) -> list[int]:
        """Minimal-length representatives of the right cosets W_iota\\W, in
        increasing index order, for the reflection subgroup W_iota whose
        simple roots are the root indices ``base`` (not empty); walked once
        per base, and the same list returned on every later call.

        W_iota x holds exactly one element of minimal length, the x with
        x^-1(beta) > 0 for every beta in the base (M. Dyer, J. Algebra
        1990): the inverses of Y = {y : y(base) > 0}.  As s_j makes only
        alpha_j negative, s_j y is in Y for y in Y iff alpha_j is not in
        y(base); so Y is closed under left descent (if y^-1(alpha_j) < 0
        then y(beta) = alpha_j would give y^-1(alpha_j) = beta > 0), and a
        walk by y -> s_j y from the identity finds all of it.

        The same walk records ``coset_moves`` and ``stabilizer``.
        """
        base = tuple(base)
        found = self._cosets.get(base)
        if found is None:
            n = self.rs.num_roots
            ident = self.perms[0]
            steps = list(zip(self.rs.simple_indices, self._simple))
            image = itemgetter(*base, base[0])  # a tuple for any base
            baseset = set(base)
            nexts, fixing = {}, []

            def step(y):
                sent = image(y)
                if baseset.issuperset(sent):
                    fixing.append(y)
                nexts[y] = out = [None if s in sent else y.translate(table)
                                  for s, table in steps]
                return filter(None, out)

            walk = closure([ident], step)
            inverse = {y: self.index[bytes.maketrans(y, ident)[:n]]
                       for y in walk}
            ys = sorted(walk, key=inverse.__getitem__)
            at = {y: i for i, y in enumerate(ys)}
            moves = tuple(zip(*([i if z is None else at[z] for z in nexts[y]]
                                for i, y in enumerate(ys))))
            stab = sorted(inverse[y] for y in fixing)
            found = self._cosets[base] = ([inverse[y] for y in ys], moves,
                                          stab)
        return found[0]

    def coset_moves(self, base) -> tuple[tuple[int, ...], ...]:
        """The right action of the simple reflections on W_iota\\W, read off
        the walk of ``cosets``: W_iota x s_j is the coset at position
        ``coset_moves(base)[j][i]`` of ``cosets(base)``, x being the one at
        position i.

        With y = x^-1, x s_j is (s_j y)^-1, the next representative of the
        walk when alpha_j is not in y(base).  Otherwise alpha_j = y(beta)
        for some beta in the base, so s_j y = y s_beta and x s_j = s_beta x
        stays in W_iota x.
        """
        self.cosets(base)
        return self._cosets[tuple(base)][1]

    def stabilizer(self, base) -> list[int]:
        """Stab(Delta_iota), the elements mapping the base onto itself, in
        increasing index order, the identity first.

        Such an element sends the positive roots of iota to positive
        roots, so it is one of the W_iota\\W representatives, and its
        inverse, also in Stab(Delta_iota), is a y of the walk of
        ``cosets`` with y(base) = base.
        """
        self.cosets(base)
        return self._cosets[tuple(base)][2]

    def word(self, x: int) -> list[int]:
        """A reduced word for element x: nodes j_1, ..., j_l with
        x = s_j_1 ... s_j_l and l = length(x).

        x s_j is shorter iff x(alpha_j) < 0, so l right descents from x
        reach the identity; the letters are read off in reverse.
        """
        n = self.rs.num_roots
        simple = self.rs.simple_indices
        gens = [table[:n] for table in self._simple]
        perm = self.perms[x]
        letters = []
        for _ in range(self.length(x)):
            j = next(j for j, s in enumerate(simple) if perm[s] < n // 2)
            letters.append(j)
            perm = gens[j].translate(perm + self._pad)  # perm o s_j
        return letters[::-1]

    def cw_cosets(self, base) -> list[int]:
        """Canonical representatives of C_W(iota)\\W, the members of least
        (length, index), in increasing index order.

        C_W(iota) x is the union of the W_iota d x over d in
        Stab(Delta_iota), and d x is the shortest member of W_iota d x
        when x is, so the representative is the least d x; d = 1 gives x
        itself, with no product.
        """
        stab = self.stabilizer(base)[1:]
        return sorted({min([x, *(self.mul(d, x) for d in stab)],
                           key=lambda w: (self.length(w), w))
                       for x in self.cosets(base)})


def weyl_generate(rs: RootSystem, cap: int = DEFAULT_WEYL_CAP) -> WeylGroup:
    """Enumerate W by breadth-first closure of the simple reflections,
    identity first.

    Each element is right-multiplied by the simple reflections in node
    order, so the elements at distance d are exactly those of length d.
    An element is a byte string, so it indexes at most 255 roots; a W with
    more has at least 3.3 * 10^10 elements (E8 x B3), past the default cap.
    """
    order = weyl_order(rs)
    if order > cap:
        raise CapExceeded(f"|W| = {order} exceeds cap {cap} (caps.weyl)",
                          order=order)
    n = rs.num_roots
    if n > 255:
        raise CapExceeded(f"|W| = {order} has {n} roots, more than the 255 "
                          f"a Weyl element can index", order=order)
    pad = bytes(256 - n)
    gens = [bytes(g) for g in rs.simple_reflection_perms]
    # g.translate(a + pad) is a o g; one table serves every g
    lengths = closure([bytes(range(n))], lambda a: [
        g.translate(table) for table in [a + pad] for g in gens])
    group = WeylGroup(rs, lengths.keys(), lengths.values())
    if group.order != order:
        raise AssertionError(
            f"enumerated order {group.order} != degree product {order}"
        )
    return group


class Lattice:
    """Full-rank lattice in the ambient space, integer basis matrix columns
    B; ``adjugate`` is (adj B, det B), so v has coordinates adj(B) v / det B.
    """

    def __init__(self, name: str, basis: Matrix):
        self.name = name
        self.basis = il.mat(basis)
        try:
            self.adjugate = il.adjugate(self.basis)
        except ValueError:
            raise ValueError("lattice basis is singular") from None

    def contains(self, vector) -> bool:
        adj, d = self.adjugate
        return all(x % d == 0 for x in il.matvec(adj, vector))

    def __repr__(self):
        return f"Lattice({self.name})"


class FiniteAbelianGroup:
    """Invariant factors d_1 | d_2 | ... (each > 1) with matching generators."""

    def __init__(self, invariants, generators):
        self.invariants = tuple(int(d) for d in invariants)
        self.generators = tuple(tuple(g) for g in generators)
        for a, b in zip(self.invariants, self.invariants[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(d <= 1 for d in self.invariants):
            raise ValueError("invariant factors must exceed 1")
        self.order = math.prod(self.invariants)

    def __repr__(self):
        return "FiniteAbelianGroup(%s)" % (" x ".join(
            f"Z/{d}" for d in self.invariants) or "trivial")

    def __eq__(self, other):
        return (isinstance(other, FiniteAbelianGroup)
                and self.invariants == other.invariants)

    def __hash__(self):
        return hash(self.invariants)


def bad_characteristic_reasons(p: int, factors) -> list[str]:
    """Why p is not a very good characteristic, one reason per simple
    factor it fails; empty when it is very good for every factor."""
    reasons = []
    for t in factors:
        if t.family == "A":
            if (t.rank + 1) % p == 0:
                reasons.append(f"{t}: p | n for A_(n-1) with n = {t.rank + 1}")
        elif t.family in ("B", "C", "D"):
            if p == 2:
                reasons.append(f"{t}: p = 2 for type {t.family}")
        elif t.family == "E" and t.rank == 8:
            if p in (2, 3, 5):
                reasons.append(f"{t}: p in {{2,3,5}} for E8")
        else:
            if p in (2, 3):
                reasons.append(f"{t}: p in {{2,3}} for type {t.family}{t.rank}")
    return reasons


class GroupDatum:
    """Split semisimple group: root system + cocharacter lattice + char p."""

    def __init__(self, root_system: RootSystem, cochar: Lattice, p: int):
        self.root_system = root_system
        self.cochar = cochar
        self.p = p
        reasons = bad_characteristic_reasons(p, root_system.simple_factors)
        if reasons:
            raise BadCharacteristic("; ".join(reasons))

    @cached_property
    def root_functionals(self) -> tuple[Vector, ...]:
        """Every root as an integer functional on X_* coordinates.  A
        positive root beta, in height order, takes that of beta - alpha_j
        plus row j of the basis, for the first j with beta - alpha_j zero
        or a positive root (one exists: Bourbaki, Lie VI §1.6), and -beta
        takes minus that of beta."""
        rs, b = self.root_system, self.cochar.basis
        unit = [rs.keys[i] for i in rs.simple_indices]
        func = {0: (0,) * rs.rank}
        for k in rs.keys[rs.num_roots // 2:]:
            j = next(j for j, u in enumerate(unit) if k - u in func)
            func[k] = tuple(map(add, func[k - unit[j]], b[j]))
        return tuple(func[k] if k > 0 else tuple(map(neg, func[-k]))
                     for k in rs.keys)

    def __repr__(self):
        return f"GroupDatum({self.root_system!r}, {self.cochar.name}, p={self.p})"


# Miller-Rabin with these bases is exact below PRIME_TEST_BOUND, the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < PRIME_TEST_BOUND."""
    if n in _PRIME_BASES:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for b in _PRIME_BASES:
        x = pow(b, (n - 1) >> s, n)
        chain = [x] + [x := x * x % n for _ in range(s - 1)]
        if chain[0] != 1 and n - 1 not in chain:
            return False
    return True


def _integer_root(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // e)
    while (y := ((e - 1) * x + n // x ** (e - 1)) // e) < x:
        x = y
    return x


def characteristic_of(q: int) -> int:
    """The prime p with q = p^e, the one integer e-th root of q that is
    exact and prime; rejects non prime powers and q past the bound of the
    exact primality test."""
    if q >= PRIME_TEST_BOUND:
        raise ValueError(f"q = {q} is not below {PRIME_TEST_BOUND}, the "
                         "bound of the exact primality test")
    for e in range(1, max(q, 1).bit_length()):
        p = _integer_root(q, e)
        if p ** e == q and _is_prime(p):
            return p
    raise ValueError(f"{q} is not a prime power")


def make_datum(factors, lattice="sc", p: int = 5) -> GroupDatum:
    """Build a GroupDatum; lattice is "sc", "ad" or an explicit basis matrix."""
    rs = build_root_system(factors)
    if lattice == "sc":
        lat = Lattice("sc", rs.cartan)
    elif lattice == "ad":
        lat = Lattice("ad", il.identity(rs.rank))
    else:
        n = rs.rank
        if not (isinstance(lattice, (list, tuple)) and len(lattice) == n
                and all(isinstance(row, (list, tuple)) and len(row) == n
                        and all(type(x) is int for x in row)
                        for row in lattice)):
            raise ValueError(f'lattice must be "sc", "ad" or a {n} x {n} '
                             f"integer matrix, got {lattice!r}")
        lat = Lattice("custom", il.mat(lattice))
        if not all(map(lat.contains, il.columns(rs.cartan))):
            raise NotASublattice("coroot lattice not contained in X_*")
    return GroupDatum(rs, lat, p)


def pi1_order(datum: GroupDatum) -> int:
    """|X_*/(coroot lattice)| = order of the fundamental group."""
    return coroot_index(datum, datum.root_system.simple_indices)


def _base_det(datum: GroupDatum, sub, vectors) -> int:
    """|det| of the given vectors of the base roots of ``sub``, a subsystem
    (anything with ``base_indices``) or a raw base index sequence; the
    base must span the whole space (elliptic case)."""
    rows = [vectors[i] for i in getattr(sub, "base_indices", sub)]
    d = il.det(rows) if len(rows) == datum.root_system.rank else 0
    if not d:
        raise NotFullRank("subsystem base does not span the ambient space")
    return abs(d)


def coroot_index(datum: GroupDatum, sub) -> int:
    """[X_* : coroot lattice of the subgroup with the given roots], the
    ratio |det(base coroots)| / |det B| for the X_* basis B."""
    coroots = [rt.coroot_ambient for rt in datum.root_system.roots]
    return _base_det(datum, sub, coroots) // abs(datum.cochar.adjugate[1])


def geometric_center_order(datum: GroupDatum, sub) -> int:
    """Order of the geometric center of the subgroup with the given roots:
    the index of X_* in the coweight lattice of the subsystem."""
    return _base_det(datum, sub, datum.root_functionals)
