"""Concrete augmented rings built from finite groups.

Three families are constructed here, all landing in the same AugmentedRing
container:

* integral group rings of finite abelian groups,
* Burnside rings, by counting subgroup orbits on coset spaces,
* complex representation rings of abelian groups (structurally the group
  ring of the character group) and of dihedral groups D_m of order 2m
  (from the two-dimensional fusion rules).
"""

import itertools

from .abgroup import BadParameterError, FinAbGroup, ParseError, _check_order
from .abgroup import read_decimal
from .augring import AugmentedRing
from .intlinalg import AugqError, _Record

__all__ = [
    "CayleyGroup",
    "CayleyTableError",
    "MarksMatrix",
    "SubgroupClasses",
    "burnside_ring",
    "cayley_from_abelian",
    "dihedral_group",
    "enumerate_subgroups",
    "group_ring",
    "parse_group_spec",
    "rep_ring_abelian",
    "rep_ring_dihedral",
    "symmetric_group",
    "table_of_marks",
]


class CayleyTableError(AugqError, ValueError):
    """The table does not describe a group with identity at index 0."""

    exit_code = 2


class CayleyGroup:
    """A finite group as an explicit multiplication table.

    Element 0 is the identity.  Construction checks that rows and columns
    are permutations and that the product is associative on all triples, so
    a CayleyGroup that exists is a group.
    """

    __slots__ = ("table", "order", "_inverse")

    def __init__(self, table):
        n = len(table)
        if n == 0:
            raise CayleyTableError("empty multiplication table")
        if not all(isinstance(r, (list, tuple)) for r in table):
            raise CayleyTableError("multiplication table rows must be arrays")
        rows = [list(r) for r in table]
        for r in rows:
            if len(r) != n:
                raise CayleyTableError("multiplication table must be square")
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
                    raise CayleyTableError("table entries must be indices in range")
        ident = list(range(n))
        if rows[0] != ident:
            raise CayleyTableError("row 0 must be the identity row")
        if [rows[i][0] for i in range(n)] != ident:
            raise CayleyTableError("column 0 must be the identity column")
        for i in range(n):
            if sorted(rows[i]) != ident:
                raise CayleyTableError(f"row {i} is not a permutation")
            if sorted(rows[j][i] for j in range(n)) != ident:
                raise CayleyTableError(f"column {i} is not a permutation")
        for a in range(n):
            for b in range(n):
                ab = rows[a][b]
                row_a = rows[a]
                for c in range(n):
                    if rows[ab][c] != row_a[rows[b][c]]:
                        raise CayleyTableError(
                            f"associativity fails on ({a}, {b}, {c})"
                        )
        # rows[a].index(0) is a^-1 since a * a^-1 = e
        inverse = [rows[a].index(0) for a in range(n)]
        self.table = rows
        self.order = n
        self._inverse = inverse

    def conjugate(self, g, x):
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self._inverse[g]]

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise CayleyTableError("Cayley spec must be a JSON object")
        try:
            order = d["order"]
            table = d["table"]
        except KeyError as exc:
            raise CayleyTableError(f"Cayley spec is missing {exc.args[0]!r}")
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise CayleyTableError("'order' must be a positive integer")
        _check_order(order)
        if not isinstance(table, list) or len(table) != order:
            raise CayleyTableError("'table' must be an order x order array")
        return cls(table)

    def to_dict(self):
        return {"order": self.order, "table": [list(r) for r in self.table]}

    def __repr__(self):
        return f"CayleyGroup(order={self.order})"


def _residue_addition(g):
    """The residue tuples of g's invariant factors, zero first, and the
    table of their indices under componentwise addition."""
    _check_order(g.order())
    factors = g.invariant_factors
    elements = list(itertools.product(*[range(f) for f in factors]))
    index = {e: i for i, e in enumerate(elements)}
    table = [
        [index[tuple((a + b) % f for a, b, f in zip(x, y, factors))] for y in elements]
        for x in elements
    ]
    return elements, table


def cayley_from_abelian(g):
    """Componentwise-addition table on the residue tuples of g."""
    return CayleyGroup(_residue_addition(g)[1])


def dihedral_group(m):
    """D_m of order 2m: elements r^t (indices 0..m-1) and r^t s (m..2m-1)."""
    if not isinstance(m, int) or m < 1:
        raise BadParameterError("dihedral parameter must be a positive integer")
    n = 2 * m
    _check_order(n)

    def idx(t, e):
        return e * m + t % m

    table = [[0] * n for _ in range(n)]
    for t in range(m):
        for e in (0, 1):
            for u in range(m):
                for f in (0, 1):
                    # (r^t s^e)(r^u s^f) = r^(t + u*(-1)^e) s^(e+f)
                    tt = (t - u) if e else (t + u)
                    table[idx(t, e)][idx(u, f)] = idx(tt % m, (e + f) % 2)
    return CayleyGroup(table)


def symmetric_group(n):
    """S_n for small n, elements in lexicographic order (identity first)."""
    if not isinstance(n, int) or not 1 <= n <= 4:
        raise BadParameterError("symmetric groups are provided for n <= 4 only")
    perms = sorted(itertools.permutations(range(n)))
    _check_order(len(perms))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    return CayleyGroup(table)


class SubgroupClasses(_Record):
    """Conjugacy classes of subgroups, each held by a representative.

    Representatives are the lexicographically smallest sorted element tuples
    of their class; classes are ordered by (subgroup order, representative),
    so the trivial subgroup comes first and the whole group last.
    """

    __slots__ = ("representatives", "class_members")

    def __len__(self):
        return len(self.representatives)

    def orders(self):
        return [len(r) for r in self.representatives]


def _close_subset(g, seed):
    """Smallest subgroup containing ``seed``."""
    members = {0}
    members.update(seed)
    frontier = list(members)
    table = g.table
    while frontier:
        nxt = []
        for a in frontier:
            row = table[a]
            for b in list(members):
                for p in (row[b], table[b][a]):
                    if p not in members:
                        members.add(p)
                        nxt.append(p)
        frontier = nxt
    return frozenset(members)


def enumerate_subgroups(g):
    """All subgroups of g up to conjugacy.

    Every subgroup is the join of its cyclic subgroups, so the closure that
    repeatedly joins known subgroups with cyclic ones reaches the full
    subgroup lattice.  Refused past AUGQ_MAX_ORDER (default 64), like every
    constructor here.  ``table_of_marks`` and ``burnside_ring`` start here,
    so this is where a group that is not a CayleyGroup is refused.
    """
    if not isinstance(g, CayleyGroup):
        raise BadParameterError(
            f"expected a CayleyGroup, got {type(g).__name__}; "
            "cayley_from_abelian gives one for a FinAbGroup"
        )
    _check_order(g.order)
    cyclic = {_close_subset(g, (x,)) for x in range(g.order)}
    subgroups = set(cyclic)
    work = list(subgroups)
    while work:
        s = work.pop()
        for c in cyclic:
            if c <= s:
                continue
            joined = _close_subset(g, s | c)
            if joined not in subgroups:
                subgroups.add(joined)
                work.append(joined)
    classes = {}
    for s in subgroups:
        orbit = {frozenset(g.conjugate(c, x) for x in s) for c in range(g.order)}
        rep = min(tuple(sorted(o)) for o in orbit)
        classes[rep] = orbit
    reps = sorted(classes, key=lambda r: (len(r), r))
    return SubgroupClasses(reps, [classes[r] for r in reps])


class MarksMatrix(_Record):
    """Table of marks: entry [H][K] counts the cosets of H fixed by K.

    Rows and columns follow the subgroup-class ordering, which makes the
    matrix lower triangular with positive diagonal; the first column is the
    coset count |G|/|H|.
    """

    __slots__ = ("values", "classes")


def _left_cosets(g, h):
    """Number the left cosets xH of the subgroup ``h``: the coset index of
    every element, and the first element of each coset."""
    coset_id = [-1] * g.order
    rep_of = []
    for x in range(g.order):
        if coset_id[x] < 0:
            for y in h:
                coset_id[g.table[x][y]] = len(rep_of)
            rep_of.append(x)
    return coset_id, rep_of


def table_of_marks(g):
    """Direct fixed-point count of each subgroup on each coset space; not
    used by ``burnside_ring``, so it checks that ring independently."""
    classes = enumerate_subgroups(g)
    table = g.table
    values = []
    for rep_h in classes.representatives:
        coset_id, rep_of = _left_cosets(g, rep_h)
        row = []
        for rep_k in classes.representatives:
            fixed = 0
            for x in rep_of:
                # K fixes the coset xH iff k*x stays in xH for every k
                cid = coset_id[x]
                if all(coset_id[table[k][x]] == cid for k in rep_k):
                    fixed += 1
            row.append(fixed)
        values.append(row)
    return MarksMatrix(values=values, classes=classes)


def burnside_ring(g):
    """The Burnside ring of g on the basis [G/H], one H per class.

    G/H x G/K has one G-orbit per H-orbit on the cosets xK, and its
    stabilizer is the intersection of H with xKx^-1, so [G/H][G/K] counts
    those H-orbits by the class of their stabilizer.  The augmentation is
    the coset count |G|/|H|; [G/G] is the identity, the last class.
    """
    classes = enumerate_subgroups(g)
    reps = classes.representatives
    t = len(classes)
    class_of = {s: i for i, orbit in enumerate(classes.class_members) for s in orbit}
    cosets = [_left_cosets(g, k) for k in reps]
    table = g.table
    structure = {}
    for a, b in itertools.combinations_with_replacement(range(t), 2):
        coset_id, rep_of = cosets[b]
        seen = [False] * len(rep_of)
        vec = [0] * t
        for cid, x in enumerate(rep_of):
            if seen[cid]:
                continue
            stabilizer = []
            for h in reps[a]:
                hx = coset_id[table[h][x]]
                seen[hx] = True
                if hx == cid:
                    stabilizer.append(h)
            vec[class_of[frozenset(stabilizer)]] += 1
        structure[(a, b)] = vec
    augmentation = [len(rep_of) for _, rep_of in cosets]
    labels = [f"[G/H{i}]" for i in range(t)]
    return AugmentedRing(labels, structure, augmentation, identity_index=t - 1)


def _convolution_ring(g, prefix, one=None):
    """Z on the residue tuples e of g, multiplied by adding them, with every
    basis element augmented to 1.  Labels read ``prefix(e)``; ``one``, if
    given, labels the zero tuple instead."""
    elements, table = _residue_addition(g)
    n = len(elements)
    structure = {}
    for i in range(n):
        for j in range(i, n):
            vec = [0] * n
            vec[table[i][j]] = 1
            structure[(i, j)] = vec
    labels = [prefix + "(" + ",".join(str(x) for x in e) + ")" for e in elements]
    if one is not None:
        labels[0] = one
    return AugmentedRing(labels, structure, [1] * n, identity_index=0)


def group_ring(g):
    """Integral group ring of a finite abelian group.

    Basis elements are the residue tuples of the invariant factors; the
    augmentation sends every group element to 1.  The trivial group gives
    the base ring itself.
    """
    return _convolution_ring(g, "g", one="1")


def rep_ring_abelian(g):
    """Complex representation ring of a finite abelian group.

    Every irreducible is one-dimensional, characters multiply pointwise,
    and the character group is isomorphic to g itself; the resulting ring
    has the same structure tensor as the group ring, with basis labels
    marking characters and the augmentation (every degree is 1) unchanged.
    """
    return _convolution_ring(g, "chi")


def rep_ring_dihedral(m):
    """Complex representation ring of the dihedral group D_m of ORDER 2m.

    Basis for odd m: 1, sgn, V_1 .. V_{(m-1)/2}; for even m the two extra
    linear characters come in: 1, sgn, rot, rotsgn, then V_1 .. V_{m/2-1}.
    Two-dimensional products follow V_j V_k = V_{j+k} + V_{|j-k|} where out
    of range indices fold back: V_0 means 1 + sgn, V_t for t > m/2 means
    V_{m-t}, and V_{m/2} (even m) means rot + rotsgn.  Linear characters
    multiply as the group they form (order 2, or Klein four for even m);
    rot shifts a V-index by m/2 before folding.
    """
    if not isinstance(m, int) or m < 3:
        raise BadParameterError("dihedral representation rings need m >= 3")
    _check_order(2 * m)
    even = m % 2 == 0
    nlin = 4 if even else 2
    nv = (m - 1) // 2 if not even else m // 2 - 1
    labels = ["1", "sgn"] + (["rot", "rotsgn"] if even else [])
    labels += [f"V{j}" for j in range(1, nv + 1)]
    dim = nlin + nv

    def lin_index(u, v):
        # u: sign on the rotation generator, v: sign on the reflection
        if u and not even:
            raise AssertionError("rotation-sign character needs even m")
        return {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}[(u, v)]

    def v_index(j):
        return nlin + j - 1

    def fold(t):
        """Virtual two-dimensional character with rotation values
        2cos(2*pi*t*k/m), expressed in the basis."""
        t %= m
        if 2 * t > m:
            t = m - t
        vec = [0] * dim
        if t == 0:
            vec[lin_index(0, 0)] += 1
            vec[lin_index(0, 1)] += 1
        elif even and 2 * t == m:
            vec[lin_index(1, 0)] += 1
            vec[lin_index(1, 1)] += 1
        else:
            vec[v_index(t)] += 1
        return vec

    lin_of_index = [(0, 0), (0, 1)] + ([(1, 0), (1, 1)] if even else [])
    structure = {}
    for i in range(dim):
        for j in range(i, dim):
            vec = [0] * dim
            if i < nlin and j < nlin:
                u1, v1 = lin_of_index[i]
                u2, v2 = lin_of_index[j]
                vec[lin_index((u1 + u2) % 2, (v1 + v2) % 2)] = 1
            elif i < nlin:
                u, _ = lin_of_index[i]
                jj = j - nlin + 1
                vec = fold(jj + u * m // 2) if u else fold(jj)
            else:
                a = i - nlin + 1
                b = j - nlin + 1
                fa = fold(a + b)
                fb = fold(abs(a - b))
                vec = [x + y for x, y in zip(fa, fb)]
            structure[(i, j)] = vec
    augmentation = [1] * nlin + [2] * nv
    return AugmentedRing(labels, structure, augmentation, identity_index=0)


def parse_group_spec(text):
    """Parse the full group-spec grammar.

    Single tokens: "1", "C<n>" (n >= 2), "D<m>" (m >= 3), "S3", "S4".
    Products join abelian factors only: "C2xC4".  Returns a FinAbGroup for
    abelian specs and a CayleyGroup otherwise.
    """
    if not isinstance(text, str) or not text:
        raise ParseError("empty group spec", 0)
    if "x" not in text:
        if text in ("S3", "S4"):
            return symmetric_group(int(text[1]))
        if text.startswith("D"):
            m = read_decimal(text[1:])
            if m is None:
                raise ParseError(f"expected D<m>, got {text!r}", 0)
            if m < 3:
                raise ParseError("dihedral specs need m >= 3", 0)
            return dihedral_group(m)
    return FinAbGroup.from_spec(text)
