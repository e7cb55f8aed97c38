"""Exact integer linear algebra on arbitrary-precision integers.

Everything here is pure and deterministic.  Two normal-form conventions are
fixed once so that canonical equality does real work:

* Hermite normal form (HNF) is row-style: pivot entries positive, entries
  above a pivot reduced into ``[0, pivot)``, pivot columns strictly
  increasing, no zero rows.  Two generating sets span the same lattice iff
  their canonical bases are literally equal.
* Smith normal form (SNF) has a nonnegative diagonal with ``d1 | d2 | ...``
  and zeros trailing.  Unit entries stay in the matrix; they are stripped
  only when invariant factors are extracted.

Witnesses come out of the same elimination as the normal forms: as in
Cohen, GTM 138, §2.4, ``snf`` eliminates inside the top-left block of
[[A, I], [I, 0]] and slices the transforms out of the other two blocks.
``kernel_basis`` reads the kernel off the column transform v of that form.

Sizes are desk scale (dimensions up to about a hundred).  Plain echelon
insertion can still grow intermediate coefficients far past the size of
the canonical result, so ``lattice_from_generators`` also takes a modulus:
for a lattice known to contain d·Z^n it works modulo d (Domich–Kannan–
Trotter 1987; Cohen, GTM 138, §2.4.2), and the echelon's entries stay
within [0, d].  The exact path (``lattice_from_generators`` without a
modulus) runs through ``_Echelon.insert``; the modular path packs each row
into one int of fixed-width slots, so a row operation modulo d is a few
big-int operations.  Only ``Lattice`` knows the sparse form of an HNF
basis; callers go through its ``coordinates``, ``times`` (products) and
``conjugate``, which carries k matrices M acting on Z^n to the matrices X
with X·B = B·M on a basis B (C·M·C^-1 for a full-rank C) in one pass of
whole-list operations, the matrices side by side.  These and
``quotient_invariants`` share one back-substitution, ``Lattice._solve``.
"""

import bisect
from itertools import chain
from operator import mul

__all__ = [
    "AugqError",
    "IntMatrix",
    "InvariantFactors",
    "Lattice",
    "NotASublatticeError",
    "kernel_basis",
    "lattice_from_generators",
    "quotient_invariants",
    "smith_invariants",
    "snf",
]


class AugqError(Exception):
    """Base of every augq error.  The CLI prints ``prefix`` and the message,
    then exits with ``exit_code``: 1 for a failed mathematical check or a
    tripped guard, 2 for bad input."""

    exit_code = 1
    prefix = ""


class NotASublatticeError(AugqError, ValueError):
    """Raised when a claimed sublattice is not contained in its enclosure."""


def _xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == x*a + y*b."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class IntMatrix:
    """A dense matrix of Python ints, stored as a list of row lists.

    Instances are treated as immutable by convention; operations return new
    matrices.  ``ncols`` must be passed explicitly for a matrix with no rows
    (the shape still matters there: it is the ambient dimension of an empty
    basis).
    """

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, data, ncols=None):
        rows = [list(r) for r in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row length")
            ncols = width
        elif ncols is None:
            raise ValueError("ncols is required for a matrix with no rows")
        self.data = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)], ncols=n)

    def det(self):
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return 1
        a = [list(r) for r in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            pk = a[k][k]
            rk = a[k]
            for i in range(k + 1, n):
                ri = a[i]
                aik = ri[k]
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * pk - aik * rk[j]) // prev
                ri[k] = 0
            prev = pk
        return sign * a[n - 1][n - 1]

    def tolist(self):
        return [list(r) for r in self.data]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        if self.nrows == 0:
            return f"IntMatrix([], ncols={self.ncols})"
        return f"IntMatrix({self.data!r})"


class _Record:
    """A plain record over the class's ``__slots__``: a constructor taking
    every field by position or keyword, field-wise ``==`` and a keyword
    repr, the parts of a dataclass the package uses, without importing
    ``dataclasses`` (which imports ``inspect`` and costs every process
    several milliseconds)."""

    __slots__ = ()
    __hash__ = None

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            fields = ", ".join(names)
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"


class InvariantFactors(_Record):
    """Invariant factors of a lattice quotient: cyclic orders plus free rank.

    ``factors`` is the ascending divisibility chain with unit factors
    dropped, so the trivial quotient is ``()`` with ``free_rank`` 0.
    Instances are immutable and hashable.
    """

    __slots__ = ("factors", "free_rank")

    def __init__(self, factors, free_rank):
        fs = tuple(int(f) for f in factors)
        for f in fs:
            if f < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if free_rank < 0:
            raise ValueError("free_rank must be nonnegative")
        object.__setattr__(self, "factors", fs)
        object.__setattr__(self, "free_rank", free_rank)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since fields refuse
        # assignment
        return InvariantFactors, self._fields()


class _Echelon:
    """Row-echelon accumulator over the integers.

    Rows are kept with strictly increasing pivot columns.  ``insert`` applies
    invertible integer row operations only, so the accumulated rows always
    span exactly the lattice generated by everything inserted so far.
    Entries are exact and unbounded; the modular path of
    ``lattice_from_generators`` keeps its own packed echelon instead (see
    ``_modular_basis``).
    """

    def __init__(self):
        self.pivots = []
        self.rows = []

    def insert(self, row):
        """Reduce ``row`` against the basis, growing it when independent.

        Returns whether the span grew: whether the row, reduced, met a
        column with no pivot or a pivot it does not divide (which the gcd
        then replaces), rather than reducing to zero.
        """
        v = list(row)
        n = len(v)
        pivots = self.pivots
        rows = self.rows
        grew = False
        c = 0
        while True:
            while c < n and not v[c]:
                c += 1
            if c == n:
                return grew
            idx = bisect.bisect_left(pivots, c)
            if idx < len(pivots) and pivots[idx] == c:
                h = rows[idx]
                a = h[c]
                b = v[c]
                if b % a == 0:
                    q = b // a
                    v = [x - q * y for x, y in zip(v, h)]
                else:
                    g, x, y = _xgcd(a, b)
                    af = a // g
                    bf = b // g
                    rows[idx] = [x * p + y * q2 for p, q2 in zip(h, v)]
                    v = [af * q2 - bf * p for p, q2 in zip(h, v)]
                    grew = True
                c += 1
            else:
                pivots.insert(idx, c)
                rows.insert(idx, v)
                return True

    def canonicalize(self):
        """Normalize in place: positive pivots, entries above reduced."""
        for i, c in enumerate(self.pivots):
            if self.rows[i][c] < 0:
                self.rows[i] = [-x for x in self.rows[i]]
        # Ascending pivot order keeps earlier reductions intact: reducing
        # against pivot j only touches columns >= pivot(j).
        for j in range(len(self.rows)):
            c = self.pivots[j]
            hj = self.rows[j]
            p = hj[c]
            for i in range(j):
                q = self.rows[i][c] // p
                if q:
                    self.rows[i] = [x - q * y for x, y in zip(self.rows[i], hj)]


class Lattice:
    """A sublattice of Z^ambient_dim held by its canonical HNF row basis.

    The zero lattice is a basis with no rows and an explicit ambient
    dimension.  Because the basis is canonical, ``==`` decides equality of
    lattices, not just of generating sets.  Each basis row is also kept in
    sparse form, its nonzero entries as (column, entry) pairs with the pivot
    first; ``times`` and ``_solve`` walk those.
    """

    __slots__ = ("ambient_dim", "basis", "_rows")

    def __init__(self, ambient_dim, basis):
        if basis.ncols != ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        rows = []
        for row in basis.data:
            terms = [(j, x) for j, x in enumerate(row) if x]
            if not terms:
                raise ValueError("zero row in lattice basis")
            c, p = terms[0]
            if rows and c <= rows[-1][0][0]:
                raise ValueError("pivot columns must strictly increase")
            if p < 0:
                raise ValueError("pivot entries must be positive")
            rows.append(terms)
        for j, terms in enumerate(rows):
            c, p = terms[0]
            for i in range(j):
                if not 0 <= basis.data[i][c] < p:
                    raise ValueError("entries above a pivot must lie in [0, pivot)")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._rows = rows

    @property
    def rank(self):
        return self.basis.nrows

    def coordinates(self, vec):
        """Integer coordinates of ``vec`` in this basis, or None if outside."""
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        solved = self._solve([[x] for x in vec])
        return None if solved is None else [col[0] for col in solved]

    def times(self, rows):
        """The rows of B·R for this basis B and the matrix R given by its
        ``ambient_dim`` rows; a unit basis row e_k picks row k of R itself.

        >>> Lattice(2, IntMatrix([[1, 0], [0, 3]])).times([[1, 2], [0, 1]])
        [[1, 2], [0, 3]]
        """
        if len(rows) != self.ambient_dim:
            raise ValueError("row count does not match ambient dimension")
        out = []
        for terms in self._rows:
            k, c = terms[0]
            acc = rows[k] if c == 1 else [c * x for x in rows[k]]
            for k, c in terms[1:]:
                acc = [a + c * x for a, x in zip(acc, rows[k])]
            out.append(acc)
        return out

    def conjugate(self, side, modulus):
        """Carry k operators from Z^n to this basis B at once, and key their
        rows modulo d = ``modulus``.

        ``side`` is [M_1 | ... | M_k]: n rows of k·n entries, the n x n
        matrices M_g side by side, each mapping the lattice into itself.
        With r the rank, returns ([X_1 | ... | X_k], keys): X_g is the
        r x r matrix with X_g·B = B·M_g, so X_g = B·M_g·B^-1 for a basis of
        full rank, and keys[g·r + a] reads row a of X_g modulo d as digits
        base d, lowest first.  Returns None when some row of some B·M_g is
        outside the lattice.  There are three stages, each on whole lists:
        the product B·[M_1 | ... | M_k] by ``times``, one list operation
        per nonzero entry of B; one block transpose, which stacks column j
        of every B·M_g into one column; and ``_solve`` for X_g·B = B·M_g
        down those stacked columns, again one list operation per nonzero
        entry of B.  A step lattice of the ideal-power chain contains
        d·Z^n, so every column holds a pivot and no residual is left to
        check.  The keys take one operation per column.

        >>> c = Lattice(2, IntMatrix([[1, 1], [0, 2]]))
        >>> c.conjugate([[1, 0, 0, 2], [0, 3, 2, 0]], 5)
        ([[1, 1, 2, 0], [0, 3, 4, -2]], [6, 15, 2, 19])
        """
        n = self.ambient_dim
        if len(side) != n:
            raise ValueError("side must have ambient_dim rows")
        solved = self._solve(_block_transpose(self.times(side), n))
        if solved is None:
            return None
        d = modulus
        keys = []
        for col in reversed(solved):
            if keys:
                keys = [key * d + y % d for key, y in zip(keys, col)]
            else:
                keys = [y % d for y in col]
        return _block_transpose(solved, self.rank), keys

    def _solve(self, cols):
        """Back-substitution for many vectors at once, down ``cols``, the
        ambient_dim columns of the vectors stacked as rows (used up).
        Returns one column of coordinates per basis row, or None when some
        vector is outside.  A pivot p > 1 costs one divisibility scan and
        one exact division of its column, and every column without a pivot
        must end at zero.
        """
        solved = []
        for terms in self._rows:
            c, p = terms[0]
            col = cols[c]
            cols[c] = None
            if p != 1:
                if any(map(p.__rmod__, col)):
                    return None
                col = [y // p for y in col]
            for k, x in terms[1:]:
                cols[k] = [y - x * z for y, z in zip(cols[k], col)]
            solved.append(col)
        if any(col and any(col) for col in cols):
            return None
        return solved

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Lattice({self.ambient_dim}, {self.basis.data!r})"


def _block_transpose(rows, width):
    """Transpose each block of ``rows``, blocks ``width`` columns wide side
    by side, and empty ``rows``.

    Row j of the result is column j of every block, one block after
    another.  ``rows`` is emptied as soon as its columns are taken, so at
    most two copies of the entries are held.
    """
    cols = list(zip(*rows))
    rows.clear()
    return [list(chain.from_iterable(cols[j::width])) for j in range(width)]


def _modular_basis(n, generators, d):
    """HNF rows of the span of ``generators`` and d·Z^n, on packed rows.

    Every row is one int of n slots, ``w`` bits each, entry j in slot j
    (bits w·j up to w·j + w - 1), so one row operation modulo d is a few
    big-int operations instead of one per entry.  All slots stay
    nonnegative: a step adds (d - q)·H where it would subtract q·H, and then
    a Barrett step takes every slot modulo d at once.  Between those steps
    a slot holds less than 2d²: rows hold entries in [0, d], and every
    combination below has coefficients of at most d.  With t = bitlen(2d³) + 1 and
    c = ⌊2^t / d⌋ + 1, (x·c) >> t is ⌊x / d⌋ for every 0 <= x < 2d², and
    x·c fits in ``w`` bits, so the slots of X·c do not overlap; ``keep``
    masks each shifted slot to its low w - t bits, dropping the bits
    shifted down from the slot above.

    The lowest set bit of a row finds its pivot slot.  d·e_j goes in for
    j = n-1 down to 0 after the generators (``lattice_from_generators``
    says why that makes the span exact, in either order); a slot holds d
    itself only in such a row, and only when it found no pivot at j.  The
    lattice has full rank, so every column ends up with a pivot, and
    canonicalizing reduces each row modulo d as well: d·e_k is in the
    lattice for every k.
    """
    t = (2 * d**3).bit_length() + 1
    c = (1 << t) // d + 1
    w = t + (2 * d).bit_length() + 2
    mask = (1 << w) - 1
    weights = [1 << (w * j) for j in range(n)]
    keep = ((1 << (w - t)) - 1) * sum(weights)
    packed = []
    for g in generators:
        if len(g) != n:
            raise ValueError("generator length does not match ambient dimension")
        packed.append(sum(map(mul, [x % d for x in g], weights)))
    packed += (d << (w * j) for j in reversed(range(n)))
    rows = [0] * n
    for v in packed:
        while v:
            j = ((v & -v).bit_length() - 1) // w
            h = rows[j]
            if not h:
                rows[j] = v
                break
            a = (h >> (w * j)) & mask
            b = (v >> (w * j)) & mask
            if b % a:
                # gcd(a, b) < a <= d, so the new pivot survives the reduction
                g, x, y = _xgcd(a, b)
                u = (x % d) * h + (y % d) * v
                rows[j] = u - d * (((u * c) >> t) & keep)
                v = (a // g) * v + (d - b // g) * h
            else:
                v += (d - b // a) * h
            v -= d * (((v * c) >> t) & keep)
    pivots = [(h >> (w * j)) & mask for j, h in enumerate(rows)]
    for i in range(n):
        v = rows[i]
        for j in range(i + 1, n):
            # Barrett would take a pivot d to 0, but a row with pivot d is
            # d·e_i, zero right of its pivot, so it never gets here
            q = ((v >> (w * j)) & mask) // pivots[j]
            if q:
                v += (d - q) * rows[j]
                v -= d * (((v * c) >> t) & keep)
        rows[i] = v
    return [[(v >> (w * j)) & mask for j in range(n)] for v in rows]


def lattice_from_generators(ambient_dim, generators, modulus=None):
    """Canonical lattice spanned by the given integer vectors.

    An empty generator list (or all-zero generators) yields the zero lattice.

    With a positive ``modulus`` d the result is the span L of the vectors
    together with d·Z^n, and every entry stays within [0, d].  The vectors
    are echelonized modulo d on packed rows (``_modular_basis``); then d·e_j
    is inserted for every column j, for j = n-1 down to 0.  Reduction
    modulo d alone is right only modulo d·Z^n: rows (2, 1) and (0, 4)
    echelonize {(2, 1)} + 4·Z^2 modulo 4 but miss (4, 0).  Triangular rows
    h_j with pivots a_j | d that span L modulo d·Z^n span L exactly when
    (d/a_j)·h_j lies, modulo d, in the span of the rows below h_j for every
    j: then, from the last row up, d·e_j is (d/a_j)·h_j less a vector of
    the rows below.  Inserting d·e_j makes this hold for row j.  If row j
    is h with pivot a, the new pivot is g = gcd(a, d) = x·a + y·d, the new
    row is x·h + y·d·e_j, and what goes on into the rows below is
    -(d/g)·h modulo d; so (d/g) times the new row is -x times that (an
    empty row j becomes d·e_j, which holds it trivially).  Every later step
    keeps it.  The rows below only gain span modulo d.  When a
    vector v with entry b at column j replaces h by x·h + y·v, with pivot
    g = gcd(a, b) = x·a + y·b, then (d/g)·(x·h + y·v) = (d/a)·h + y·(d/a)·v',
    where v' = (a/g)·v - (b/g)·h is what goes on below.  Canonicalizing
    subtracts rows below.  So the answer is exact, and it would be for any
    order of the d·e_j.

    >>> lattice_from_generators(2, [[2, 1]], modulus=4).basis.tolist()
    [[2, 1], [0, 2]]
    """
    if modulus is not None:
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        basis = _modular_basis(ambient_dim, generators, modulus)
        return Lattice(ambient_dim, IntMatrix(basis, ncols=ambient_dim))
    ech = _Echelon()
    for g in generators:
        if len(g) != ambient_dim:
            raise ValueError("generator length does not match ambient dimension")
        ech.insert(g)
    ech.canonicalize()
    return Lattice(ambient_dim, IntMatrix(ech.rows, ncols=ambient_dim))


def kernel_basis(m):
    """Canonical basis of the integer kernel {x : m·x^T = 0}.

    With s = u·m·v the Smith form, m·v = u^-1·s vanishes on the columns of
    v past the rank of s, and v is unimodular, so those columns span the
    whole kernel, not a finite-index piece of it.
    """
    s, _, v = snf(m)
    rank = sum(1 for i in range(min(m.nrows, m.ncols)) if s.data[i][i])
    return lattice_from_generators(m.ncols, list(zip(*v.data))[rank:])


def _snf_core(a, nrows, ncols):
    """Diagonalize the top-left ``nrows`` x ``ncols`` block of ``a`` in place.

    Pivots are chosen inside that block only.  Row operations act on the
    first ``nrows`` rows across their whole length, and column operations on
    the first ``ncols`` columns down every row of ``a``, so entries to the
    right of the block and rows below it record the transforms.
    """
    limit = min(nrows, ncols)
    t = 0
    while t < limit:
        # smallest nonzero entry of the trailing block becomes the pivot
        bi = bj = -1
        best = 0
        for i in range(t, nrows):
            ai = a[i]
            for j in range(t, ncols):
                x = ai[j]
                if x:
                    if x < 0:
                        x = -x
                    if bi < 0 or x < best:
                        best = x
                        bi, bj = i, j
                        if best == 1:
                            break
            if best == 1:
                break
        if bi < 0:
            break
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        while True:
            for i in range(t + 1, nrows):
                b = a[i][t]
                if not b:
                    continue
                p = a[t][t]
                if b % p == 0:
                    q = b // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                else:
                    g, x, y = _xgcd(p, b)
                    pf = p // g
                    bf = b // g
                    rt, ri = a[t], a[i]
                    a[t] = [x * p2 + y * q2 for p2, q2 in zip(rt, ri)]
                    a[i] = [pf * q2 - bf * p2 for p2, q2 in zip(rt, ri)]
            dirty = False
            for j in range(t + 1, ncols):
                b = a[t][j]
                if not b:
                    continue
                p = a[t][t]
                if b % p == 0:
                    q = b // p
                    for row in a[t:]:
                        if row[t]:
                            row[j] -= q * row[t]
                else:
                    g, x, y = _xgcd(p, b)
                    pf = p // g
                    bf = b // g
                    for row in a:
                        ci, cj = row[t], row[j]
                        row[t] = x * ci + y * cj
                        row[j] = pf * cj - bf * ci
                    # the column mix can reintroduce entries below the pivot
                    dirty = True
            if not dirty:
                break
        t += 1
    nz = t
    for i in range(nz):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
    # enforce the divisibility chain on the (all nonzero) leading diagonal:
    # add row j to row i, then a 2x2 unimodular column mix and one row
    # reduction leave gcd(di, dj) at (i, i) and lcm(di, dj) at (j, j)
    for i in range(nz):
        for j in range(i + 1, nz):
            di = a[i][i]
            dj = a[j][j]
            if dj % di == 0:
                continue
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            g, x, y = _xgcd(di, dj)
            dif = di // g
            djf = dj // g
            for row in a:
                ci, cj = row[i], row[j]
                row[i] = x * ci + y * cj
                row[j] = dif * cj - djf * ci
            q = y * dj // g
            if q:
                a[j] = [xx - q * yy for xx, yy in zip(a[j], a[i])]


def snf(m):
    """Smith normal form: returns (s, u, v) with s = u·m·v diagonal,
    nonnegative, divisibility-chained, zeros last; u and v unimodular.

    The elimination runs on the block matrix [[m, I], [I, 0]]; afterwards
    its top-left block is s, its top-right block u and its bottom-left
    block v.
    """
    r, c = m.nrows, m.ncols
    a = [row + e for row, e in zip(m.data, IntMatrix.identity(r).data)]
    a += [e + [0] * r for e in IntMatrix.identity(c).data]
    _snf_core(a, r, c)
    return (
        IntMatrix([row[:c] for row in a[:r]], ncols=c),
        IntMatrix([row[c:] for row in a[:r]], ncols=r),
        IntMatrix([row[:c] for row in a[r:]], ncols=c),
    )


def quotient_invariants(sup, sub):
    """Invariant factors of the abelian group sup/sub.

    Each basis row of ``sub`` is written in the coordinates of ``sup`` (a
    NotASublatticeError if any row falls outside), and ``smith_invariants``
    reads the group off that coefficient matrix.
    """
    if sup.ambient_dim != sub.ambient_dim:
        raise ValueError("ambient dimensions differ")
    solved = sup._solve(_block_transpose(sub.basis.tolist(), sup.ambient_dim))
    if solved is None:
        rows = sub.basis.data
        k = next(k for k, row in enumerate(rows) if sup.coordinates(row) is None)
        raise NotASublatticeError(
            f"basis row {k} of the claimed sublattice is outside the enclosure"
        )
    return smith_invariants(list(zip(*solved)), sup.rank)


def smith_invariants(rows, ncols):
    """Invariant factors of Z^ncols modulo the span of ``rows``.

    The rows must be independent; the SNF diagonal of the matrix they form
    gives the torsion, and ncols minus their number the free rank.
    """
    a = [list(row) for row in rows]
    _snf_core(a, len(a), ncols)
    diag = [a[i][i] for i in range(min(len(a), ncols))]
    if any(d == 0 for d in diag):
        raise ArithmeticError("sublattice basis is not independent")
    return InvariantFactors(tuple(d for d in diag if d > 1), ncols - len(a))
