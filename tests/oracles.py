"""Independent reference implementations used to cross-check the library.

Deliberately naive: cofactor determinants, minor-gcd invariant factors, a
textbook row-reduction HNF, an integer kernel by column echelon,
back-substitution one vector at a time, brute-force subgroup search, and a
floating point character table for dihedral groups.  No oracle calls into
augq, so agreement is evidence rather than tautology.  The four helpers at
the end are test data, not oracles: they build their lattices and groups
with augq.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from augq.abgroup import FinAbGroup
from augq.intlinalg import (
    IntMatrix,
    Lattice,
    lattice_from_generators,
    quotient_invariants,
)


def det_laplace(rows):
    """Cofactor expansion along the first row.  Fine for n <= 6."""
    n = len(rows)
    if n == 0:
        return 1
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det_laplace(minor)
    return total


def hnf_oracle(rows):
    """Row-style HNF by repeated division, no transform tracking.

    Returns the canonical basis: positive pivots, entries above each pivot
    reduced into [0, pivot), zero rows dropped, pivot columns increasing.
    """
    m = [list(r) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    top = 0
    for col in range(ncols):
        # shrink the column below `top` to a single nonzero entry
        while True:
            live = [i for i in range(top, len(m)) if m[i][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(m[i][col]))
            piv = live[0]
            for i in live[1:]:
                q = m[i][col] // m[piv][col]
                m[i] = [a - q * b for a, b in zip(m[i], m[piv])]
        live = [i for i in range(top, len(m)) if m[i][col] != 0]
        if not live:
            continue
        m[top], m[live[0]] = m[live[0]], m[top]
        if m[top][col] < 0:
            m[top] = [-a for a in m[top]]
        for i in range(top):
            q = m[i][col] // m[top][col]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[top])]
        top += 1
    return m[:top]


def kernel_by_column_echelon(rows, ncols):
    """Integer kernel {x : rows·x^T = 0} as a canonical basis (``hnf_oracle``).

    Column j goes through a row echelon as ``col_j + e_j``, two rows meeting
    at a pivot column being reduced by Euclid's algorithm on that column.  A
    column whose first len(rows) entries reduce to zero leaves an integer
    dependency among the columns, a kernel vector, in its trailing entries;
    the trailing block starts unimodular, so these span the whole kernel.
    """
    nrows = len(rows)
    echelon = {}
    kernel = []
    for j in range(ncols):
        v = [row[j] for row in rows] + [int(i == j) for i in range(ncols)]
        for c in range(nrows):
            if not v[c]:
                continue
            if c not in echelon:
                echelon[c] = v
                break
            h = echelon[c]
            while v[c]:
                q = h[c] // v[c]
                h, v = v, [a - q * b for a, b in zip(h, v)]
            echelon[c] = h
        else:
            kernel.append(v[nrows:])
    return hnf_oracle(kernel)


def coordinates_by_back_substitution(basis, vec):
    """Coordinates of ``vec`` in the rows of an HNF ``basis``, or None when
    it is outside their span: one vector at a time, each coefficient forced
    by exact division at its row's pivot."""
    v = list(vec)
    coeffs = []
    for row in basis:
        c = next(j for j, x in enumerate(row) if x)
        q, rem = divmod(v[c], row[c])
        if rem:
            return None
        v = [a - q * b for a, b in zip(v, row)]
        coeffs.append(q)
    return None if any(v) else coeffs


def quotient_by_minors(sup_basis, sub_basis):
    """(factors, free rank) of span(sup_basis)/span(sub_basis), both HNF
    bases, or the index of the first row of ``sub_basis`` outside the span
    of ``sup_basis``.  Keep the ranks at 5 or less (``invariant_factors_minors``)."""
    coords = []
    for k, row in enumerate(sub_basis):
        c = coordinates_by_back_substitution(sup_basis, row)
        if c is None:
            return k
        coords.append(c)
    return tuple(invariant_factors_minors(coords)), len(sup_basis) - len(sub_basis)


def _minor_gcd(rows, k):
    """gcd of all k x k minors (0 if all vanish)."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(nr), k):
        for ci in combinations(range(nc), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = math.gcd(g, det_laplace(sub))
    return g


def invariant_factors_minors(rows):
    """Nontrivial invariant factors via determinantal divisors.

    d_k = gcd of k x k minors; the k-th diagonal entry of the Smith form is
    d_k / d_{k-1}.  Exponential in size, so keep matrices at 5x5 or less.
    """
    if not rows:
        return []
    rank = 0
    divisors = [1]
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        g = _minor_gcd(rows, k)
        if g == 0:
            break
        divisors.append(g)
        rank = k
    factors = [divisors[k] // divisors[k - 1] for k in range(1, rank + 1)]
    return [f for f in factors if f != 1]


def random_unimodular(rng, n, ops=None):
    """Product of seeded elementary row operations on the identity."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if ops is None:
        ops = 3 * n + 2
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-3, 3)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def brute_force_subgroups(table):
    """Every subgroup of a small group, as frozensets of element indices.

    Tries all subsets containing the identity whose size divides the group
    order; usable up to order ~12.
    """
    n = len(table)
    found = set()
    rest = [x for x in range(1, n)]
    for size in range(0, n):
        if n % (size + 1):
            continue
        for extra in combinations(rest, size):
            s = frozenset((0,) + extra)
            if all(table[a][b] in s for a in s for b in s):
                found.add(s)
    return found


def table_inverses(table):
    """The inverse of each element, found by scanning its row for the
    identity 0."""
    return [next(b for b, ab in enumerate(row) if ab == 0) for row in table]


def brute_force_classes(table):
    """Conjugacy classes of subgroups, keyed by smallest sorted member."""
    inverse = table_inverses(table)
    subs = brute_force_subgroups(table)
    classes = {}
    for s in subs:
        orbit = set()
        for c in range(len(table)):
            orbit.add(frozenset(table[table[c][x]][inverse[c]] for x in s))
        rep = min(tuple(sorted(o)) for o in orbit)
        classes[rep] = orbit
    return classes


def v_p(n, p):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def valuation_by_multiplication(g, p, s):
    """v_p(|p^s G|) by its definition: p^s maps a cyclic piece Z/f onto one
    of order f / gcd(f, p^s), so |p^s G| is the product of those orders."""
    order = 1
    for f in g.invariant_factors:
        order *= f // math.gcd(f, p**s)
    return v_p(order, p)


def invariant_factors_primary(orders):
    """Invariant factors through the primary decomposition: split every
    cyclic order into prime powers by trial division, sort each prime's
    exponents descending, and multiply the t-th largest powers of every
    prime into the t-th largest factor.  Returned ascending."""
    exponents = {}
    for n in orders:
        p = 2
        while n > 1:
            if p * p > n:
                p = n  # what is left is prime
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    factors = []
    for p, exps in exponents.items():
        exps.sort(reverse=True)
        for t, e in enumerate(exps):
            if t == len(factors):
                factors.append(1)
            factors[t] *= p**e
    return tuple(reversed(factors))


def is_prime_trial(n):
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def dihedral_characters(m):
    """Irreducible characters of the order-2m dihedral group, numerically.

    Element (t, e) is s^e r^t at index e*m + t.  Returns (labels, rows)
    where each row lists the character value at every element as a float.
    """
    labels = ["1", "sgn"]
    rows = [
        [1.0] * (2 * m),
        [1.0] * m + [-1.0] * m,
    ]
    if m % 2 == 0:
        labels += ["rot", "rotsgn"]
        rot = [(-1.0) ** t for t in range(m)]
        rows.append(rot + rot)
        rows.append(rot + [-x for x in rot])
    for j in range(1, (m - 1) // 2 + 1 if m % 2 else m // 2):
        labels.append(f"V{j}")
        vals = [2.0 * math.cos(2.0 * math.pi * j * t / m) for t in range(m)]
        rows.append(vals + [0.0] * m)
    return labels, rows


def character_structure_constants(char_rows, a, b):
    """Coefficients of chi_a * chi_b in the irreducible basis.

    Real inner products (1/|G|) sum chi_a chi_b chi_x; dihedral character
    values are real, so no conjugation is needed.
    """
    n = len(char_rows[0])
    out = []
    for x in range(len(char_rows)):
        acc = 0.0
        for g in range(n):
            acc += char_rows[a][g] * char_rows[b][g] * char_rows[x][g]
        out.append(acc / n)
    return out


def solve_exact(a, b):
    """Solve a x = b over the rationals by Gaussian elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[n] for row in m]


def standard_lattice(n):
    """The full lattice Z^n."""
    return Lattice(n, IntMatrix.identity(n))


def zero_lattice(n):
    """The zero sublattice of Z^n: a basis with no rows."""
    return Lattice(n, IntMatrix([], ncols=n))


def random_group(seed, max_rank=4, max_prime_power=64):
    """Deterministic pseudo-random finite abelian group for a given seed."""
    rng = random.Random(seed)
    count = rng.randint(0, max_rank)
    return FinAbGroup([rng.randint(2, max_prime_power) for _ in range(count)])


def random_subgroup_quotient(seed, g):
    """A deterministic pair (h, q) with h a subgroup of g and q = g/h.

    Present g as Z^k modulo the diagonal relations lattice; an intermediate
    lattice sampled between the two realizes a subgroup and its quotient at
    once, and the orders multiply up to |g| by index multiplicativity.
    """
    rng = random.Random(seed)
    factors = g.invariant_factors
    k = len(factors)
    if k == 0:
        return FinAbGroup(), FinAbGroup()
    relations = [[factors[i] if j == i else 0 for j in range(k)] for i in range(k)]
    extra = rng.randint(0, k)
    gens = list(relations)
    for _ in range(extra):
        gens.append([rng.randrange(f) for f in factors])
    mid = lattice_from_generators(k, gens)
    rel = lattice_from_generators(k, relations)
    sub = quotient_invariants(mid, rel)
    quo = quotient_invariants(standard_lattice(k), mid)
    return FinAbGroup(sub.factors), FinAbGroup(quo.factors)
