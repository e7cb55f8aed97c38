"""Commutative rings with an integer augmentation, given by structure
constants on a finite free basis, plus the exact machinery for powers of
the augmentation ideal and their consecutive quotients.

The ring is Z^m with a bilinear product; the augmentation is a linear map
to Z that is expected (and checked, not assumed) to be a unital ring
homomorphism.  Its kernel I and the chain I >= I^2 >= ... are plain
integer lattices, so every quotient I^n / I^{n+1} is computed exactly.
The structure constants come in one format, the ring-spec quadruples
[i, j, k, c], from JSON and from Python alike, and the constructor is the
one place they are checked.

The chain is built from a few ideal generators g of I, since
I^{n+1} = sum_g g·I^n.  Past I^2 it never leaves I^n-coordinates: each g
acts on I^n by an r x r integer matrix, the step lattice C_n spanned by the
rows of those matrices is I^{n+1} written in I^n-coordinates, and it
contains d·Z^r for d the exponent of I/I^2, since d·I^n lies in I^{n+1}.
So C_n is computed modulo d, Z^r / C_n is I^n / I^{n+1}, and changing
basis by C_n carries the matrices up to I^{n+1}.  The matrices of one step
fix every later step, so once they equal those of an earlier step the
chain is periodic and its steps are replayed, not recomputed.  A single
generator g proves period 1 from C_2 on: I^{n+1} = g·I^n, and g·E_n is a
basis of it, on which g acts by the same matrix.
"""

from itertools import chain

from .abgroup import _check_order, read_decimal, write_decimal
from .intlinalg import AugqError, IntMatrix, NotASublatticeError, _Echelon, _Record
from .intlinalg import _combine
from .intlinalg import kernel_basis, lattice_from_generators, quotient_invariants

__all__ = [
    "AugmentedRing",
    "DimensionMismatchError",
    "QuotientResult",
    "RankDropError",
    "RingSpecError",
    "ValidationReport",
]

# the largest max_n ideal_powers takes: a chain with no exact period
# conjugates every step, and its operators' entries grow with n, so time
# does too: C2xC2xC8 takes about 2 s at max_n 1000 and 4 s at 2000
MAX_N = 1000

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


def encode_int(x):
    """Ints stay ints inside the 64-bit range; beyond it, decimal strings."""
    return x if _I64_MIN <= x <= _I64_MAX else write_decimal(x)


def decode_int(x):
    """An int, or a decimal string under ``read_decimal``'s rule."""
    if isinstance(x, bool):
        raise RingSpecError("expected an integer, got a boolean")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        n = read_decimal(x)
        if n is not None:
            return n
        raise RingSpecError(f"not a decimal integer: {x!r}")
    raise RingSpecError(f"expected an integer, got {type(x).__name__}")


class DimensionMismatchError(AugqError, ValueError):
    """Operand vector length does not match the ring dimension."""

    exit_code = 2


class RankDropError(AugqError, ArithmeticError):
    """An ideal power lost rank; the ring violates the torsion axiom."""


class RingSpecError(AugqError, ValueError):
    """Malformed or self-contradictory ring-spec input."""

    exit_code = 2


class ValidationReport(_Record):
    """Outcome of the axiom checks, one named flag per axiom.

    ``failures`` holds one human-readable line per failed check (first
    counterexample only); nothing here raises, so a report can describe a
    thoroughly broken ring.
    """

    __slots__ = ("checks", "failures")

    @property
    def passed(self):
        return all(self.checks.values())


class QuotientResult(_Record):
    """One consecutive quotient I^n / I^{n+1}."""

    __slots__ = ("n", "group", "order", "ideal_rank")


class AugmentedRing:
    """A commutative ring on basis b_0..b_{m-1} with augmentation to Z.

    ``structure`` lists the ring-spec quadruples [i, j, k, c], each adding
    c·b_k to b_i·b_j: quadruples accumulate, unlisted coefficients are zero,
    and a pair listed only as (i, j) is b_j·b_i as well, so the table is
    commutative by construction.  A pair listed in both orders must agree.
    The constructor checks the identity, the augmentation, the structure and
    each row, in that order, and raises RingSpecError at the first fault.
    Integers are ints or decimal strings, as ``decode_int`` reads them.
    """

    __slots__ = (
        "labels",
        "dim",
        "augmentation",
        "identity_index",
        "_table",
        "_start",
    )

    def __init__(self, labels, structure, augmentation, identity_index):
        self.labels = tuple(str(x) for x in labels)
        m = self.dim = len(self.labels)
        e = identity_index
        if not isinstance(e, int) or isinstance(e, bool):
            raise RingSpecError("'identity' must be an integer index")
        if not 0 <= e < m:
            raise RingSpecError("'identity' index out of range")
        self.identity_index = e
        if not isinstance(augmentation, list) or len(augmentation) != m:
            raise RingSpecError(f"'augmentation' must be a list of {m} integers")
        self.augmentation = tuple(decode_int(x) for x in augmentation)
        if not isinstance(structure, list):
            raise RingSpecError("'structure' must be a list of [i, j, k, c] rows")
        # the coefficients of each listed pair, by k
        sums = {}
        for row in structure:
            if not isinstance(row, list) or len(row) != 4:
                raise RingSpecError(f"structure row {row!r} is not [i, j, k, c]")
            i, j, k, c = row
            for idx in (i, j, k):
                if not isinstance(idx, int) or isinstance(idx, bool):
                    raise RingSpecError(f"structure row {row!r} has a non-int index")
                if not 0 <= idx < m:
                    raise RingSpecError(f"structure row {row!r} index out of range")
            terms = sums.setdefault((i, j), {})
            terms[k] = terms.get(k, 0) + decode_int(c)
        products = {
            pair: tuple(sorted((k, c) for k, c in terms.items() if c))
            for pair, terms in sums.items()
        }
        table = [[()] * m for _ in range(m)]
        for (i, j), v in products.items():
            if i < j and products.get((j, i), v) != v:
                raise RingSpecError(
                    f"conflicting symmetric entries for basis pair ({i}, {j})"
                )
            table[i][j] = table[j][i] = v
        self._table = table
        # (I, its ideal generators, I^2, the generators' multiplication
        # matrices), built on first use by _chain_start
        self._start = None

    # -- products ---------------------------------------------------------

    def multiply(self, x, y):
        """Bilinear product of two coefficient vectors."""
        m = self.dim
        if len(x) != m or len(y) != m:
            raise DimensionMismatchError(
                f"operands must have length {m}, got {len(x)} and {len(y)}"
            )
        out = [0] * m
        table = self._table
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = table[i]
            for j, yj in ys:
                f = xi * yj
                for k, c in row[j]:
                    out[k] += f * c
        return out

    def augment(self, x):
        if len(x) != self.dim:
            raise DimensionMismatchError(
                f"operand must have length {self.dim}, got {len(x)}"
            )
        return sum(a * b for a, b in zip(self.augmentation, x))

    def basis_vector(self, i):
        v = [0] * self.dim
        v[i] = 1
        return v

    # -- validation --------------------------------------------------------

    def validate(self):
        """Check every ring axiom and report, without raising.

        Associativity is exhaustive over all m^3 basis triples.  The table
        is commutative, so the triples (i, j, k) and (k, j, i) compare the
        same two products, and only k >= i is checked: the failing triples
        come in such pairs, and the first of them in lexicographic order has
        i <= k.  There both sides are products (b_a b_b) b_c, and
        ``_combine``, the row sum of ``Lattice.times``, forms them for every
        c at once, once per sorted pair (a, b).  Each product b_t b_k is
        packed into one int, its entries as signed slots of w = bitlen(m·s²)
        + 2 bits for s the largest |structure constant|.  Every entry of a
        product of three basis elements is a sum of m products of two
        structure constants, so it lies below 2^(w-1) in absolute value;
        packing is linear and injective on such vectors, so each test is
        one exact int ``==``.
        The torsion axiom asks that I / I^2 be finite, i.e. that I^2 spans
        the same rank as I.
        """
        m = self.dim
        table = self._table
        aug = self.augmentation
        e = self.identity_index
        ideal, _, square, _ = self._chain_start()
        lost_rank = ideal.rank - square.rank
        unit = f"augmentation: eps(identity) == {aug[e]}, want 1"
        if lost_rank >= 0:
            torsion = f"torsion: I/I^2 has free rank {lost_rank}, so it is not finite"
        else:
            # products of elements of I have left I
            torsion = (
                f"torsion: I^2 spans rank {square.rank}, more than the rank "
                f"{ideal.rank} of I, so it is not inside I"
            )
        top = max((abs(c) for row in table for v in row for _, c in v), default=0)
        w = (m * top * top).bit_length() + 2
        packed = [[sum(c << (w * k) for k, c in v) for v in row] for row in table]
        # expanded[a][b][c] is (b_a b_b) b_c packed
        expanded = [[None] * m for _ in range(m)]
        for a in range(m):
            for b in range(a, m):
                expanded[a][b] = expanded[b][a] = _combine(table[a][b], packed)

        # per check, its failure lines in counterexample order; the lazy
        # generators stop at the first one
        found = {
            # the constructor refuses a table that is not symmetric
            "commutativity": [],
            # b_i (b_j b_k) = (b_j b_k) b_i, compared for every k >= i at
            # once before the first failing k is sought
            "associativity": (
                f"associativity: (b{i}*b{j})*b{k} != b{i}*(b{j}*b{k})"
                for i in range(m)
                for j in range(m)
                for lhs in [expanded[i][j]]
                if lhs[i:] != [expanded[j][k][i] for k in range(i, m)]
                for k in range(i, m)
                if lhs[k] != expanded[j][k][i]
            ),
            "identity": (
                f"identity: b{e} does not fix b{j}"
                for j in range(m)
                if table[e][j] != ((j, 1),)
            ),
            "augmentation_multiplicative": (
                f"augmentation: eps(b{i}*b{j}) != eps(b{i})*eps(b{j})"
                for i in range(m)
                for j in range(i, m)
                if sum(c * aug[k] for k, c in table[i][j]) != aug[i] * aug[j]
            ),
            "augmentation_unit": [unit] if aug[e] != 1 else [],
            "torsion": [torsion] if lost_rank else [],
        }
        checks = {}
        failures = []
        for name, messages in found.items():
            first = next(iter(messages), None)
            checks[name] = first is None
            if first is not None:
                failures.append(first)
        return ValidationReport(checks=checks, failures=failures)

    # -- ideal powers -------------------------------------------------------

    def augmentation_ideal(self):
        """The kernel of the augmentation as a lattice in Z^dim."""
        return kernel_basis(IntMatrix([list(self.augmentation)]))

    def ideal_generators(self):
        """A few elements g of I whose ideals A·g add up to I.

        The HNF rows of I are taken in order of L1 norm, rows of equal norm
        in HNF order, skipping any row already in the span of b_i·g over
        the generators g picked so far.  The closure runs once per ring;
        every call returns a fresh list of fresh rows.

        Generators of I as an ideal generate Q_1 = I / I^2 as an abelian
        group, since A / I is Z, so no set has fewer than the largest
        p-rank of Q_1 (the Nakayama bound).  The pick meets it on the group
        ring of C2xC2xC8 (3 of 31 rows) and on the Burnside rings of
        C2xC2xC2xC2, C2xC4xC4 and D16 (15, 19 and 9), and can exceed it:
        the Burnside rings of S4 and D6 take 5 and 4 against bounds of 4
        and 3.  Against HNF order it takes no more on the corpus Burnside
        rings, but one more on rep D6, rep D8 and a ring with one entry
        near 2^71, which dominates the norm.
        """
        return [list(g) for g in self._chain_start()[1]]

    def _chain_start(self):
        """(I, its ideal generators, I^2, the matrices L_g), built once per
        ring and shared by ``validate`` and ``ideal_powers``.  Row i of L_g
        is b_i·g, so the rows of B·L_g are the products g·b over the rows b
        of a basis B, one ``times`` call per generator; I^2 is spanned by
        the distinct products g·b with the basis rows of I.  The span of
        the b_i·g is one running echelon, canonicalized after each g to
        keep its entries small; a row g that grows it is among its own
        products (b_i·g = g for the identity b_i)."""
        if self._start is None:
            m = self.dim
            ideal = self.augmentation_ideal()
            gens = []
            ops = []
            closure = _Echelon()
            for row in sorted(ideal.basis.data, key=lambda v: sum(map(abs, v))):
                if not closure.insert(row):
                    continue
                op = [self.multiply(self.basis_vector(i), row) for i in range(m)]
                gens.append(tuple(row))
                ops.append(op)
                for product in op:
                    closure.insert(product)
                closure.canonicalize()
            products = {tuple(p): None for op in ops for p in ideal.times(op)}
            square = lattice_from_generators(m, list(products))
            self._start = (ideal, tuple(gens), square, ops)
        return self._start

    def ideal_powers(self, max_n, steps=None):
        """Lattices for I^1, I^2, ..., I^{max_n+1}, in that order; only I and
        I^2 when ``steps`` is a list.

        I^2 is spanned by the products g·b of the ideal generators g with
        the basis of I, and gives d, the exponent of I/I^2.  Past it no ring
        product is taken: g acts on a working basis E_n of I^n (E_2 the
        basis of I^2) by the r x r matrix M_g of the coordinates of g·E_n.
        For E_2 it is built once, by carrying the m x m matrix L_g of
        multiplication by g to E_2 with ``Lattice.conjugate``.  The rows of
        all M_g together with d·Z^r, which lies inside because
        d·I^n ⊆ I^{n+1}, span the step lattice C_n: I^{n+1} in
        E_n-coordinates, computed modulo d.  Then E_{n+1} = C_n·E_n, and
        one ``Lattice.conjugate`` call takes [M_1 | ... | M_k], the k
        operators side by side, to the C_n·M_g·C_n^-1, keying every row
        modulo d on the way; C_n has full rank since it contains d·Z^r.
        The lemma needs the ring axioms, so the ring should have passed
        ``validate``; a product or a conjugate that leaves the lattice
        raises NotASublatticeError.

        C_n depends only on the rows modulo d, so a step whose rows reduce
        to a set already met in this call reuses that step's lattice, which
        the canonical HNF makes exact.  The operators M_g fix C_n and the
        next operators, so when they equal those of an earlier step j,
        every later step repeats with period n - j: C_i is C_{i-(n-j)} from
        there on, and nothing more is conjugated.  The operators are
        compared only with those of the last step whose rows modulo d met
        the same set, so a period inside which a set repeats goes unseen.

        When ``steps`` is a list, C_2 .. C_{max_n} are appended to it, equal
        steps possibly as one Lattice object, and no lattice past I^2 is
        built; Z^r / C_n is isomorphic to I^n / I^{n+1}.  Otherwise I^{n+1}
        is the canonical HNF of E_{n+1}.

        With a ``steps`` list, one generator g proves the period 1 from
        step 2 on, with no comparison: I = A·g gives I^{n+1} = g·I^n, and
        multiplication by g keeps the rank, so it is injective and g·E_n is
        a basis of I^{n+1}.  In the bases g^(n-2)·E_2, g acts by M_g at
        every step, so C_n = C_2 for every n.  The lattices are not built
        in those bases: M_g·E_n is dense and its HNF slows down as n grows,
        while C_n·E_n stays in echelon form.

        Raises ValueError unless 1 <= max_n <= MAX_N, and RankDropError
        when I^2 spans less than I does; the consecutive quotients are then
        not finite and the chain is no longer the object of interest.
        """
        if not isinstance(max_n, int) or not 1 <= max_n <= MAX_N:
            raise ValueError(f"max_n must be an integer from 1 to {MAX_N}")
        ideal, gens, square, ops = self._chain_start()
        if square.rank < ideal.rank:
            raise RankDropError(
                f"rank of I^2 dropped to {square.rank} "
                f"(rank of I is {ideal.rank}); torsion axiom violated"
            )
        factors = quotient_invariants(ideal, square).factors
        d = factors[-1] if factors else 1
        r = ideal.rank
        basis = square.basis.data
        # I^{n+1} = g·I^n, and in the bases g^(n-2)·E_2 M_g never changes;
        # the lattices are built from the triangular bases C_n·E_n instead
        principal = len(gens) == 1 and steps is not None
        # a row modulo d is keyed by one int, its digits base d; the memo
        # maps the set of nonzero keys of a step to its step lattice and the
        # last step n that met it, with its operators, for this call only
        seen = {}
        lattices = []
        period = None
        # M_g on E_2 is L_g carried to the basis of I^2
        step = square
        side = [list(chain.from_iterable(op[i] for op in ops)) for i in range(self.dim)]
        for n in range(2, max_n + 1):
            if period:
                lattices.append(lattices[-period])
                continue
            out = step.conjugate(side, d)
            if out is None:
                raise NotASublatticeError(
                    f"I^{n + 1} is not inside I^{n}; the ring fails its axioms"
                )
            side, keys = out
            key = frozenset(keys) - {0}
            step, j, old = seen.get(key, (None, None, None))
            if step is None:
                # row a of M_g has the key keys[g·r + a]; one row per key
                # goes to the echelon, which reduces it modulo d
                first = dict(zip(keys, range(len(keys))))
                first.pop(0, None)
                rows = []
                for i in first.values():
                    g, a = divmod(i, r)
                    rows.append(side[a][g * r : g * r + r])
                step = lattice_from_generators(r, rows, modulus=d)
            if principal:
                period = 1
            elif old == side:
                period = n - j
            seen[key] = (step, n, side)
            lattices.append(step)
        if steps is not None:
            steps.extend(lattices)
            return [ideal, square]
        powers = [ideal, square]
        for step in lattices:
            basis = step.times(basis)
            powers.append(lattice_from_generators(self.dim, basis))
        return powers

    # -- wire format ---------------------------------------------------------

    def to_dict(self):
        """Serialize to the ring-spec mapping: the sparse structure
        quadruples of the table's upper triangle, which loading mirrors."""
        quads = []
        for i, row in enumerate(self._table):
            for j in range(i, self.dim):
                for k, c in row[j]:
                    quads.append([i, j, k, encode_int(c)])
        return {
            "basis": list(self.labels),
            "identity": self.identity_index,
            "structure": quads,
            "augmentation": [encode_int(x) for x in self.augmentation],
        }

    @classmethod
    def from_dict(cls, d):
        """Load a ring from its ring-spec mapping.

        Only the mapping itself is checked here, and the ring dimension
        against the order guard before any row is read; the constructor
        checks the rest.
        """
        if not isinstance(d, dict):
            raise RingSpecError("ring spec must be a JSON object")
        try:
            basis = d["basis"]
            identity = d["identity"]
            structure = d["structure"]
            augmentation = d["augmentation"]
        except KeyError as exc:
            raise RingSpecError(f"ring spec is missing the {exc.args[0]!r} field")
        if not isinstance(basis, list) or not basis:
            raise RingSpecError("'basis' must be a nonempty list of labels")
        _check_order(len(basis), what="ring dimension")
        return cls(basis, structure, augmentation, identity)
