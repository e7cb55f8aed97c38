import copy
import importlib.util
import pickle
import random
from pathlib import Path

import pytest

from augq.intlinalg import (
    IntMatrix,
    InvariantFactors,
    Lattice,
    NotASublatticeError,
    _Echelon,
    kernel_basis,
    lattice_from_generators,
    quotient_invariants,
    smith_invariants,
    snf,
)
from conftest import build_corpus_ring
from oracles import (
    coordinates_by_back_substitution,
    det_laplace,
    hnf_oracle,
    invariant_factors_minors,
    kernel_by_column_echelon,
    matmul,
    quotient_by_minors,
    random_unimodular,
    standard_lattice,
    zero_lattice,
)


# shapes the random witness tests never draw: no rows, no columns, all
# zeros, rank below both dimensions
EDGE_MATRICES = [
    IntMatrix([], ncols=0),
    IntMatrix([], ncols=3),
    IntMatrix([[], []]),
    IntMatrix([[0, 0, 0], [0, 0, 0]]),
    IntMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 0]]),
    IntMatrix([[2, 4], [3, 6], [5, 10]]),
    IntMatrix([[0, 6, 4], [0, 9, 6]]),
]


def test_intmatrix_shape_checks():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([])
    m = IntMatrix([], ncols=3)
    assert m.nrows == 0 and m.ncols == 3
    assert IntMatrix([[1, 2]]).ncols == 2


def test_det_small_cases():
    assert IntMatrix([], ncols=0).det() == 1
    assert IntMatrix([[7]]).det() == 7
    assert IntMatrix([[2, 0], [1, 1]]).det() == 2
    assert IntMatrix([[0, 1], [1, 0]]).det() == -1
    assert IntMatrix.identity(5).det() == 1
    # no pivot below the diagonal in some column: singular before the end
    assert IntMatrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]]).det() == 0
    assert IntMatrix([[1, 2, 3], [2, 4, 5], [3, 6, 7]]).det() == 0


def test_det_matches_laplace_oracle():
    rng = random.Random(20)
    for _ in range(60):
        n = rng.randrange(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert IntMatrix(rows).det() == det_laplace(rows)


def test_det_big_entries():
    rng = random.Random(21)
    rows = [[rng.randint(-(10**25), 10**25) for _ in range(4)] for _ in range(4)]
    assert IntMatrix(rows).det() == det_laplace(rows)


def test_invariant_factors_validation():
    f = InvariantFactors((2, 4), 1)
    assert f.factors == (2, 4) and f.free_rank == 1
    assert f == InvariantFactors((2, 4), free_rank=1) != InvariantFactors((2,), 1)
    assert repr(f) == "InvariantFactors(factors=(2, 4), free_rank=1)"
    assert pickle.loads(pickle.dumps(f)) == f == copy.deepcopy(f)


# -- HNF ---------------------------------------------------------------------


# the exact echelon: lattice_from_generators without a modulus


def test_hnf_frozen_examples():
    h = lattice_from_generators(2, [[2, 0], [1, 1]])
    assert h.basis.tolist() == [[1, 1], [0, 2]]
    h = lattice_from_generators(2, IntMatrix.identity(2).data)
    assert h.basis.tolist() == [[1, 0], [0, 1]]
    h = lattice_from_generators(2, [[0, 0], [3, 6]])
    assert h.basis.tolist() == [[3, 6]]


def test_hnf_matches_textbook_oracle():
    rng = random.Random(23)
    for _ in range(60):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        h = lattice_from_generators(nc, rows)
        assert h.basis.tolist() == hnf_oracle(rows)


def test_hnf_canonical_under_row_scrambles():
    # same span => identical Lattice object value
    rng = random.Random(24)
    for _ in range(30):
        n = rng.randrange(2, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n + 1)]
        base = lattice_from_generators(n, rows)
        u = random_unimodular(rng, n + 1)
        mixed = matmul(u, rows)
        assert lattice_from_generators(n, mixed) == base


def test_lattice_validation_rejects_non_hnf():
    with pytest.raises(ValueError):
        Lattice(2, IntMatrix([[1, 0], [1, 1]]))  # pivot columns not increasing
    with pytest.raises(ValueError):
        Lattice(2, IntMatrix([[-1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        Lattice(2, IntMatrix([[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        Lattice(2, IntMatrix([[1, 5], [0, 3]]))  # 5 not reduced mod 3


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: lattice_from_generators(2, [[1, 2, 3]]), "generator length"),
        (lambda: lattice_from_generators(2, [[1]], modulus=4), "generator length"),
        (lambda: Lattice(3, IntMatrix([[1, 0]])), "basis width"),
        (
            lambda: quotient_invariants(standard_lattice(3), standard_lattice(2)),
            "ambient dimensions differ",
        ),
    ],
    ids=["generators", "modular-generators", "lattice-width", "quotient-ambient"],
)
def test_shape_checks_refuse_mismatched_dimensions(call, message):
    with pytest.raises(ValueError, match=message) as exc:
        call()
    assert exc.type is ValueError


def test_lattice_membership_and_coordinates():
    lat = lattice_from_generators(2, [[2, 0], [0, 2]])
    assert lat.coordinates([1, 0]) is None
    assert lat.coordinates([4, -2]) == [2, -1]
    assert lat.coordinates([1, 1]) is None
    assert zero_lattice(3).coordinates([0, 0, 0]) == []
    line = lattice_from_generators(3, [[5, 0, 1]])
    z3 = standard_lattice(3)
    assert all(z3.coordinates(row) is not None for row in line.basis.data)
    assert not all(line.coordinates(row) is not None for row in z3.basis.data)


def test_lattice_coordinates_and_times_match_oracles():
    # seeded HNF bases from the textbook oracle: non-unit pivots, rank below
    # the dimension, and the zero lattice all occur
    rng = random.Random(17)
    outside = 0
    for _ in range(150):
        n = rng.randrange(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randrange(n + 2))]
        basis = hnf_oracle(rows)
        lat = Lattice(n, IntMatrix(basis, ncols=n))
        coeffs = [rng.randint(-5, 5) for _ in basis]
        vec = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(n)]
        assert lat.coordinates(vec) == coeffs
        v = [rng.randint(-9, 9) for _ in range(n)]
        c = lat.coordinates(v)
        assert (c is not None) == (hnf_oracle(basis + [v]) == basis)
        if c is None:
            outside += 1
        else:
            assert [sum(x * row[j] for x, row in zip(c, basis)) for j in range(n)] == v
        width = rng.randrange(1, 5)
        right = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(n)]
        assert lat.times(right) == matmul(basis, right)
    assert outside >= 50


def _full_rank_hnf(rng, r):
    """A seeded r x r HNF basis: pivots mostly above 1, each entry above a
    pivot drawn from [0, pivot)."""
    pivots = [rng.choice([1, 2, 2, 3, 4, 6, 9]) for _ in range(r)]
    return [
        [0] * i + [pivots[i]] + [rng.randrange(p) for p in pivots[i + 1 :]]
        for i in range(r)
    ]


def test_batched_conjugation_matches_per_row_coordinates():
    # k <= 7 operators on HNF lattices in Z^n, n <= 12, with pivots above 1:
    # full-rank ones, where an operator divisible by det C always conjugates
    # to an integer matrix, and ones of lower rank, kept by an operator whose
    # rows lie in the lattice; an operator with small random entries seldom
    # maps a lattice into itself
    rng = random.Random(41)
    integral = failed = 0
    for case in range(160):
        n = rng.randrange(1, 13)
        k = rng.randrange(1, 8)
        bits = rng.choice([3, 53, 70, 130])
        if case % 4:
            basis = _full_rank_hnf(rng, n)
            det = 1
            for i in range(n):
                det *= basis[i][i]
            ops = [
                [
                    [det * rng.randint(-(2**bits), 2**bits) for _ in range(n)]
                    for _ in range(n)
                ]
                for _ in range(k)
            ]
        else:
            rows = [
                [rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randrange(n))
            ]
            basis = hnf_oracle(rows)
            ops = [
                matmul(
                    [
                        [rng.randint(-(2**bits), 2**bits) for _ in basis]
                        for _ in range(n)
                    ],
                    basis,
                )
                if basis
                else [[0] * n for _ in range(n)]
                for _ in range(k)
            ]
        lat = Lattice(n, IntMatrix(basis, ncols=n))
        if case % 3 == 0:
            ops[rng.randrange(k)] = [
                [rng.randint(-3, 3) for _ in range(n)] for _ in range(n)
            ]
        d = rng.choice([2, 7, 12, 2**64 + 13])
        side = [[x for op in ops for x in op[a]] for a in range(n)]
        got = lat.conjugate(side, d)
        want = [[lat.coordinates(row) for row in lat.times(op)] for op in ops]
        if any(None in op for op in want):
            assert got is None
            failed += 1
            continue
        integral += 1
        conjugated, keys = got
        rows = [[x for op in want for x in op[a]] for a in range(lat.rank)]
        assert conjugated == rows
        assert keys == [
            sum(x % d * d**i for i, x in enumerate(row)) for op in want for row in op
        ]
        for op, x in zip(ops, want):
            assert matmul(x, basis) == matmul(basis, op)
    assert integral >= 80 and failed >= 20


def test_batched_conjugation_edge_cases():
    lat = Lattice(2, IntMatrix([[1, 1], [0, 2]]))
    # C·M·C^-1 has 1/2 in its corner
    assert lat.conjugate([[0, 1], [0, 0]], 3) is None
    assert zero_lattice(0).conjugate([], 5) == ([], [])
    assert zero_lattice(2).conjugate([[1, 2], [3, 4]], 5) == ([], [])
    assert standard_lattice(1).conjugate([[4, -9]], 5) == ([[4, -9]], [4, 1])
    # the span of e_0 is kept by a matrix with first row (a, 0), and left
    # by one that sends e_0 to e_1
    line = Lattice(2, IntMatrix([[1, 0]]))
    assert line.conjugate([[3, 0, 2, 0], [0, 5, 7, 1]], 2) == ([[3, 2]], [1, 0])
    assert line.conjugate([[0, 1], [0, 0]], 2) is None
    with pytest.raises(ValueError):
        line.conjugate([[1, 0]], 3)


def test_echelon_insert_reports_whether_the_span_grew():
    # rows with small entries, a third of them combinations of earlier rows:
    # the span grows by a new pivot, by a pivot replaced with a proper
    # divisor, or not at all
    rng = random.Random(31)
    counts = {"pivot": 0, "divisor": 0, "none": 0}
    for _ in range(300):
        n = rng.randrange(1, 6)
        ech = _Echelon()
        rows = []
        for _ in range(rng.randrange(1, 9)):
            if rows and rng.randrange(3) == 0:
                coeffs = [rng.randint(-3, 3) for _ in rows]
                row = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
            else:
                row = [rng.randint(-4, 4) for _ in range(n)]
            before = hnf_oracle(rows)
            pivots = len(ech.pivots)
            rows.append(row)
            grew = ech.insert(row)
            assert grew == (hnf_oracle(rows) != before)
            kind = "none" if not grew else "pivot" if len(ech.pivots) > pivots else "divisor"
            counts[kind] += 1
        ech.canonicalize()
        assert ech.rows == hnf_oracle(rows)
    assert min(counts.values()) >= 100, counts


def test_generators_frozen_example():
    lat = lattice_from_generators(2, [(0, 3), (0, 6)])
    assert lat.basis.tolist() == [[0, 3]]
    assert lattice_from_generators(2, []).rank == 0


# -- kernels -----------------------------------------------------------------


def test_kernel_frozen_examples():
    k = kernel_basis(IntMatrix([[1, 1]]))
    assert k.basis.tolist() == [[1, -1]]
    k = kernel_basis(IntMatrix([[0, 0]]))
    assert k == standard_lattice(2)
    k = kernel_basis(IntMatrix.identity(3))
    assert k.rank == 0


def test_kernel_is_saturated():
    # the kernel lattice must contain every integer solution, so a primitive
    # solution vector has to lie inside it
    rng = random.Random(25)
    cases = []
    for _ in range(40):
        nr = rng.randrange(1, 4)
        nc = rng.randrange(1, 5)
        cases.append(IntMatrix([[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]))
    for m in cases + EDGE_MATRICES:
        nr, nc = m.nrows, m.ncols
        k = kernel_basis(m)
        for row in k.basis.data:
            assert all(sum(m.data[i][j] * row[j] for j in range(nc)) == 0 for i in range(nr))
        # brute small search for solutions, all must be inside k
        if nc <= 3:
            span = range(-3, 4)
            vecs = [[a, b, c][:nc] for a in span for b in span for c in span]
            for v in vecs:
                if all(sum(m.data[i][j] * v[j] for j in range(nc)) == 0 for i in range(nr)):
                    assert k.coordinates(v) is not None


def _random_kernel_case(rng):
    """A seeded 1-4 x 1-7 matrix with entries in [-5, 5], now and then with
    a zero row, a zero column or a row that is a combination of others."""
    nr = rng.randrange(1, 5)
    nc = rng.randrange(1, 8)
    rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
    kind = rng.randrange(4)
    if kind == 1:
        rows[rng.randrange(nr)] = [0] * nc
    elif kind == 2:
        j = rng.randrange(nc)
        for row in rows:
            row[j] = 0
    elif kind == 3 and nr > 1:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[rng.randrange(nr - 1)])]
    return rows, nc


def test_kernel_basis_matches_the_column_echelon_oracle():
    rng = random.Random(2024)
    deficient = 0
    for _ in range(3000):
        rows, nc = _random_kernel_case(rng)
        got = kernel_basis(IntMatrix(rows)).basis.tolist()
        assert got == kernel_by_column_echelon(rows, nc), rows
        deficient += len(got) > nc - len(rows)
    assert deficient >= 500
    for m in EDGE_MATRICES:
        want = kernel_by_column_echelon(m.data, m.ncols)
        assert kernel_basis(m).basis.tolist() == want


def _workload_augmentation_rows():
    """The augmentation row of every ring the four benchmark workloads
    sweep, dense-specs at seed 1; ``bench/workloads.py`` imports no augq."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rings = {
        (family, group)
        for name in ("acceptance-corpus", "wide-rings", "coeff-blowup")
        for family, group in workloads.WORKLOADS[name]["rings"]
    }
    rows = [list(build_corpus_ring(*ring).augmentation) for ring in sorted(rings)]
    base_rings = workloads.load_json(workloads.BASE_RINGS_PATH)
    rows += [spec["augmentation"] for _, _, spec in workloads.dense_specs(1, base_rings)]
    return rows


def test_kernel_basis_matches_the_oracle_on_workload_augmentation_rows():
    rows = _workload_augmentation_rows()
    assert len(rows) == 188 and max(map(len, rows)) == 67
    for row in rows:
        want = kernel_by_column_echelon([row], len(row))
        assert kernel_basis(IntMatrix([row])).basis.tolist() == want


# -- SNF ---------------------------------------------------------------------


def test_snf_frozen_examples():
    s, _, _ = snf(IntMatrix([[2, 0], [0, 3]]))
    assert s.tolist() == [[1, 0], [0, 6]]
    s, _, _ = snf(IntMatrix([[2, 0], [0, 0]]))
    assert s.tolist() == [[2, 0], [0, 0]]
    # no pivot divides the others: the chain comes only from mixing rows
    s, _, _ = snf(IntMatrix([[4, 0, 0], [0, 6, 0], [0, 0, 10]]))
    assert s.tolist() == [[2, 0, 0], [0, 2, 0], [0, 0, 60]]


# entries with no unit among them, so no pivot is 1 and the divisibility
# chain has work to do
NON_UNITS = (0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 10, -10)


def _small(rng):
    return rng.randint(-9, 9)


def _big(rng):
    return rng.randint(-(10**6), 10**6)


def _non_unit(rng):
    return rng.choice(NON_UNITS)


def _rows(rng, nr, nc, entry):
    return [[entry(rng) for _ in range(nc)] for _ in range(nr)]


def test_snf_witness_identity():
    rng = random.Random(26)
    cases = []
    for _ in range(80):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        cases.append(IntMatrix([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]))
    # up to 8 x 8, wide and tall shapes among them, with entries up to
    # 10^6 in size or with no unit entry
    shapes = [(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(40)]
    shapes += [(1, 8), (2, 8), (3, 7), (8, 1), (8, 2), (7, 3)]
    for nr, nc in shapes:
        for entry in (_big, _non_unit):
            cases.append(IntMatrix(_rows(rng, nr, nc, entry)))
    for m in cases + EDGE_MATRICES:
        nr, nc = m.nrows, m.ncols
        s, u, v = snf(m)
        assert (s.nrows, s.ncols, u.ncols, v.nrows) == (nr, nc, nr, nc)
        assert matmul(matmul(u.data, m.data), v.data) == s.tolist()
        assert u.det() in (1, -1)
        assert v.det() in (1, -1)
        diag = [s.data[i][i] for i in range(min(nr, nc))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(27)
    for _ in range(50):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        s, _, _ = snf(IntMatrix(rows))
        diag = [s.data[i][i] for i in range(min(nr, nc))]
        assert [d for d in diag if d > 1] == invariant_factors_minors(rows)
    # up to 5 x 5, the largest the minor oracle affords
    for entry in (_small, _non_unit):
        for _ in range(30):
            rows = _rows(rng, rng.randrange(1, 6), rng.randrange(1, 6), entry)
            s, _, _ = snf(IntMatrix(rows))
            diag = [s.data[i][i] for i in range(min(len(rows), len(rows[0])))]
            assert [d for d in diag if d > 1] == invariant_factors_minors(rows)


def test_smith_invariants_refuses_dependent_rows():
    assert smith_invariants([[2, 0, 0], [0, 3, 0]], 3) == InvariantFactors((6,), 1)
    with pytest.raises(ArithmeticError, match="not independent"):
        smith_invariants([[1, 2], [2, 4]], 2)
    with pytest.raises(ArithmeticError, match="not independent"):
        smith_invariants([[2, 4, 6], [0, 0, 0]], 3)


# -- quotients ---------------------------------------------------------------


def test_quotient_frozen_examples():
    z2 = standard_lattice(2)
    doubled = lattice_from_generators(2, [[2, 0], [0, 2]])
    q = quotient_invariants(z2, doubled)
    assert q.factors == (2, 2) and q.free_rank == 0

    sub = lattice_from_generators(2, [[1, 1], [0, 2]])
    q = quotient_invariants(z2, sub)
    assert q.factors == (2,) and q.free_rank == 0

    q = quotient_invariants(z2, z2)
    assert q.factors == () and q.free_rank == 0

    q = quotient_invariants(z2, zero_lattice(2))
    assert q.factors == () and q.free_rank == 2


def test_quotient_rejects_non_sublattice():
    lat = lattice_from_generators(2, [[2, 0], [0, 2]])
    with pytest.raises(NotASublatticeError):
        quotient_invariants(lat, standard_lattice(2))


def test_coordinates_and_quotients_match_back_substitution_oracles():
    # HNF bases of full rank, of lower rank (columns without a pivot keep a
    # residual to check) and of rank 0, against vectors inside and outside
    # and against sublattices, some with a row outside
    rng = random.Random(29)
    ranks = set()
    outside = rejected = 0
    for case in range(400):
        n = rng.randrange(1, 6)
        rank = (n, rng.randrange(n), 0)[case % 3]
        sup = hnf_oracle(matmul(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rank)],
            random_unimodular(rng, n),
        )) if rank else []
        lat = Lattice(n, IntMatrix(sup, ncols=n))
        ranks.add((lat.rank == n, lat.rank))
        for _ in range(3):
            if sup and rng.randrange(2):
                coeffs = [rng.randint(-4, 4) for _ in sup]
                vec = [sum(c * row[j] for c, row in zip(coeffs, sup)) for j in range(n)]
            else:
                vec = [rng.randint(-6, 6) for _ in range(n)]
            want = coordinates_by_back_substitution(sup, vec)
            outside += want is None
            assert lat.coordinates(vec) == want
        gens = [[rng.randint(-3, 3) for _ in sup] for _ in range(rng.randrange(len(sup) + 1))]
        sub = hnf_oracle(matmul(gens, sup)) if gens and sup else []
        if rng.randrange(4) == 0:
            sub = hnf_oracle(sub + [[rng.randint(-6, 6) for _ in range(n)]])
        want = quotient_by_minors(sup, sub)
        sub = Lattice(n, IntMatrix(sub, ncols=n))
        if isinstance(want, int):
            rejected += 1
            with pytest.raises(NotASublatticeError, match=f"basis row {want} "):
                quotient_invariants(lat, sub)
        else:
            got = quotient_invariants(lat, sub)
            assert (got.factors, got.free_rank) == want
    assert {r for full, r in ranks if not full} >= {0, 1, 2, 3}
    assert outside >= 300 and rejected >= 40


def test_quotient_order_equals_det_index():
    rng = random.Random(28)
    for _ in range(40):
        n = rng.randrange(1, 5)
        while True:
            sup_rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            if det_laplace(sup_rows) != 0:
                break
        while True:
            mult = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if det_laplace(mult) != 0:
                break
        sup = lattice_from_generators(n, sup_rows)
        sub = lattice_from_generators(n, matmul(mult, sup.basis.tolist()))
        q = quotient_invariants(sup, sub)
        order = 1
        for f in q.factors:
            order *= f
        assert q.free_rank == 0
        assert order == abs(det_laplace(mult))


def test_modular_generators_reinsert_multiples_of_modulus():
    # modulo 4 the rows (2, 1), (0, 4) echelonize {(2, 1)} + 4Z^2, yet miss (4, 0)
    lat = lattice_from_generators(2, [[2, 1]], modulus=4)
    assert lat.basis.tolist() == hnf_oracle([[2, 1], [4, 0], [0, 4]]) == [[2, 1], [0, 2]]
    assert lat.coordinates([4, 0]) == [2, -1] and lat.coordinates([0, 4]) == [0, 2]


def test_modular_generators_match_oracle():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randrange(1, 6)
        d = rng.randrange(1, 40)
        rows = [
            [rng.randint(-60, 60) for _ in range(n)] for _ in range(rng.randrange(0, 7))
        ]
        multiples = [[d * int(i == j) for j in range(n)] for i in range(n)]
        lat = lattice_from_generators(n, rows, modulus=d)
        assert lat.basis.tolist() == hnf_oracle(rows + multiples)
        assert all(0 <= x <= d for row in lat.basis.data for x in row)


# 1, primes, prime powers, composites, and moduli whose packed slots span
# several machine words
MODULI = [1, 2, 3, 97, 4, 8, 9, 64, 6, 12, 30, 360, 2**31 - 1, 2**64 + 13, 10**30]


@pytest.mark.parametrize("d", MODULI)
def test_modular_generators_match_oracle_at_every_width(d):
    rng = random.Random(f"modular {d}")
    for n in range(15):
        for _ in range(2):
            # zeros, small entries of both signs, entries past d; then one
            # repeated row and one zero row
            rows = [
                [
                    rng.choice([0, rng.randint(-9, 9), rng.randint(-3 * d, 3 * d)])
                    for _ in range(n)
                ]
                for _ in range(rng.randrange(0, 8))
            ]
            if rows:
                rows.append(list(rng.choice(rows)))
            rows.insert(rng.randrange(len(rows) + 1), [0] * n)
            multiples = [[d * int(i == j) for j in range(n)] for i in range(n)]
            lat = lattice_from_generators(n, rows, modulus=d)
            assert lat.basis.tolist() == hnf_oracle(rows + multiples), (n, rows)
            assert all(0 <= x <= d for row in lat.basis.data for x in row)


def test_modular_generators_reject_bad_modulus():
    with pytest.raises(ValueError):
        lattice_from_generators(2, [[1, 0]], modulus=0)
