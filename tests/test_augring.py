import hashlib
import json
import random

import pytest

from augq import augring
from augq.augring import (
    AugmentedRing,
    DimensionMismatchError,
    QuotientResult,
    RankDropError,
    RingSpecError,
    ValidationReport,
    decode_int,
    encode_int,
)
from augq.abgroup import FinAbGroup, _factorint
from augq.constructors import group_ring, parse_group_spec
from augq.intlinalg import (
    Lattice,
    NotASublatticeError,
    lattice_from_generators,
    quotient_invariants,
    smith_invariants,
)
from augq.stabilize import build_report, quotient_sequence
from conftest import build_corpus_ring, corpus_ring_specs
from oracles import (
    basis_product,
    det_laplace,
    hnf_oracle,
    random_unimodular,
    solve_exact,
)


def zc2():
    """Group ring of C2 on the basis (e, g), built by hand."""
    return AugmentedRing(
        labels=["1", "g"],
        structure=[[0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 0, 1]],
        augmentation=[1, 1],
        identity_index=0,
    )


def burnside_c2():
    """Burnside ring of C2 on the basis ([C2/1], [C2/C2]), by hand."""
    return AugmentedRing(
        labels=["[C2/1]", "[C2/C2]"],
        structure=[[0, 0, 0, 2], [0, 1, 0, 1], [1, 1, 1, 1]],
        augmentation=[2, 1],
        identity_index=1,
    )


def zc3():
    return AugmentedRing(
        labels=["1", "g", "g2"],
        structure=[
            [0, 0, 0, 1],
            [0, 1, 1, 1],
            [0, 2, 2, 1],
            [1, 1, 2, 1],
            [1, 2, 0, 1],
            [2, 2, 1, 1],
        ],
        augmentation=[1, 1, 1],
        identity_index=0,
    )


def ring_z():
    return AugmentedRing(
        labels=["1"], structure=[[0, 0, 0, 1]], augmentation=[1], identity_index=0
    )


def dual_numbers():
    # Z[x]/(x^2): fails the torsion axiom, I/I^2 is infinite cyclic
    return AugmentedRing(
        labels=["1", "x"],
        structure=[[0, 0, 0, 1], [0, 1, 1, 1]],
        augmentation=[1, 0],
        identity_index=0,
    )


def test_validate_passes_on_good_rings():
    for ring in (zc2(), burnside_c2(), zc3(), ring_z()):
        report = ring.validate()
        assert report.passed, report.failures
        assert report.failures == []
        assert set(report.checks) == {
            "commutativity",
            "associativity",
            "identity",
            "augmentation_multiplicative",
            "augmentation_unit",
            "torsion",
        }


def test_validate_flags_torsion_violation():
    report = dual_numbers().validate()
    assert not report.passed
    assert report.checks["torsion"] is False
    assert all(report.checks[k] for k in report.checks if k != "torsion")


def test_validate_names_a_square_outside_the_ideal():
    # x^2 = x, y^2 = y, xy = 0 with eps = (1, 1, 1): I = <x - 1, y - 1> has
    # rank 2, and the three products of its generators span rank 3
    ring = AugmentedRing(
        labels=["1", "x", "y"],
        structure=[
            [0, 0, 0, 1],
            [0, 1, 1, 1],
            [0, 2, 2, 1],
            [1, 1, 1, 1],
            [2, 2, 2, 1],
        ],
        augmentation=[1, 1, 1],
        identity_index=0,
    )
    report = ring.validate()
    assert report.checks["torsion"] is False
    assert report.failures == [
        "augmentation: eps(b1*b2) != eps(b1)*eps(b2)",
        "torsion: I^2 spans rank 3, more than the rank 2 of I, so it is not inside I",
    ]


def _refusal(build):
    """The message of the RingSpecError that ``build()`` raises."""
    with pytest.raises(RingSpecError) as exc:
        build()
    return str(exc.value)


def _spec(labels, structure, augmentation, identity):
    return {
        "basis": labels,
        "identity": identity,
        "structure": structure,
        "augmentation": augmentation,
    }


def test_constructor_refuses_a_noncommutative_table():
    args = (["1", "a"], [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 0, 1], [1, 1, 0, 1]], [1, 1], 0)
    message = "conflicting symmetric entries for basis pair (0, 1)"
    assert _refusal(lambda: AugmentedRing(*args)) == message
    assert _refusal(lambda: AugmentedRing.from_dict(_spec(*args))) == message


# the constructor is the one checker: a direct call and the same spec
# through from_dict are refused with the same message, and with several
# faults the identity is named first, then the augmentation, the structure
# and the rows; from_dict refuses an empty basis itself
@pytest.mark.parametrize(
    "labels,structure,augmentation,identity,message",
    [
        ([], [], [], 0, "'identity' index out of range"),
        (["1", "x"], [], [1], 0, "'augmentation' must be a list of 2 integers"),
        (["1", "x"], [], [1, 0], 2, "'identity' index out of range"),
        (["1"], [[0, 1, 0, 1]], [1], 0, "structure row [0, 1, 0, 1] index out of range"),
        (["1"], [[0, 0, 0]], [1], 0, "structure row [0, 0, 0] is not [i, j, k, c]"),
        (["1", "x"], [], [1, 0], True, "'identity' must be an integer index"),
        (["1"], [[0, 0, 0, 1.0]], [1], 0, "expected an integer, got float"),
        (["1"], [[0, 0, 0, 1]], [1.0], 0, "expected an integer, got float"),
        (["1"], [[0, 0, 0, "1_000"]], [1], 0, "not a decimal integer: '1_000'"),
        (["1"], [[0, True, 0, 1]], [1], 0, "structure row [0, True, 0, 1] has a non-int index"),
        (["1"], {(0, 0): [1]}, [1], 0, "'structure' must be a list of [i, j, k, c] rows"),
        (["1", "x"], [[9]], [1], True, "'identity' must be an integer index"),
        (["1", "x"], [[9]], [1], 0, "'augmentation' must be a list of 2 integers"),
        (["1", "x"], 7, [1, True], 0, "expected an integer, got a boolean"),
        (
            ["1", "x"],
            [[0, 1, 1, 1], [1, 0, 1, 2], [0, 0, 9, 1]],
            [1, 1],
            0,
            "structure row [0, 0, 9, 1] index out of range",
        ),
    ],
    ids=[
        "empty-basis",
        "augmentation",
        "identity",
        "key",
        "vector",
        "bool-identity",
        "float-coefficient",
        "float-augmentation",
        "bad-decimal",
        "bool-index",
        "dense-structure",
        "identity-first",
        "augmentation-first",
        "augmentation-entry-first",
        "row-before-symmetry",
    ],
)
def test_constructor_refuses_malformed_input(
    labels, structure, augmentation, identity, message
):
    args = (labels, structure, augmentation, identity)
    assert _refusal(lambda: AugmentedRing(*args)) == message
    if labels:
        assert _refusal(lambda: AugmentedRing.from_dict(_spec(*args))) == message


def test_constructor_reads_decimal_strings_as_from_dict_does():
    big = 2**80
    args = (
        ["1", "t"],
        [[0, 0, 0, "1"], [0, 1, 1, 1], [1, 1, 0, str(big)], [1, 1, 0, "-0012"]],
        ["1", "0"],
        0,
    )
    ring = AugmentedRing(*args)
    assert basis_product(ring, 1, 1) == [big - 12, 0]
    assert ring.augmentation == (1, 0)
    assert AugmentedRing.from_dict(_spec(*args)).to_dict() == ring.to_dict()


def test_multiply_frozen_examples():
    ring = zc2()
    assert ring.multiply([-1, 1], [-1, 1]) == [2, -2]
    assert ring.multiply([3, 4], [1, 0]) == [3, 4]
    assert ring.multiply([3, 4], [0, 0]) == [0, 0]
    with pytest.raises(DimensionMismatchError):
        ring.multiply([1, 2, 3], [1, 0])


def test_multiply_burnside_hand_identity():
    ring = burnside_c2()
    x = [1, -2]
    assert ring.augment(x) == 0
    assert ring.multiply(x, x) == [-2, 4]  # x^2 = -2x


def test_augment_is_multiplicative_on_random_vectors():
    rng = random.Random(29)
    for ring in (zc2(), burnside_c2(), zc3()):
        m = len(ring.labels)
        for _ in range(1000):
            x = [rng.randint(-9, 9) for _ in range(m)]
            y = [rng.randint(-9, 9) for _ in range(m)]
            assert ring.augment(ring.multiply(x, y)) == ring.augment(x) * ring.augment(y)


def test_augmentation_ideal_frozen():
    assert zc2().augmentation_ideal().basis.tolist() == [[1, -1]]
    assert ring_z().augmentation_ideal().rank == 0
    assert zc3().augmentation_ideal().rank == 2


def test_ideal_powers_zc2():
    powers = zc2().ideal_powers(2)
    assert [p.basis.tolist() for p in powers] == [[[1, -1]], [[2, -2]], [[4, -4]]]


def test_ideal_powers_trivial_ring():
    powers = ring_z().ideal_powers(4)
    assert len(powers) == 5
    assert all(p.rank == 0 for p in powers)


def test_ideal_powers_chain_and_rank():
    for ring in (zc2(), burnside_c2(), zc3()):
        powers = ring.ideal_powers(6)
        r = powers[0].rank
        for big, small in zip(powers, powers[1:]):
            assert all(big.coordinates(row) is not None for row in small.basis.data)
            assert small.rank == r


def test_ideal_powers_rank_drop():
    with pytest.raises(RankDropError):
        dual_numbers().ideal_powers(3)


def _torsion_exponent(ring):
    """Largest invariant factor of I/I^2 (1 when that quotient is trivial)."""
    factors = quotient_sequence(ring, 1)[0].group.invariant_factors
    return factors[-1] if factors else 1


def test_quotient_group_frozen():
    seq = quotient_sequence(zc2(), 7)
    q1 = seq[0]
    assert q1.group.invariant_factors == (2,)
    assert q1.order == 2 and q1.ideal_rank == 1 and q1.n == 1
    q7 = seq[6]
    assert q7.n == 7 and q7.group.invariant_factors == (2,)
    assert quotient_sequence(ring_z(), 3)[2].group.invariant_factors == ()


def test_torsion_exponent_and_free_rank():
    assert _torsion_exponent(zc2()) == 2
    assert _torsion_exponent(ring_z()) == 1
    assert quotient_sequence(zc2(), 1)[0].ideal_rank == 1
    assert quotient_sequence(zc3(), 1)[0].ideal_rank == 2
    assert quotient_sequence(ring_z(), 1)[0].ideal_rank == 0
    # Z(C2xC2): Q1 = G, exponent 2
    # on the basis e, g, a, b, with ga = b: b_i·b_j = b_(i xor j)
    k4 = [[i, j, i ^ j, 1] for i in range(4) for j in range(i, 4)]
    ring = AugmentedRing(labels=list("egab"), structure=k4,
                         augmentation=[1, 1, 1, 1], identity_index=0)
    assert ring.validate().passed
    assert _torsion_exponent(ring) == 2
    assert quotient_sequence(ring, 1)[0].group.invariant_factors == (2, 2)


def test_quotient_order_matches_determinant_index():
    # index [I^n : I^n+1] from basis determinants in the I^n frame
    for ring in (zc2(), burnside_c2(), zc3()):
        powers = ring.ideal_powers(5)
        seq = quotient_sequence(ring, 4)
        for n in range(1, 5):
            big, small = powers[n - 1], powers[n]
            coords = [big.coordinates(row) for row in small.basis.data]
            assert all(c is not None for c in coords)
            q = seq[n - 1]
            assert q.order == abs(det_laplace(coords))


def test_ideal_generators_close_to_the_ideal_on_corpus():
    for family, spec in corpus_ring_specs():
        ring = build_corpus_ring(family, spec)
        ideal = ring.augmentation_ideal()
        gens = ring.ideal_generators()
        assert all(ideal.coordinates(g) is not None for g in gens)
        closure = lattice_from_generators(
            ring.dim,
            [ring.multiply(ring.basis_vector(i), g) for g in gens for i in range(ring.dim)],
        )
        assert closure == ideal, (family, spec)


def test_ideal_generators_are_frozen_on_the_corpus_and_rebased_copies():
    # the picks in order of L1 norm, rows of equal norm in HNF order.
    # Rebased copies stop at dimension 12, where rebasing stays cheap.
    picked = []
    for family, spec in corpus_ring_specs():
        ring = build_corpus_ring(family, spec)
        picked.append(ring.ideal_generators())
        if 2 <= ring.dim <= 12:
            rebased = _rebased(ring, random.Random(f"generators {family}:{spec}"))
            picked.append(rebased.ideal_generators())
    assert (len(picked), sum(map(len, picked))) == (95, 208)
    digest = hashlib.sha256(json.dumps(picked).encode()).hexdigest()
    assert digest == "03f9ada66bc99e232b61ad8418923f6c003e5993ad735bf6e0ae91cbc2102e6a"


@pytest.mark.parametrize(
    "family,spec,k",
    [("group-ring", "C8", 1), ("group-ring", "C2xC2xC8", 3), ("burnside", "D6", 4),
     ("burnside", "C2xC4", 5), ("burnside", "C2xC2xC2", 7)],
)
def test_chain_start_builds_one_lattice_whatever_the_generator_count(
    family, spec, k, monkeypatch
):
    ring = build_corpus_ring(family, spec)
    calls = []
    build = augring.lattice_from_generators

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(augring, "lattice_from_generators", counting)
    assert len(ring.ideal_generators()) == k
    # the square; the closure keeps one running echelon instead
    assert len(calls) == 1


@pytest.mark.parametrize(
    "family,spec,bound",
    [("burnside", "C2xC2xC2xC2", 15), ("burnside", "C2xC4xC4", 19),
     ("burnside", "D16", 9), ("group-ring", "C2xC2xC8", 3)],
)
def test_ideal_generators_meet_the_nakayama_bound(family, spec, bound):
    # generators of I generate Q_1 = I / I^2, so none has fewer than its
    # largest p-rank; in order of L1 norm these rings need no more
    ring = build_corpus_ring(family, spec)
    q1 = quotient_sequence(ring, 1)[0].group
    ranks = [
        q1.p_power_valuation(p, 0) - q1.p_power_valuation(p, 1)
        for p in _factorint(q1.invariant_factors[-1])
    ]
    assert max(ranks) == bound
    assert len(ring.ideal_generators()) == bound


def test_ideal_generators_are_fresh_lists():
    ring = group_ring(FinAbGroup([2, 4]))
    first = ring.ideal_generators()
    second = ring.ideal_generators()
    assert first == second
    assert first is not second
    assert all(a is not b for a, b in zip(first, second))
    first[0][0] += 5
    first.append([0] * ring.dim)
    assert ring.ideal_generators() == second


def test_ideal_generators_closure_runs_once(monkeypatch):
    ring = group_ring(FinAbGroup([2, 4]))
    want = ring.ideal_generators()
    calls = []
    monkeypatch.setattr(
        augring, "lattice_from_generators", lambda *a, **k: calls.append(a)
    )
    assert ring.ideal_generators() == want
    assert calls == []


@pytest.mark.parametrize(
    "family,spec", [("group-ring", "C2xC4"), ("burnside", "S3"), ("rep", "D5")]
)
def test_validate_expands_half_the_triples_on_commutative_rings(
    family, spec, monkeypatch
):
    ring = build_corpus_ring(family, spec)
    calls = []
    combine = augring._combine

    def counting_combine(terms, rows):
        calls.append(None)
        return combine(terms, rows)

    monkeypatch.setattr(augring, "_combine", counting_combine)
    assert ring.validate().passed
    m = ring.dim
    # one packed expansion of (b_a b_b) b_c for every c per sorted pair (a, b)
    assert len(calls) == m * (m + 1) // 2


def test_constructor_refuses_the_integral_group_ring_of_s3():
    # associative, not commutative
    table = parse_group_spec("S3").table
    m = len(table)
    structure = [[i, j, table[i][j], 1] for i in range(m) for j in range(m)]
    with pytest.raises(RingSpecError, match="conflicting symmetric entries"):
        AugmentedRing([f"g{i}" for i in range(m)], structure, [1] * m, 0)


def test_chain_c2xc2xc8_to_twenty():
    ring = group_ring(FinAbGroup([2, 2, 8]))
    assert len(ring.ideal_generators()) <= 3
    d = _torsion_exponent(ring)
    powers = ring.ideal_powers(20)
    assert len(powers) == 21
    for big, small in zip(powers, powers[1:]):
        assert all(big.coordinates(row) is not None for row in small.basis.data)
        for row in big.basis.data:
            assert small.coordinates([d * x for x in row]) is not None


def _rebased(ring, rng):
    """The ring on the basis b'_i = sum_j U[i][j] b_j for a seeded unimodular
    U that keeps the identity element as a basis element."""
    m = ring.dim
    e = ring.identity_index
    others = [i for i in range(m) if i != e]
    v = random_unimodular(rng, m - 1)
    u = [[int(i == j == e) for j in range(m)] for i in range(m)]
    for a, i in enumerate(others):
        for b, j in enumerate(others):
            u[i][j] = v[a][b]
        u[i][e] = rng.randint(-2, 2)
    ut = [list(col) for col in zip(*u)]
    structure = []
    for i in range(m):
        for j in range(i, m):
            # new coordinates y of b'_i b'_j solve y U = (b'_i b'_j in the old basis)
            y = solve_exact(ut, ring.multiply(u[i], u[j]))
            assert all(c.denominator == 1 for c in y)
            structure += ([i, j, k, int(c)] for k, c in enumerate(y))
    return AugmentedRing(
        labels=[f"b{i}" for i in range(m)],
        structure=structure,
        augmentation=[ring.augment(row) for row in u],
        identity_index=e,
    )


@pytest.mark.parametrize(
    "family,spec",
    [("group-ring", "C2xC4"), ("group-ring", "C3xC3"), ("burnside", "D4"), ("rep", "D6")],
)
def test_quotients_invariant_under_basis_change(family, spec):
    ring = build_corpus_ring(family, spec)
    want = [q.group for q in quotient_sequence(ring, 8)]
    rng = random.Random(f"{family}:{spec}")
    for _ in range(2):
        rebased = _rebased(ring, rng)
        assert rebased.validate().passed
        assert [q.group for q in quotient_sequence(rebased, 8)] == want


def _assert_chain_matches_oracle(ring, max_n):
    """Every I^{n+1} from ``ideal_powers`` is the oracle HNF of the r^2
    products of the basis of I with the basis of I^n, and every step lattice
    gives the same group as ``quotient_invariants(I^n, I^{n+1})``.  A call
    given a ``steps`` list builds no lattice past I^2, so the lattices and
    the steps come from two calls."""
    steps = []
    assert ring.ideal_powers(max_n, steps=steps) == ring.ideal_powers(1)
    powers = ring.ideal_powers(max_n)
    assert len(powers) == max_n + 1 and len(steps) == max_n - 1
    ideal = powers[0].basis.data
    for n in range(1, max_n + 1):
        products = {
            tuple(ring.multiply(a, b)) for a in ideal for b in powers[n - 1].basis.data
        }
        assert powers[n].basis.data == hnf_oracle(sorted(products)), n
    for n, step in enumerate(steps, 2):
        assert step.ambient_dim == step.rank == ring.dim - 1
        want = quotient_invariants(powers[n - 1], powers[n])
        assert smith_invariants(step.basis.data, step.rank) == want, n


def test_ideal_powers_match_the_product_oracle_on_corpus():
    for family, spec in corpus_ring_specs():
        _assert_chain_matches_oracle(build_corpus_ring(family, spec), 8)


REBASED_RINGS = [
    ("group-ring", "C2xC4"),
    ("group-ring", "C3xC3"),
    ("burnside", "D4"),
    ("rep", "D6"),
]


@pytest.mark.parametrize("family,spec", REBASED_RINGS)
def test_ideal_powers_match_the_product_oracle_on_rebased_rings(family, spec):
    ring = build_corpus_ring(family, spec)
    rng = random.Random(f"oracle {family}:{spec}")
    for _ in range(2):
        _assert_chain_matches_oracle(_rebased(ring, rng), 8)


def test_ideal_powers_match_the_product_oracle_on_c2xc2xc8():
    _assert_chain_matches_oracle(group_ring(FinAbGroup([2, 2, 8])), 10)


# x^2 = N·x and y^2 = M·y: the modulus d of the chain is the exponent
# 15·2^70 of Q_1, so every slot of a packed echelon row spans several words
BIG_N = 3 * 2**70
BIG_M = 5 * 2**65


def big_modulus_ring():
    """Z[x, y]/(x^2 - N·x, y^2 - M·y) on the basis (1, x, y, xy)."""
    n, m = BIG_N, BIG_M
    return AugmentedRing(
        labels=["1", "x", "y", "xy"],
        structure=[
            [0, 0, 0, 1],
            [0, 1, 1, 1],
            [0, 2, 2, 1],
            [0, 3, 3, 1],
            [1, 1, 1, n],
            [1, 2, 3, 1],
            [1, 3, 3, n],
            [2, 2, 2, m],
            [2, 3, 3, m],
            [3, 3, 3, n * m],
        ],
        augmentation=[1, n, m, n * m],
        identity_index=0,
    )


def test_ideal_powers_match_the_product_oracle_past_64_bits():
    ring = big_modulus_ring()
    assert ring.validate().passed
    # the entry near 2^71 dominates the L1 norm
    assert len(ring.ideal_generators()) == 3
    _assert_chain_matches_oracle(ring, 8)
    groups = [q.group.invariant_factors for q in quotient_sequence(ring, 8)]
    assert groups[0] == (2**65, 15 * 2**70)
    assert groups[1:] == [(2**65, 2**65, 15 * 2**70)] * 7


def test_one_variable_ring_past_64_bits_has_every_quotient_z_mod_n():
    # I = (x - N) and (x - N)^2 = -N·(x - N), so I^2 = N·I and every Q_n is
    # I/N·I, cyclic of order N
    n = BIG_N
    ring = AugmentedRing(
        ["1", "x"], [[0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 1, n]], [1, n], 0
    )
    _assert_chain_matches_oracle(ring, 8)
    groups = [q.group.invariant_factors for q in quotient_sequence(ring, 8)]
    assert groups == [(n,)] * 8


def test_ideal_powers_steps_on_a_stationary_chain():
    # x*x = x: I = I^2, so every step lattice is all of Z^r
    ring = AugmentedRing(
        ["1", "x"], [[0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 1, 1]], [1, 0], 0
    )
    steps = []
    ring.ideal_powers(4, steps=steps)
    powers = ring.ideal_powers(4)
    assert len(powers) == 5 and len(set(powers)) == 1
    assert [s.basis.data for s in steps] == [[[1]]] * 3


def _conjugations(ring, max_n, monkeypatch):
    """``Lattice.conjugate`` calls inside one ``ideal_powers(max_n, steps)``
    call, one per computed step; the chain start is built first, outside
    the count."""
    ring.ideal_generators()
    calls = []
    real = Lattice.conjugate

    def counting(self, side, modulus):
        calls.append(None)
        return real(self, side, modulus)

    monkeypatch.setattr(Lattice, "conjugate", counting)
    steps = []
    ring.ideal_powers(max_n, steps=steps)
    monkeypatch.undo()
    assert len(steps) == max_n - 1
    return len(calls)


@pytest.mark.parametrize("spec,period", [("C3xC3", 2), ("C2xC2xC2xC2", 1)])
def test_a_periodic_chain_stops_conjugating_at_its_first_period(
    spec, period, monkeypatch
):
    ring = group_ring(FinAbGroup.from_spec(spec))
    calls = _conjugations(ring, 20, monkeypatch)
    assert calls == _conjugations(ring, 60, monkeypatch)
    steps = []
    ring.ideal_powers(60, steps=steps)
    # past step 20 the chain is its period replayed, as the same objects
    assert all(a is b for a, b in zip(steps[20:], steps[20 - period :]))


@pytest.mark.parametrize("spec", ["C7", "C12"])
def test_a_principal_chain_stops_after_its_second_step(spec, monkeypatch):
    # I = A·(x - 1) is one ideal generator, so I^{n+1} = g·I^n and C_n = C_2;
    # the seed gives a rebased copy where the first HNF row of I generates I,
    # which many seeds do not
    ring = group_ring(FinAbGroup.from_spec(spec))
    rebased = _rebased(ring, random.Random(f"principal {spec} 10"))
    for each in (ring, rebased):
        assert len(each.ideal_generators()) == 1
        # step 2 alone is conjugated, to key its rows
        assert _conjugations(each, 3, monkeypatch) == 1
        assert _conjugations(each, 60, monkeypatch) == 1
        steps = []
        each.ideal_powers(60, steps=steps)
        assert all(step is steps[0] for step in steps)
        _assert_chain_matches_oracle(each, 12)


def test_a_chain_that_never_repeats_conjugates_at_every_step(monkeypatch):
    ring = group_ring(FinAbGroup([2, 2, 8]))
    calls = [_conjugations(ring, n, monkeypatch) for n in (10, 20, 30)]
    assert calls[0] < calls[1] < calls[2]


# (family, spec, max_n): the chain repeats by step max_n - 2, so the oracle
# checks steps replayed from the period, in the ring's own basis and in a
# seeded rebased copy
PERIODIC_RINGS = [
    ("group-ring", "C7", 14),
    ("group-ring", "C3xC3", 9),
    ("burnside", "C2xC2xC2", 7),
]


@pytest.mark.parametrize("family,spec,max_n", PERIODIC_RINGS)
def test_steps_past_the_period_match_the_product_oracle(
    family, spec, max_n, monkeypatch
):
    ring = build_corpus_ring(family, spec)
    for each in (ring, _rebased(ring, random.Random(f"period {family}:{spec}"))):
        repeated = _conjugations(each, max_n - 2, monkeypatch)
        assert repeated == _conjugations(each, max_n + 10, monkeypatch)
        _assert_chain_matches_oracle(each, max_n)


@pytest.mark.parametrize(
    "spec,max_n,echelons", [("C4", 20, 1), ("C2xC4", 20, 5), ("C2xC2xC8", 10, 9)]
)
def test_ideal_powers_echelonizes_each_step_once_per_call(
    spec, max_n, echelons, monkeypatch
):
    # C_2 .. C_{max_n}: C4 has one ideal generator, so its chain is C_2
    # replayed; C2xC4 repeats its generator rows modulo d within the chain,
    # C2xC2xC8 never does
    ring = group_ring(FinAbGroup.from_spec(spec))
    calls = []
    real = augring.lattice_from_generators

    def counting(dim, generators, modulus=None):
        if modulus is not None:
            calls.append(modulus)
        return real(dim, generators, modulus)

    monkeypatch.setattr(augring, "lattice_from_generators", counting)
    for _ in range(2):  # nothing is kept between calls
        calls.clear()
        steps = []
        ring.ideal_powers(max_n, steps=steps)
        assert len(steps) == max_n - 1
        assert len(calls) == echelons
        # a recurring step is the lattice object echelonized the first time
        assert len({id(step) for step in steps}) == echelons


def test_each_step_echelon_gets_distinct_nonzero_rows_modulo_d(monkeypatch):
    real = augring.lattice_from_generators
    calls = []

    def recording(dim, generators, modulus=None):
        if modulus is not None:
            calls.append([tuple(x % modulus for x in g) for g in generators])
        return real(dim, generators, modulus)

    monkeypatch.setattr(augring, "lattice_from_generators", recording)
    rebased = _rebased(build_corpus_ring("burnside", "D4"), random.Random("rows D4"))
    for ring in (group_ring(FinAbGroup([2, 2, 8])), rebased):
        ring.ideal_powers(10, steps=[])
    assert len(calls) > 9
    for residues in calls:
        assert len(set(residues)) == len(residues)
        assert all(any(row) for row in residues)


def test_ideal_powers_rejects_a_step_not_closed_under_the_generators(monkeypatch):
    # shrinking each step lattice by 3 in one direction leaves a lattice the
    # generators do not map into itself; the back-substitution must notice
    real = augring.lattice_from_generators

    def shrunk(dim, generators, modulus=None):
        out = real(dim, generators, modulus)
        if modulus is None:
            return out
        rows = out.basis.data
        return real(dim, [[3 * x for x in rows[0]]] + rows[1:])

    monkeypatch.setattr(augring, "lattice_from_generators", shrunk)
    ring = group_ring(FinAbGroup([2, 4]))
    assert len(ring.ideal_powers(2)) == 3
    with pytest.raises(NotASublatticeError, match=r"I\^4 is not inside I\^3"):
        ring.ideal_powers(5)
    with pytest.raises(NotASublatticeError, match=r"I\^4 is not inside I\^3"):
        ring.ideal_powers(5, steps=[])


def test_chain_start_is_built_once_per_ring(monkeypatch):
    ring = build_corpus_ring("burnside", "D4")
    calls = []
    kernel = augring.kernel_basis

    def counting_kernel(m):
        calls.append(m)
        return kernel(m)

    monkeypatch.setattr(augring, "kernel_basis", counting_kernel)
    assert ring.validate().passed
    build_report(ring, "burnside:D4", max_n=8)
    ring.ideal_powers(3)
    ring.ideal_generators()
    assert len(calls) == 1


def _first_nonassociative_triple(ring):
    """First (i, j, k) in lexicographic order with (b_i b_j) b_k != b_i (b_j b_k),
    by plain ``multiply`` calls."""
    b = [ring.basis_vector(i) for i in range(ring.dim)]
    for i in range(ring.dim):
        for j in range(ring.dim):
            bij = ring.multiply(b[i], b[j])
            for k in range(ring.dim):
                b_jk = ring.multiply(b[j], b[k])
                if ring.multiply(bij, b[k]) != ring.multiply(b[i], b_jk):
                    return i, j, k
    return None


def _with_structure(ring, structure):
    """``ring`` with its structure quadruples replaced."""
    spec = ring.to_dict()
    return AugmentedRing(spec["basis"], structure, spec["augmentation"], spec["identity"])


def test_validate_associativity_on_perturbed_corpus_rings():
    # one structure constant of a corpus ring shifted; the constructor
    # refuses the table until b_j b_i follows b_i b_j
    rng = random.Random(31)
    specs = corpus_ring_specs()
    broken = 0
    for _ in range(40):
        ring = build_corpus_ring(*rng.choice(specs))
        m = ring.dim
        structure = ring.to_dict()["structure"]
        i, j, k = (rng.randrange(m) for _ in range(3))
        shift = [[i, j, k, rng.choice([-2, -1, 1, 2])]]
        if i != j:
            # b_i b_j shifted, and b_j b_i listed as it was
            a, b = sorted((i, j))
            mirrored = [[y, x, c, v] for x, y, c, v in structure if (x, y) == (a, b)]
            with pytest.raises(RingSpecError, match="conflicting symmetric"):
                _with_structure(ring, structure + mirrored + shift)
        # listed in one order only, the shifted pair is mirrored
        shift[0][:2] = sorted((i, j))
        ring = _with_structure(ring, structure + shift)
        report = ring.validate()
        triple = _first_nonassociative_triple(ring)
        assert report.checks["associativity"] is (triple is None)
        if triple is not None:
            broken += 1
            assert "associativity: (b{0}*b{1})*b{2} != b{0}*(b{1}*b{2})".format(
                *triple
            ) in report.failures
    assert broken >= 30


def test_packed_validate_matches_plain_products_past_64_bits():
    # large-d ring (constants past 2^70), a rebased Burnside ring (negative
    # constants) and non-associative copies of both, each with one
    # symmetric pair of structure constants shifted
    rng = random.Random(53)
    rebased = _rebased(build_corpus_ring("burnside", "D6"), random.Random("ci D6"))
    assert any(
        c < 0 for i in range(rebased.dim) for c in basis_product(rebased, i, i)
    )
    broken = 0
    for ring in (big_modulus_ring(), rebased):
        m = ring.dim
        assert ring.validate().passed
        assert _first_nonassociative_triple(ring) is None
        structure = ring.to_dict()["structure"]
        for _ in range(12):
            i, j, k = (rng.randrange(m) for _ in range(3))
            shift = rng.choice([-1, 1]) * rng.choice([1, 3, 2**66])
            copy = _with_structure(ring, structure + [[min(i, j), max(i, j), k, shift]])
            report = copy.validate()
            triple = _first_nonassociative_triple(copy)
            assert report.checks["associativity"] is (triple is None)
            if triple is not None:
                broken += 1
                assert "associativity: (b{0}*b{1})*b{2} != b{0}*(b{1}*b{2})".format(
                    *triple
                ) in report.failures
    assert broken >= 16


def test_packed_validate_matches_plain_products_on_random_tables():
    # random symmetric tables, nearly all of them not associative: the
    # packed scan reports the triple that plain products find first
    rng = random.Random(59)
    for _ in range(300):
        m = rng.randrange(3, 6)
        top = rng.choice([1, 3, 9])
        structure = [
            [i, j, k, rng.randint(-top, top)]
            for i in range(m)
            for j in range(i, m)
            for k in range(m)
        ]
        ring = AugmentedRing([f"b{i}" for i in range(m)], structure, [1] * m, 0)
        report = ring.validate()
        triple = _first_nonassociative_triple(ring)
        assert report.checks["associativity"] is (triple is None)
        if triple is not None:
            assert "associativity: (b{0}*b{1})*b{2} != b{0}*(b{1}*b{2})".format(
                *triple
            ) in report.failures


def test_packed_validate_catches_a_difference_that_narrow_slots_cancel():
    # x^2 = y, xy = 0, y^2 = 2^k - x on the basis 1, x, y: (x x) y - x (x y)
    # is (2^k, -1, 0), which packs to 2^k - 2^w with slots of w bits, so to 0
    # at w = k; one table for each k catches every slot width up to 69 bits
    for k in range(1, 70):
        structure = [
            [0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1],
            [1, 1, 2, 1], [2, 2, 0, 2**k], [2, 2, 1, -1],
        ]
        ring = AugmentedRing(["1", "x", "y"], structure, [1, 0, 0], 0)
        assert _first_nonassociative_triple(ring) == (1, 1, 2)
        report = ring.validate()
        assert report.checks["associativity"] is False, k
        assert "associativity: (b1*b1)*b2 != b1*(b1*b2)" in report.failures, k


# -- serialization -----------------------------------------------------------


def test_records_compare_field_by_field():
    group = FinAbGroup([2, 4])
    q = QuotientResult(n=1, group=group, order=8, ideal_rank=3)
    assert q == QuotientResult(1, group, 8, 3)
    assert q != QuotientResult(2, group, 8, 3)
    assert repr(q) == (
        "QuotientResult(n=1, group=FinAbGroup([2, 4]), order=8, ideal_rank=3)"
    )
    with pytest.raises(TypeError):
        hash(q)
    for args, kwargs in [((1, group, 8), {}), ((1, group, 8, 3), {"n": 1})]:
        with pytest.raises(TypeError, match="takes the fields n, group"):
            QuotientResult(*args, **kwargs)
    report = ValidationReport({"identity": True}, [])
    assert report.passed
    assert report == ValidationReport(checks={"identity": True}, failures=[])


def test_int_codec():
    assert encode_int(5) == 5
    assert encode_int(-(2**63)) == -(2**63)
    assert encode_int(2**63) == str(2**63)
    assert decode_int(5) == 5
    assert decode_int(str(2**100)) == 2**100
    with pytest.raises(RingSpecError):
        decode_int(True)
    for text in ("junk", "1_000", " 7", "7 ", "+5", "\u0661\u0662", "-", ""):
        with pytest.raises(RingSpecError, match="not a decimal integer"):
            decode_int(text)
    assert decode_int("-0012") == -12
    with pytest.raises(RingSpecError):
        decode_int(2.5)


def test_ring_dict_roundtrip():
    for ring in (zc2(), burnside_c2(), zc3()):
        d = ring.to_dict()
        back = AugmentedRing.from_dict(d)
        assert back.labels == ring.labels
        assert back.augmentation == ring.augmentation
        assert back.identity_index == ring.identity_index
        for i in range(len(ring.labels)):
            for j in range(len(ring.labels)):
                assert basis_product(back, i, j) == basis_product(ring, i, j)


def test_from_dict_sparse_accumulation_and_symmetry():
    d = {
        "basis": ["1", "t"],
        "identity": 0,
        "structure": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 0, 2], [1, 1, 0, 3]],
        "augmentation": [1, 1],
    }
    ring = AugmentedRing.from_dict(d)
    assert basis_product(ring, 1, 1) == [5, 0]  # quadruples accumulate
    assert basis_product(ring, 1, 0) == [0, 1]  # symmetric completion


def test_from_dict_rejects_conflicting_symmetric_entries():
    d = {
        "basis": ["1", "t"],
        "identity": 0,
        "structure": [[0, 1, 1, 1], [1, 0, 1, 2], [0, 0, 0, 1], [1, 1, 0, 1]],
        "augmentation": [1, 1],
    }
    with pytest.raises(RingSpecError):
        AugmentedRing.from_dict(d)


def test_from_dict_big_integer_strings():
    big = 2**80
    d = {
        "basis": ["1", "t"],
        "identity": 0,
        "structure": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 0, str(big)]],
        "augmentation": [1, 0],
    }
    ring = AugmentedRing.from_dict(d)
    assert basis_product(ring, 1, 1) == [big, 0]
    out = ring.to_dict()
    assert [0, 0, 0, 1] in out["structure"]
    assert [1, 1, 0, str(big)] in out["structure"]


def test_from_dict_malformed():
    good = zc2().to_dict()
    for mutate in (
        lambda d: d.pop("basis"),
        lambda d: d.update(identity=9),
        lambda d: d.update(augmentation=[1]),
        lambda d: d["structure"].append([0, 0, 9, 1]),
        lambda d: d["structure"].append([0, 0, 0]),
        lambda d: d["structure"].append([1, 1, 0, "1_000"]),
    ):
        d = {k: (list(v) if isinstance(v, list) else v) for k, v in good.items()}
        d["structure"] = [list(q) for q in d["structure"]]
        mutate(d)
        with pytest.raises(RingSpecError):
            AugmentedRing.from_dict(d)
