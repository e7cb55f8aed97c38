import hashlib
import json
import os
import subprocess
import sys

import pytest

from augq import TooLargeError, constructors
from augq.abgroup import FinAbGroup, ParseError
from augq.constructors import (
    BadParameterError,
    CayleyGroup,
    CayleyTableError,
    burnside_ring,
    cayley_from_abelian,
    dihedral_group,
    enumerate_subgroups,
    group_ring,
    parse_group_spec,
    rep_ring_abelian,
    rep_ring_dihedral,
    symmetric_group,
    table_of_marks,
)
from conftest import corpus_ring_specs
from oracles import (
    basis_product,
    brute_force_classes,
    brute_force_subgroups,
    table_inverses,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The Burnside groups of the corpus, then two with more subgroup classes.
BURNSIDE_GROUPS = [
    spec for family, spec in corpus_ring_specs() if family == "burnside"
] + ["S4", "C2xC2xC2xC2"]


def _cayley(spec):
    g = parse_group_spec(spec)
    return cayley_from_abelian(g) if isinstance(g, FinAbGroup) else g


def test_cayley_validation():
    CayleyGroup([[0, 1], [1, 0]])
    with pytest.raises(CayleyTableError):
        CayleyGroup([[0, 1], [0, 1]])  # repeated column
    with pytest.raises(CayleyTableError):
        CayleyGroup([[1, 0], [0, 1]])  # identity not at index 0
    with pytest.raises(CayleyTableError):
        CayleyGroup([[0, 1, 2], [1, 2, 0]])  # not square
    # row/col permutations but not associative
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(CayleyTableError):
        CayleyGroup(bad)


def test_cayley_from_abelian():
    g = cayley_from_abelian(FinAbGroup([2]))
    assert g.table == [[0, 1], [1, 0]]
    g = cayley_from_abelian(FinAbGroup([]))
    assert g.table == [[0]]
    g = cayley_from_abelian(FinAbGroup([2, 2]))
    assert g.order == 4
    assert all(g.table[a][a] == 0 for a in range(4))


def test_dihedral_and_symmetric_tables():
    d3 = dihedral_group(3)
    assert d3.order == 6
    assert any(
        d3.table[a][b] != d3.table[b][a] for a in range(6) for b in range(6)
    )
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24
    with pytest.raises(BadParameterError):
        symmetric_group(5)
    with pytest.raises(BadParameterError):
        dihedral_group(0)


def test_cayley_inverse_and_conjugate():
    d4 = dihedral_group(4)
    inverse = table_inverses(d4.table)
    for a in range(8):
        assert d4.table[a][inverse[a]] == 0
        for c in range(8):
            x = d4.conjugate(c, a)
            assert d4.table[d4.table[c][a]][inverse[c]] == x


# -- group rings -------------------------------------------------------------


def test_group_ring_c2_structure():
    ring = group_ring(FinAbGroup([2]))
    assert len(ring.labels) == 2
    assert basis_product(ring, 0, 0) == [1, 0]
    assert basis_product(ring, 0, 1) == [0, 1]
    assert basis_product(ring, 1, 1) == [1, 0]
    assert ring.augmentation == (1, 1)
    assert ring.validate().passed


def test_group_ring_trivial_is_z():
    ring = group_ring(FinAbGroup([]))
    assert len(ring.labels) == 1
    assert basis_product(ring, 0, 0) == [1]


def test_group_ring_klein_four():
    ring = group_ring(FinAbGroup([2, 2]))
    assert len(ring.labels) == 4
    e = ring.basis_vector(0)
    for i in range(1, 4):
        assert basis_product(ring, i, i) == e


# -- subgroup enumeration ----------------------------------------------------


def test_enumerate_subgroups_frozen_counts():
    assert len(enumerate_subgroups(cayley_from_abelian(FinAbGroup([2]))).representatives) == 2
    assert len(enumerate_subgroups(cayley_from_abelian(FinAbGroup([4]))).representatives) == 3
    s3 = enumerate_subgroups(symmetric_group(3))
    assert s3.orders() == [1, 2, 3, 6]


def test_enumerate_subgroups_class_ordering():
    classes = enumerate_subgroups(dihedral_group(4))
    orders = classes.orders()
    assert orders == sorted(orders)
    assert classes.representatives[0] == (0,)
    assert len(classes.representatives[-1]) == 8


def test_enumerate_subgroups_matches_brute_force():
    for g in (
        cayley_from_abelian(FinAbGroup([6])),
        cayley_from_abelian(FinAbGroup([2, 2])),
        dihedral_group(4),
        dihedral_group(6),
        symmetric_group(3),
    ):
        classes = enumerate_subgroups(g)
        oracle = brute_force_classes(g.table)
        assert sorted(classes.representatives) == sorted(oracle)
        # every subgroup, not just class representatives
        all_found = {frozenset(s) for orbit in classes.class_members for s in orbit}
        assert all_found == brute_force_subgroups(g.table)


# sha256 of the representatives and of each class's sorted members, in
# class order, as the member-set closure enumerated them
ENUMERATION_DIGESTS = {
    "S4": "23ca99e27b104e7b2d105d383064eef61b8a63d8938f96137e1ebf473fa8967f",
    "D16": "baa8af7d67367013e60bf5b0d6874a05455753491851b967836bd6ba4f0f21b1",
    "D32": "1b89197ceb8f30f2b9c03e6b2ce768fed667d3598501b52da76e79b133934a27",
    "C2xC2xC2xC2": "7b18ecbb2d70f5107cb1d96a86a4206a2cb5bc127f51bbd080fedd2d93625664",
    "C2xC4xC4": "c25a19a4d7f567570d317211c7c42d859110477575123b285fefd433f9786c84",
    "C4xC4xC4": "b4841970b3de5f2ddaad783a842602da1b6aa045d9f531a7db8d6e8df204638f",
    "C2xC2xC2xC2xC2": "3c5b7d6517b6713805935df485c6dee366e295ae70651f8153018c341f75a931",
}


@pytest.mark.parametrize("spec", sorted(ENUMERATION_DIGESTS))
def test_enumerate_subgroups_past_brute_force_is_frozen(spec):
    classes = enumerate_subgroups(_cayley(spec))
    members = [sorted(sorted(s) for s in orbit) for orbit in classes.class_members]
    text = json.dumps([[list(r) for r in classes.representatives], members])
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_DIGESTS[spec]


def test_enumerate_subgroups_guard(monkeypatch):
    g = dihedral_group(4)
    monkeypatch.setenv("AUGQ_MAX_ORDER", "4")
    with pytest.raises(TooLargeError):
        enumerate_subgroups(g)
    monkeypatch.setenv("AUGQ_MAX_ORDER", "8")
    assert enumerate_subgroups(g).orders()[-1] == 8


@pytest.mark.parametrize("build", [enumerate_subgroups, table_of_marks, burnside_ring])
def test_subgroup_builders_refuse_an_abelian_group_spec(build):
    # parse_group_spec gives a FinAbGroup for an abelian spec, which has no
    # multiplication table to enumerate
    with pytest.raises(BadParameterError, match="cayley_from_abelian"):
        build(parse_group_spec("C2xC4"))
    assert build(cayley_from_abelian(parse_group_spec("C2xC4"))) is not None


def test_constructors_check_the_order_before_building(monkeypatch):
    big = FinAbGroup([65])
    constructions = [
        lambda: dihedral_group(33),
        lambda: cayley_from_abelian(big),
        lambda: group_ring(big),
        lambda: rep_ring_abelian(big),
        lambda: rep_ring_dihedral(33),
        lambda: CayleyGroup.from_dict({"order": 65, "table": []}),
    ]
    for build in constructions:
        with pytest.raises(TooLargeError, match="order guard 64"):
            build()
    monkeypatch.setenv("AUGQ_MAX_ORDER", "5")
    with pytest.raises(TooLargeError, match="group order 6 exceeds"):
        symmetric_group(3)
    monkeypatch.setenv("AUGQ_MAX_ORDER", "66")
    assert dihedral_group(33).order == 66
    assert group_ring(big).dim == 65
    assert rep_ring_dihedral(33).dim == 18


# -- table of marks ----------------------------------------------------------


def test_marks_frozen_examples():
    c2 = cayley_from_abelian(FinAbGroup([2]))
    assert table_of_marks(c2).values == [[2, 0], [1, 1]]
    triv = cayley_from_abelian(FinAbGroup([]))
    assert table_of_marks(triv).values == [[1]]
    s3 = table_of_marks(symmetric_group(3))
    assert [row[0] for row in s3.values] == [6, 3, 2, 1]


def test_marks_shape_invariants():
    for g in (dihedral_group(4), cayley_from_abelian(FinAbGroup([2, 4])), symmetric_group(4)):
        marks = table_of_marks(g)
        orders = marks.classes.orders()
        t = len(marks.values)
        for i in range(t):
            assert marks.values[i][i] > 0
            assert marks.values[i][0] == g.order // orders[i]
            for j in range(i + 1, t):
                assert marks.values[i][j] == 0 or orders[j] <= orders[i]
        # strict lower-triangularity in the class order
        for i in range(t):
            for j in range(i + 1, t):
                if orders[j] > orders[i]:
                    assert marks.values[i][j] == 0


# -- Burnside rings ----------------------------------------------------------


def test_burnside_c2_frozen():
    ring = burnside_ring(cayley_from_abelian(FinAbGroup([2])))
    assert basis_product(ring, 0, 0) == [2, 0]
    assert ring.augmentation == (2, 1)
    assert ring.identity_index == 1
    assert ring.validate().passed


def test_burnside_trivial_group():
    ring = burnside_ring(cayley_from_abelian(FinAbGroup([])))
    assert len(ring.labels) == 1
    assert basis_product(ring, 0, 0) == [1]


def test_burnside_structure_constants_nonnegative():
    for g in (dihedral_group(4), symmetric_group(3), cayley_from_abelian(FinAbGroup([12]))):
        ring = burnside_ring(g)
        t = len(ring.labels)
        for i in range(t):
            for j in range(t):
                assert all(c >= 0 for c in basis_product(ring, i, j))
        assert ring.validate().passed


def test_burnside_marks_homomorphism():
    # mark vector of a product = pointwise product of mark vectors; the mark
    # map is injective, so this pins every structure constant
    for spec in BURNSIDE_GROUPS:
        g = _cayley(spec)
        marks = table_of_marks(g).values
        ring = burnside_ring(g)
        t = len(ring.labels)
        for i in range(t):
            for j in range(i, t):
                prod = basis_product(ring, i, j)
                terms = [(k, c) for k, c in enumerate(prod) if c]
                for col in range(t):
                    lhs = sum(c * marks[k][col] for k, c in terms)
                    assert lhs == marks[i][col] * marks[j][col], (spec, i, j)


def test_burnside_ring_does_not_use_the_marks(monkeypatch):
    def refuse(g):
        raise AssertionError("burnside_ring called table_of_marks")

    monkeypatch.setattr(constructors, "table_of_marks", refuse)
    for spec in BURNSIDE_GROUPS[:-1]:
        ring = burnside_ring(_cayley(spec))
        assert ring.dim == len(enumerate_subgroups(_cayley(spec)))
        assert ring.validate().passed, spec


def test_burnside_augmentation_is_coset_count():
    g = symmetric_group(3)
    ring = burnside_ring(g)
    orders = enumerate_subgroups(g).orders()
    assert list(ring.augmentation) == [g.order // h for h in orders]


def test_burnside_c2_to_the_fifth_builds_in_little_memory():
    # 374 subgroup classes and 70,125 products: a dense length-374 vector
    # per product peaked at about 465 MiB, one quadruple per orbit stays under
    # 128 MiB; the digest is of the ring that the dense build gave
    script = (
        "import hashlib, json, resource\n"
        "from augq import FinAbGroup, burnside_ring, cayley_from_abelian\n"
        "g = cayley_from_abelian(FinAbGroup.from_spec('C2xC2xC2xC2xC2'))\n"
        "spec = json.dumps(burnside_ring(g).to_dict())\n"
        "print(hashlib.sha256(spec.encode()).hexdigest())\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120, check=True,
    )
    digest, peak_kib = done.stdout.split()
    assert digest == "f0adb2515f992c0be7e43f6ee1446a7794ac556b393f56d55390f888cc34d928"
    assert int(peak_kib) < 128 * 1024


# -- representation rings ----------------------------------------------------


def test_rep_abelian_equals_group_ring_tensor():
    for orders in ([], [2], [5], [2, 4], [3, 3]):
        g = FinAbGroup(orders)
        a = rep_ring_abelian(g)
        b = group_ring(g)
        m = len(a.labels)
        assert m == len(b.labels)
        for i in range(m):
            for j in range(m):
                assert basis_product(a, i, j) == basis_product(b, i, j)
        assert a.augmentation == b.augmentation


def test_rep_dihedral_odd_frozen():
    ring = rep_ring_dihedral(3)
    assert list(ring.labels) == ["1", "sgn", "V1"]
    assert basis_product(ring, 2, 2) == [1, 1, 1]  # V1^2 = 1 + sgn + V1
    assert basis_product(ring, 1, 2) == [0, 0, 1]  # sgn V1 = V1
    assert basis_product(ring, 1, 1) == [1, 0, 0]
    assert ring.augmentation == (1, 1, 2)
    assert ring.validate().passed


def test_rep_dihedral_even_frozen():
    ring = rep_ring_dihedral(4)
    assert list(ring.labels) == ["1", "sgn", "rot", "rotsgn", "V1"]
    # V1^2 = V2 + V0 with both indices folding to linear characters
    assert basis_product(ring, 4, 4) == [1, 1, 1, 1, 0]
    assert basis_product(ring, 2, 4) == [0, 0, 0, 0, 1]  # rot V1 folds back to V1
    assert ring.augmentation == (1, 1, 1, 1, 2)
    assert ring.validate().passed


def test_rep_dihedral_all_validate():
    for m in range(3, 10):
        assert rep_ring_dihedral(m).validate().passed
    with pytest.raises(BadParameterError):
        rep_ring_dihedral(2)


# -- parsing -----------------------------------------------------------------


def test_parse_group_spec():
    assert parse_group_spec("C2xC4") == FinAbGroup([2, 4])
    assert parse_group_spec("1") == FinAbGroup([])
    d4 = parse_group_spec("D4")
    assert isinstance(d4, CayleyGroup) and d4.order == 8
    s3 = parse_group_spec("S3")
    assert isinstance(s3, CayleyGroup) and s3.order == 6
    assert parse_group_spec("S4").order == 24
    for bad in ("C1x", "D", "D2", "S5", "Q8", "", "D²", "D١", "D+4", "D 4", "D1_0", "C²"):
        with pytest.raises(ParseError):
            parse_group_spec(bad)
