import json
import os
import random
import subprocess
import sys

import pytest

from augq import abgroup, stabilize
from augq.abgroup import FinAbGroup
from augq.augring import AugmentedRing
from augq.constructors import burnside_ring, cayley_from_abelian, group_ring
from augq.stabilize import (
    CSV_HEADER,
    StabilizationReport,
    build_report,
    detect_stabilization,
    lambda_diagnostics,
    quotient_sequence,
    report_csv_rows,
    report_to_dict,
    verify_bound,
)
from conftest import abelian_groups_upto, build_corpus_ring, corpus_ring_specs
from oracles import basis_product, sym_power_order, valuation_by_multiplication

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def G(*orders):
    return FinAbGroup(orders)


def test_quotient_sequence_frozen():
    seq = quotient_sequence(group_ring(G(2)), 5)
    assert [q.group.invariant_factors for q in seq] == [(2,)] * 5
    assert [q.n for q in seq] == [1, 2, 3, 4, 5]
    seq = quotient_sequence(group_ring(G()), 5)
    assert all(q.group.invariant_factors == () for q in seq)
    seq = quotient_sequence(burnside_ring(cayley_from_abelian(G(2))), 5)
    assert [q.group.invariant_factors for q in seq] == [(2,)] * 5


def test_quotient_sequence_refuses_max_n_past_the_ceiling():
    # the CLI's --max-n ceiling bounds library callers too
    ring = group_ring(G(2))
    with pytest.raises(ValueError, match="from 1 to 1000"):
        quotient_sequence(ring, 1001)
    with pytest.raises(ValueError, match="from 1 to 1000"):
        build_report(ring, "group-ring:C2", max_n=1001)
    assert len(quotient_sequence(ring, 1000)) == 1000


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_quotient_sequence_without_a_period_stays_small():
    # the chain of C2xC2xC8 has no exact period; keeping the operators of
    # every step for the period test peaked at about 40 MiB at max_n 300,
    # one step's operators per row set stays under 28 MiB; the digest is
    # of the quotients that the first way gave.  VmHWM is the child's own
    # peak, where ru_maxrss would also count the forked test process
    script = (
        "import hashlib, json\n"
        "from augq import FinAbGroup, group_ring\n"
        "from augq.stabilize import quotient_sequence\n"
        "ring = group_ring(FinAbGroup.from_spec('C2xC2xC8'))\n"
        "groups = [q.group.invariant_factors for q in quotient_sequence(ring, 300)]\n"
        "print(hashlib.sha256(json.dumps(groups).encode()).hexdigest())\n"
        "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120, check=True,
    )
    digest, peak_kib = done.stdout.split()
    assert digest == "dd3940031106aa359f9f8ec9bfea58ea37ad3b9db919d6cd036ef426c38bfd15"
    assert int(peak_kib) < 28 * 1024


def test_detect_stabilization_frozen():
    assert detect_stabilization([G(2)] * 5, 3) == (1, 5)
    assert detect_stabilization([G(4), G(2), G(2), G(2), G(2)], 3) == (2, 4)
    assert detect_stabilization([G(4), G(2)], 3) is None
    assert detect_stabilization([], 3) is None
    assert detect_stabilization([G(2), G(2)], 2) == (1, 2)
    # isomorphism, not identity, decides the tail
    assert detect_stabilization([G(2, 3), G(6), G(6)], 2) == (1, 3)
    with pytest.raises(ValueError):
        detect_stabilization([G(2)] * 5, 1)


def test_verify_bound_frozen():
    seq = quotient_sequence(group_ring(G(2)), 10)
    assert verify_bound(seq, 2, 1) == [True] * 10
    seq = quotient_sequence(group_ring(G()), 5)
    assert verify_bound(seq, 1, 0) == [True] * 5
    seq = quotient_sequence(group_ring(G(3)), 6)
    assert [q.order for q in seq] == [3] * 6
    assert verify_bound(seq, 3, 2) == [True] * 6


def test_lambda_diagnostics_rows():
    # Q1 = [2,2] but the tail is [2,2,2], so constancy starts at n = 2
    seq = quotient_sequence(group_ring(G(2, 2)), 6)
    table, flags = lambda_diagnostics(seq, 2, 3, tail_start=2)
    assert set(table) == {(2, 0), (2, 1), (2, 2), (2, 3)}
    assert flags == {k: True for k in table}
    assert table[(2, 0)] == (2, 3, 3, 3, 3, 3)
    assert table[(2, 1)] == (0,) * 6  # exponent-2 groups die under doubling
    _, flags = lambda_diagnostics(seq, 2, 3, tail_start=1)
    assert flags[(2, 0)] is False
    table, flags = lambda_diagnostics(seq, 2, 3)
    assert flags is None


@pytest.mark.parametrize(
    "family,spec", [("group-ring", "C2xC4"), ("burnside", "C6"), ("rep", "D4")]
)
def test_lambda_diagnostics_rows_match_multiplication(family, spec, monkeypatch):
    ring = build_corpus_ring(family, spec)
    seq = quotient_sequence(ring, 8)
    d, r = seq[0].group.invariant_factors[-1], ring.dim - 1
    want = {}
    for p in abgroup._factorint(d):
        s = 0
        while p**s <= d**r:
            want[(p, s)] = tuple(
                valuation_by_multiplication(q.group, p, s) for q in seq
            )
            s += 1
    constructed = []
    init = FinAbGroup.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FinAbGroup, "__init__", counting_init)
    table, _ = lambda_diagnostics(seq, d, r)
    assert constructed == []
    assert table == want


@pytest.mark.parametrize(
    "family,spec", [("group-ring", "C2xC4"), ("burnside", "D4"), ("rep", "D6")]
)
def test_lambda_diagnostics_values_once_per_distinct_group(family, spec, monkeypatch):
    ring = build_corpus_ring(family, spec)
    seq = quotient_sequence(ring, 12)
    d, r = seq[0].group.invariant_factors[-1], ring.dim - 1
    calls = []
    valuation = FinAbGroup.p_power_valuation

    def counting_valuation(self, p, s):
        calls.append((self, p, s))
        return valuation(self, p, s)

    monkeypatch.setattr(FinAbGroup, "p_power_valuation", counting_valuation)
    table, _ = lambda_diagnostics(seq, d, r)
    distinct = {q.group for q in seq}
    assert len(distinct) < len(seq)
    # the rows of p up to and including its first zero row, none after it
    evaluated = [
        (p, s)
        for p, s in table
        if all(any(table[(p, t)]) for t in range(s))
    ]
    assert any(not any(table[key]) for key in evaluated)
    assert len(evaluated) < len(table)
    assert len(calls) == len(set(calls)) == len(evaluated) * len(distinct)
    assert {(p, s) for _, p, s in calls} == set(evaluated)
    monkeypatch.undo()
    for (p, s), row in table.items():
        assert row == tuple(q.group.p_power_valuation(p, s) for q in seq)


def test_lambda_diagnostics_finds_exponents_once_per_group_and_prime(monkeypatch):
    # x*x = 12x: every Q_n is Z/12, so d = 12 and r = 1 give the rows
    # (2, 0..3) and (3, 0..2), each read off the exponents of one prime
    ring = AugmentedRing(
        ["1", "x"], [[0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 1, 12]], [1, 0], 0
    )
    seq = quotient_sequence(ring, 6)
    calls = []
    exponents = FinAbGroup._exponents

    def counting_exponents(self, p):
        calls.append((self, p))
        return exponents(self, p)

    monkeypatch.setattr(FinAbGroup, "_exponents", counting_exponents)
    table, _ = lambda_diagnostics(seq, 12, 1)
    assert sorted(p for _, p in calls) == [2, 3]
    assert {g for g, _ in calls} == {G(12)}
    assert table == {
        (2, 0): (2,) * 6, (2, 1): (1,) * 6, (2, 2): (0,) * 6, (2, 3): (0,) * 6,
        (3, 0): (1,) * 6, (3, 1): (0,) * 6, (3, 2): (0,) * 6,
    }


@pytest.mark.parametrize(
    "spec,max_n,smith_forms", [("C4", 20, 1), ("C2xC4", 20, 4), ("C2xC2xC8", 10, 9)]
)
def test_quotient_sequence_takes_one_smith_form_per_distinct_step(
    spec, max_n, smith_forms, monkeypatch
):
    # C4 has one ideal generator, so every step is the one lattice C_2;
    # C2xC4 has two equal step lattices that come from different rows, so
    # they are distinct objects with one group
    ring = group_ring(FinAbGroup.from_spec(spec))
    calls = []
    real = stabilize.smith_invariants

    def counting(rows, ncols):
        calls.append(rows)
        return real(rows, ncols)

    monkeypatch.setattr(stabilize, "smith_invariants", counting)
    for _ in range(2):  # nothing is kept between calls
        calls.clear()
        seq = quotient_sequence(ring, max_n)
        assert len(calls) == smith_forms
        assert len({id(q.group) for q in seq[1:]}) == smith_forms


def test_quotient_sequence_factors_nothing(corpus_reports, monkeypatch):
    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(abgroup, "_factorint", no_factoring)
    for family, spec in corpus_ring_specs():
        report = corpus_reports[f"{family}:{spec}"]
        seq = quotient_sequence(build_corpus_ring(family, spec), 8)
        assert seq == report.quotients[:8], (family, spec)


def test_build_report_factors_each_invariant_factor_once(monkeypatch):
    # x*x = (2^64 + 1) x, so Q_n = Z/(2^64 + 1) for every n and d = 2^64 + 1
    big = 2**64 + 1
    ring = AugmentedRing(
        ["1", "x"], [[0, 0, 0, 1], [0, 1, 1, 1], [1, 1, 1, big]], [1, 0], 0
    )
    calls = []
    trial = abgroup._trial_division

    def counting_trial(n):
        calls.append(n)
        return trial(n)

    monkeypatch.setattr(abgroup, "_trial_division", counting_trial)
    report = build_report(ring, "big", max_n=8)
    assert [q.group for q in report.quotients] == [G(big)] * 8
    assert set(report.lambda_table) == {
        (274177, 0), (274177, 1), (274177, 2), (274177, 3),
        (67280421310721, 0), (67280421310721, 1),
    }
    assert calls.count(big) == 1


def test_build_report_zc2():
    report = build_report(group_ring(G(2)), "group-ring:C2", max_n=10, min_window=5)
    assert report.ring_id == "group-ring:C2"
    assert report.d == 2 and report.r == 1
    assert report.n0_candidate == 1 and report.window == 10
    assert report.certified is False
    assert report.bound_ok == [True] * 10
    assert report.lambda_table[(2, 0)] == (1,) * 10
    assert len(report.quotients) == 10


def test_build_report_inconclusive_tail():
    report = build_report(group_ring(G(2, 4)), "t", max_n=3, min_window=3)
    # Q1 = [2,4] differs from the later [2,2,2,4]; tail of length 2 < 3
    assert report.n0_candidate is None
    assert report.window is None


def test_report_dict_is_plain_json():
    for ring, rid in (
        (group_ring(G(2)), "group-ring:C2"),
        (group_ring(G(2, 4)), "group-ring:C2xC4"),
        (burnside_ring(cayley_from_abelian(G(4))), "burnside:C4"),
    ):
        report = build_report(ring, rid, max_n=8, min_window=4)
        d = report_to_dict(report)
        # lists, not tuples, and string keys: what JSON reads back is the dict
        assert json.loads(json.dumps(d)) == d
        # stable key layout for the wire format
        assert tuple(d) == StabilizationReport.__slots__ == (
            "ring_id",
            "max_n",
            "d",
            "r",
            "quotients",
            "n0_candidate",
            "window",
            "certified",
            "bound_ok",
            "lambda_table",
        )
        assert d["certified"] is False


def test_report_dict_lambda_keys_are_strings():
    report = build_report(group_ring(G(6)), "group-ring:C6", max_n=6, min_window=3)
    d = report_to_dict(report)
    # rows exist for every p | d and shift with p^s <= d^r, zero rows included
    assert "2,0" in d["lambda_table"] and "3,0" in d["lambda_table"]
    assert all("," in k for k in d["lambda_table"])
    assert d["lambda_table"] == {
        f"{p},{s}": list(row) for (p, s), row in report.lambda_table.items()
    }


def test_report_csv_rows():
    report = build_report(group_ring(G(2)), "group-ring:C2", max_n=3, min_window=2)
    assert CSV_HEADER == ["ring_id", "n", "invariants", "order", "bound_ok"]
    assert report_csv_rows(report) == [
        ["group-ring:C2", "1", "2", "2", "true"],
        ["group-ring:C2", "2", "2", "2", "true"],
        ["group-ring:C2", "3", "2", "2", "true"],
    ]


def test_report_determinism():
    a = build_report(group_ring(G(2, 4)), "x", max_n=8, min_window=4)
    b = build_report(group_ring(G(2, 4)), "x", max_n=8, min_window=4)
    assert report_to_dict(a) == report_to_dict(b)
    assert report_csv_rows(a) == report_csv_rows(b)


# -- closed forms and metamorphic checks ------------------------------------


def test_first_quotient_of_an_abelian_group_ring_is_the_group():
    # I/I^2 of Z[G] is the abelianization of G
    groups = abelian_groups_upto(16)
    assert len(groups) == 25
    for g in groups:
        assert quotient_sequence(group_ring(g), 1)[0].group == g, g.spec_string()


def test_every_quotient_of_a_cyclic_group_ring_is_the_group():
    # I = (g - 1) is principal, so I^n / I^(n+1) is Z/m for every n
    for m in range(2, 33):
        seq = quotient_sequence(group_ring(G(m)), 20)
        assert [q.group for q in seq] == [G(m)] * 20, m


def test_group_ring_quotients_are_images_of_symmetric_powers(corpus_reports):
    # Passi: for abelian G, Sym^n G maps onto Q_n of Z[G], so
    # |Q_n| <= |Sym^n G| and exp(Q_n) divides exp(G)
    rings = [
        (spec, corpus_reports[f"group-ring:{spec}"].quotients[:12])
        for family, spec in corpus_ring_specs()
        if family == "group-ring"
    ]
    rings.append(("C2xC2xC8", quotient_sequence(group_ring(G(2, 2, 8)), 12)))
    pairs = equal = 0
    for spec, quotients in rings:
        factors = FinAbGroup.from_spec(spec).invariant_factors
        exponent = max(factors, default=1)
        assert [q.n for q in quotients] == list(range(1, 13)), spec
        for q in quotients:
            bound = sym_power_order(factors, q.n)
            assert q.order <= bound, (spec, q.n)
            assert exponent % max(q.group.invariant_factors, default=1) == 0
            pairs += 1
            equal += q.order == bound
    assert (pairs, equal) == (312, 216)


def _permuted_spec(spec, perm):
    """The ring spec with basis element i relabelled perm[i]."""
    labels = [None] * len(perm)
    augmentation = [None] * len(perm)
    for i, x in enumerate(spec["basis"]):
        labels[perm[i]] = x
        augmentation[perm[i]] = spec["augmentation"][i]
    return {
        "basis": labels,
        "identity": perm[spec["identity"]],
        "structure": [[perm[i], perm[j], perm[k], c] for i, j, k, c in spec["structure"]],
        "augmentation": augmentation,
    }


def test_reports_are_invariant_under_basis_permutation():
    rng = random.Random(53)
    lower = 0
    for family, spec in corpus_ring_specs():
        ring_id = f"{family}:{spec}"
        ring = build_corpus_ring(family, spec)
        perm = list(range(ring.dim))
        rng.shuffle(perm)
        permuted_spec = _permuted_spec(ring.to_dict(), perm)
        lower += sum(i > j for i, j, _, _ in permuted_spec["structure"])
        permuted = AugmentedRing.from_dict(permuted_spec)
        assert permuted.validate().passed, ring_id
        want = report_to_dict(build_report(ring, ring_id, 12))
        assert report_to_dict(build_report(permuted, ring_id, 12)) == want, ring_id
        # the mirrored table is written back as its upper triangle
        out = permuted.to_dict()
        assert all(i <= j for i, j, _, _ in out["structure"]), ring_id
        back = AugmentedRing.from_dict(out)
        m = ring.dim
        assert all(
            basis_product(back, i, j) == basis_product(permuted, i, j)
            for i in range(m)
            for j in range(m)
        ), ring_id
    # the constructor mirrored lower-triangle quadruples
    assert lower > 0
