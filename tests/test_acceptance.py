"""Acceptance gate: ten checks, one printed pass/fail line each.

Run as ``pytest tests/test_acceptance.py -v``.  Each check prints its
line to stdout as it runs, and the lines are replayed in a terminal
summary section at the end of the run so they survive pytest's capture.
"""

import math
import random
from contextlib import contextmanager

from augq import (
    FinAbGroup,
    burnside_ring,
    cayley_from_abelian,
    group_ring,
    lambda_diagnostics,
    quotient_sequence,
    rep_ring_abelian,
    rep_ring_dihedral,
)
from augq.intlinalg import IntMatrix, lattice_from_generators, quotient_invariants, snf
from conftest import abelian_groups_upto
from oracles import (
    basis_product,
    character_structure_constants,
    det_laplace,
    dihedral_characters,
    matmul,
    random_group,
    random_subgroup_quotient,
    random_unimodular,
)

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# Replayed by the pytest_terminal_summary hook in conftest.py.
RESULT_LINES = []


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    text = f"criterion {num:2d}: {status} - {detail}"
    RESULT_LINES.append(text)
    print(text, flush=True)


@contextmanager
def criterion(num, detail):
    try:
        yield
    except BaseException:
        _line(num, False, detail)
        raise
    _line(num, True, detail)


def test_criterion_01_hand_derived_quotients():
    with criterion(1, "Q_n of the C2 group ring and C2 Burnside ring, n = 1..10"):
        zc2 = group_ring(FinAbGroup([2]))
        omega = burnside_ring(cayley_from_abelian(FinAbGroup([2])))
        for ring in (zc2, omega):
            for q in quotient_sequence(ring, 10):
                assert q.group.invariant_factors == (2,)


def test_criterion_02_corpus_stabilizes(corpus_reports):
    with criterion(2, f"stable tail of length >= 5 on all {len(corpus_reports)} corpus rings"):
        for rid, report in corpus_reports.items():
            assert report.n0_candidate is not None, rid
            assert report.window >= 5, rid
            tail = report.quotients[report.n0_candidate - 1 :]
            assert all(q.group == tail[0].group for q in tail), rid
            assert report.certified is False


def test_criterion_03_order_bound(corpus_reports):
    with criterion(3, "|Q_n| <= d^r for every corpus ring, n <= 20"):
        for rid, report in corpus_reports.items():
            bound = report.d**report.r
            for q in report.quotients:
                assert q.order <= bound, (rid, q.n)
            assert report.bound_ok == [True] * report.max_n, rid


def test_criterion_04_torsion_divides_d(corpus_reports):
    with criterion(4, "every invariant factor of every Q_n divides d"):
        for rid, report in corpus_reports.items():
            for q in report.quotients:
                assert all(report.d % f == 0 for f in q.group.invariant_factors), (
                    rid,
                    q.n,
                )


def test_criterion_05_valuation_additivity():
    with criterion(5, "valuation additivity + Sylow reduction on 500 seeded triples"):
        for seed in range(500):
            g = random_group(seed)
            h, q = random_subgroup_quotient(seed * 2654435761 % 2**31, g)
            assert h.order() * q.order() == g.order(), seed
            for p in PRIMES_TO_31:
                lg, lh, lq = g.p_valuation(p), h.p_valuation(p), q.p_valuation(p)
                assert lh - lg + lq == 0, (seed, p)
                assert lg == g.sylow(p).p_valuation(p), (seed, p)


def test_criterion_06_profile_roundtrip():
    with criterion(6, "valuation-profile roundtrip on 200 seeded groups"):
        for seed in range(200):
            g = random_group(seed, max_rank=4, max_prime_power=1024)
            back = FinAbGroup.from_valuation_profile(g.valuation_profile())
            assert back == g, seed


def test_criterion_07_valuation_rows_constant_on_tail(corpus_reports):
    with criterion(7, "every valuation row constant on each detected tail"):
        for rid, report in corpus_reports.items():
            _, flags = lambda_diagnostics(
                report.quotients, report.d, report.r, tail_start=report.n0_candidate
            )
            assert flags is not None and all(flags.values()), rid


def test_criterion_08_exact_linear_algebra():
    with criterion(8, "SNF/HNF canonicity + determinant index, seeded"):
        rng = random.Random(97)
        fixtures = [
            [[2, 0], [0, 3]],
            [[4, 2, 0], [2, 4, 2], [0, 2, 4]],
            [[6, 0, 0], [0, 10, 0], [0, 0, 15]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
            [[2, 4, 6, 8], [0, 0, 2, 4], [2, 4, 8, 12]],
            [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)],
        ]
        for rows in fixtures:
            m = IntMatrix(rows)
            s0, _, _ = snf(m)
            base = [s0.data[i][i] for i in range(min(m.nrows, m.ncols))]
            for _ in range(100):
                u = random_unimodular(rng, m.nrows)
                v = random_unimodular(rng, m.ncols)
                mixed = IntMatrix(matmul(matmul(u, rows), v))
                s1, _, _ = snf(mixed)
                assert [s1.data[i][i] for i in range(len(base))] == base

            lat = lattice_from_generators(m.ncols, rows)
            for _ in range(20):
                u = random_unimodular(rng, m.nrows)
                assert lattice_from_generators(m.ncols, matmul(u, rows)) == lat

        for trial in range(100):
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
            inv = quotient_invariants(sup, sub)
            assert math.prod(inv.factors) == abs(det_laplace(mult)), trial


def test_criterion_09_dihedral_fusion_oracle():
    with criterion(9, "fusion rules match numerical characters for m <= 12"):
        for m in range(3, 13):
            ring = rep_ring_dihedral(m)
            labels, chars = dihedral_characters(m)
            assert list(ring.labels) == labels
            dim = len(labels)
            worst = 0.0
            for a in range(dim):
                for b in range(dim):
                    numeric = character_structure_constants(chars, a, b)
                    exact = basis_product(ring, a, b)
                    worst = max(
                        worst, max(abs(x - c) for x, c in zip(numeric, exact))
                    )
            assert worst < 1e-9, (m, worst)
            report = ring.validate()
            assert report.passed and report.checks["associativity"], m


def test_criterion_10_rep_matches_group_ring():
    with criterion(10, "rep-ring and group-ring quotients agree, |G| <= 16"):
        for g in abelian_groups_upto(16):
            a = quotient_sequence(rep_ring_abelian(g), 20)
            b = quotient_sequence(group_ring(g), 20)
            assert [q.group for q in a] == [q.group for q in b], g.spec_string()
            assert [q.order for q in a] == [q.order for q in b]
