import random

import pytest

from augq import abgroup
from augq.abgroup import (
    BadParameterError,
    FinAbGroup,
    InconsistentProfileError,
    NotPrimeError,
    ParseError,
    ValuationProfile,
)
from oracles import (
    invariant_factors_primary,
    is_prime_trial,
    random_group,
    random_subgroup_quotient,
    valuation_by_multiplication,
)


def test_canonicalization():
    assert FinAbGroup([2, 3]).invariant_factors == (6,)
    assert FinAbGroup([4, 2, 6]).invariant_factors == (2, 2, 12)
    assert FinAbGroup([12, 18]).invariant_factors == (6, 36)
    assert FinAbGroup([]).invariant_factors == ()
    assert FinAbGroup([1, 1]).invariant_factors == ()
    with pytest.raises(ValueError):
        FinAbGroup([0])
    with pytest.raises(ValueError):
        FinAbGroup([-2])


def test_canonical_form_matches_the_primary_decomposition(monkeypatch):
    # unsorted, repeated and non-coprime orders up to 10^6, built without
    # factoring anything
    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(abgroup, "_factorint", no_factoring)
    rng = random.Random(12)
    for _ in range(400):
        pool = [rng.randint(1, 10**5) for _ in range(3)] + [1, 2, 12, 36]
        orders = [
            rng.choice(pool) * rng.choice((1, 2, 3, 4, 6, 10))
            for _ in range(rng.randint(0, 7))
        ]
        g = FinAbGroup(orders)
        assert g.invariant_factors == invariant_factors_primary(orders), orders
        assert g == FinAbGroup(reversed(orders))
    # long lists from a few small orders: deep chains, many repeats
    for _ in range(100):
        orders = [rng.choice((2, 3, 4, 6, 8, 9, 12, 36)) for _ in range(rng.randint(0, 40))]
        assert FinAbGroup(orders).invariant_factors == invariant_factors_primary(orders)


def test_order_and_triviality():
    assert FinAbGroup([]).order() == 1
    assert FinAbGroup([]).is_trivial()
    assert FinAbGroup([2, 4]).order() == 8
    assert not FinAbGroup([2]).is_trivial()


def test_equality_is_isomorphism():
    assert FinAbGroup([2, 3]) == FinAbGroup([6])
    assert FinAbGroup([2, 2]) != FinAbGroup([4])
    assert FinAbGroup([8, 3]) == FinAbGroup([24])
    assert hash(FinAbGroup([2, 3])) == hash(FinAbGroup([6]))


def test_p_valuation_frozen_examples():
    g = FinAbGroup([2, 8])
    assert g.p_valuation(2) == 4
    assert g.p_valuation(3) == 0
    assert FinAbGroup([12]).p_valuation(2) == 2
    with pytest.raises(NotPrimeError):
        g.p_valuation(4)
    with pytest.raises(NotPrimeError):
        g.p_valuation(1)


def test_sylow():
    g = FinAbGroup([12, 18])  # = (6, 36) = 2^3 * 3^3 ... orders
    assert g.sylow(2) == FinAbGroup([2, 4])
    assert g.sylow(3) == FinAbGroup([3, 9])
    assert g.sylow(5) == FinAbGroup([])
    assert FinAbGroup([]).sylow(2) == FinAbGroup([])


def test_valuation_profile_frozen_examples():
    prof = FinAbGroup([2, 4]).valuation_profile()
    assert dict(prof.items()) == {(2, 0): 3, (2, 1): 1}
    assert dict(FinAbGroup([6]).valuation_profile().items()) == {(2, 0): 1, (3, 0): 1}
    assert dict(FinAbGroup([]).valuation_profile().items()) == {}


def test_profile_roundtrip_frozen():
    for orders in ([], [2], [2, 4], [6], [2, 2, 12], [8, 3, 25]):
        g = FinAbGroup(orders)
        assert FinAbGroup.from_valuation_profile(g.valuation_profile()) == g


def test_profile_inconsistent():
    # one element of order 4 but claimed valuation profile of order-2 group
    bad = ValuationProfile({(2, 0): 1, (2, 1): 1})
    # (2,1) entry says 2G has order 2, so G needs an element of order 4,
    # forcing lambda(2,0) >= 2; reject
    with pytest.raises(InconsistentProfileError):
        FinAbGroup.from_valuation_profile(bad)


def test_profile_validation():
    with pytest.raises(NotPrimeError):
        ValuationProfile({(4, 0): 1})
    with pytest.raises(InconsistentProfileError):
        ValuationProfile({(2, 0): -1})
    prof = ValuationProfile({(2, 0): 0})
    assert dict(prof.items()) == {}


def test_profile_json_mapping():
    prof = FinAbGroup([2, 4]).valuation_profile()
    j = prof.to_json_mapping()
    assert j == {"2,0": 3, "2,1": 1}
    assert ValuationProfile.from_json_mapping(j) == prof
    with pytest.raises(ValueError):
        ValuationProfile.from_json_mapping({"2;0": 1})


def test_spec_string_roundtrip():
    assert FinAbGroup([]).spec_string() == "1"
    assert FinAbGroup([2, 4]).spec_string() == "C2xC4"
    assert FinAbGroup.from_spec("C2xC4") == FinAbGroup([2, 4])
    assert FinAbGroup.from_spec("1") == FinAbGroup([])
    assert FinAbGroup.from_spec("C6") == FinAbGroup([2, 3])
    for seed in range(40):
        g = random_group(seed)
        assert FinAbGroup.from_spec(g.spec_string()) == g


def test_from_spec_errors():
    # n is ASCII decimal digits only: no sign, separator or non-ASCII digit
    non_decimal = ("C²", "C١", "C𝟐", "C+2", "C 2", "C1_0", "C2xC-4", "C" + "1" * 5000)
    for bad in ("", "C1", "C0", "Cx", "C2x", "xC2", "C2 x C4", "D4") + non_decimal:
        with pytest.raises(ParseError):
            FinAbGroup.from_spec(bad)
    try:
        FinAbGroup.from_spec("C2xC1")
    except ParseError as exc:
        assert exc.position > 0


def test_sylow_reduction_and_commutation():
    for seed in range(60):
        g = random_group(seed)
        for p in (2, 3, 5, 7, 11):
            assert g.p_valuation(p) == g.sylow(p).p_valuation(p)
            for s in range(3):
                assert g.p_power_valuation(p, s) == g.sylow(p).p_power_valuation(p, s)


def test_valuation_monotone_in_shift():
    for seed in range(60):
        g = random_group(seed)
        for p in (2, 3, 5):
            vals = [g.p_power_valuation(p, s) for s in range(g.p_valuation(p) + 1)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert vals[-1] == 0


def test_random_group_determinism():
    assert random_group(7) == random_group(7)
    groups = {random_group(s).invariant_factors for s in range(30)}
    assert len(groups) > 5


def test_random_subgroup_quotient_orders_multiply():
    for seed in range(80):
        g = random_group(seed, max_rank=3, max_prime_power=32)
        h, q = random_subgroup_quotient(seed * 31 + 7, g)
        assert h.order() * q.order() == g.order()


def test_p_power_valuation_matches_multiplication():
    # shifts run past the largest exponent, where every value is 0
    for seed in range(300):
        g = random_group(seed)
        for p in (2, 3, 5, 7, 11, 13, 31, 61):
            for s in range(8):
                assert g.p_power_valuation(p, s) == valuation_by_multiplication(g, p, s)


def test_p_power_valuation_of_a_composite_counts_divisions():
    # p is not tested for primality: the exponents count divisions by p
    assert FinAbGroup([8, 4]).p_power_valuation(4, 0) == 2
    assert FinAbGroup([8]).p_power_valuation(4, 0) == 1
    assert FinAbGroup([8]).p_power_valuation(6, 0) == 0


def test_valuation_profile_matches_multiplication():
    primes = [p for p in range(2, 65) if is_prime_trial(p)]
    for seed in range(300):
        g = random_group(seed)
        want = {}
        for p in primes:
            for s in range(8):
                val = valuation_by_multiplication(g, p, s)
                if val:
                    want[(p, s)] = val
        assert dict(g.valuation_profile().items()) == want


def test_is_prime_matches_trial_division():
    assert [n for n in range(200_000) if abgroup._is_prime(n)] == [
        n for n in range(200_000) if is_prime_trial(n)
    ]


def test_is_prime_large_values():
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    assert not abgroup._is_prime(3215031751)
    assert not abgroup._is_prime(3825123056546413051)
    assert abgroup._is_prime(2**61 - 1)
    assert not abgroup._is_prime(2**64 + 1)
    # past the bound below which the test is exact, a prime cannot be decided
    # but a multiple of a small prime still can
    big = 10**30 + 57
    with pytest.raises(BadParameterError, match=str(big)):
        abgroup._is_prime(big)
    assert not abgroup._is_prime(10**30)
    # past the bound a base that proves compositeness still decides it
    assert not abgroup._is_prime((2**61 - 1) * 10000019)


def test_factorint_matches_trial_division():
    # a factorization is right iff its primes multiply back to n
    primes = {p for p in range(100_000) if is_prime_trial(p)}
    for n in range(1, 100_000):
        factors = abgroup._factorint(n)
        assert list(factors) == sorted(factors)
        assert set(factors) <= primes
        prod = 1
        for p, e in factors.items():
            prod *= p**e
        assert prod == n


def test_factorint_splits_large_cofactors(monkeypatch):
    assert abgroup._factorint((2**31 - 1) * (2**31 + 11)) == {
        2**31 - 1: 1, 2**31 + 11: 1,
    }
    assert abgroup._factorint(2**64 + 1) == {274177: 1, 67280421310721: 1}
    assert abgroup._factorint(12 * 10007**3 * 1000003) == {
        2: 2, 3: 1, 10007: 3, 1000003: 1,
    }
    # past the bound where Miller-Rabin is exact, composites are still split
    assert abgroup._factorint(101**13) == {101: 13}
    assert abgroup._factorint(10007**7) == {10007: 7}
    assert abgroup._factorint((2**61 - 1) * 10000019) == {
        10000019: 1, 2**61 - 1: 1,
    }
    # past the step cap rho gives up, naming the number it could not split
    monkeypatch.setattr(abgroup, "_RHO_MAX_STEPS", 64)
    n = 1000003 * 1000033
    with pytest.raises(BadParameterError, match=f"cannot factor {n}"):
        abgroup._factorint(3 * n)


def test_factorint_returns_fresh_dicts():
    first = abgroup._factorint(720)
    assert first == {2: 4, 3: 2, 5: 1}
    first[7] = 1
    assert abgroup._factorint(720) == {2: 4, 3: 2, 5: 1}
