"""Finite abelian groups in canonical invariant-factor form.

The canonical form turns isomorphism testing into structural equality: the
constructor accepts any multiset of cyclic orders and rewrites it, by
gcd and lcm steps and without factoring, as the unique ascending
divisibility chain.

Beyond classification the module carries the small calculus used by the
quotient diagnostics: the p-adic valuation of the group order, Sylow
pieces, the valuation of |p^s G| for a shift s, and the profile of those
valuations over all p and s, together with its exact inverse.  Each reads
the exponents of a prime in the invariant factors, found by division;
no p^s G is built.
"""

import os
import re
from bisect import bisect_left
from math import gcd

from .intlinalg import AugqError

__all__ = [
    "BadParameterError",
    "FinAbGroup",
    "InconsistentProfileError",
    "NotPrimeError",
    "ParseError",
    "TooLargeError",
    "ValuationProfile",
]


class NotPrimeError(AugqError, ValueError):
    """Raised when an argument that must be prime is not."""


class InconsistentProfileError(AugqError, ValueError):
    """Raised when a valuation profile is realized by no finite abelian group."""


class BadParameterError(AugqError, ValueError):
    """Parameter outside its documented range."""

    exit_code = 2


class ParseError(AugqError, ValueError):
    """Group-spec syntax error; ``position`` is the offending character index."""

    exit_code = 2
    prefix = "group spec: "

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TooLargeError(AugqError, ValueError):
    """A group order, a ring-spec dimension or a profile's p-rank exceeds the
    order guard (AUGQ_MAX_ORDER), or an output integer has too many digits."""


DEFAULT_MAX_ORDER = 64


def read_decimal(text):
    """The integer that ``text`` spells, or None if it spells none.

    The one rule for every integer read from text (group and ring specs,
    options, AUGQ_MAX_ORDER, profile keys): ASCII digits after an optional
    "-", nothing else -- no "+", spaces, underscores or non-ASCII digits.

    >>> [read_decimal(t) for t in ("-12", "1_0", "+5", " 7", "²")]
    [-12, None, None, None, None]
    """
    try:
        if re.fullmatch("-?[0-9]+", text):
            return int(text)
    except ValueError:  # more digits than int() accepts
        pass
    return None


def write_decimal(n):
    """The decimal text of ``n``: the inverse of ``read_decimal``, and the one
    writer of every integer output as text.  An integer with more digits than
    int-to-str conversion allows raises TooLargeError naming its bit length."""
    try:
        return str(n)
    except ValueError:
        raise TooLargeError(
            f"integer of {n.bit_length()} bits is too long to write in decimal"
        ) from None


def _check_order(order, what="group order"):
    """Raise TooLargeError when a group of this order, a ring spec of this
    dimension or a profile of this p-rank is past the guard.

    The guard is the environment variable AUGQ_MAX_ORDER, default 64, and
    nothing else sets it.  Every constructor checks the order before it
    lists elements or builds a table, ``from_dict`` checks the dimension
    before it reads a structure row, and ``from_valuation_profile`` each
    p-rank before it lists a cyclic factor: tables grow as the square of
    the order, ``validate`` expands every basis triple, subgroup
    enumeration can grow exponentially, and this is a desk-scale tool.
    """
    raw = os.environ.get("AUGQ_MAX_ORDER", str(DEFAULT_MAX_ORDER))
    max_order = read_decimal(raw)
    if max_order is None:
        raise BadParameterError(f"AUGQ_MAX_ORDER must be an integer, got {raw!r}")
    if max_order < 1:
        raise BadParameterError(f"AUGQ_MAX_ORDER must be at least 1, got {raw!r}")
    if order > max_order:
        try:
            shown = str(order)
        except ValueError:  # more digits than int-to-str conversion allows
            shown = f"of {order.bit_length()} bits"
        raise TooLargeError(
            f"{what} {shown} exceeds the order guard {max_order} (AUGQ_MAX_ORDER)"
        )


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015); past it no deterministic base set is known.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(p):
    """Deterministic primality test.

    Raises BadParameterError for a p at or above ``_MR_EXACT_BELOW`` that
    every base passes: past that bound the bases no longer prove it prime.
    """
    if not isinstance(p, int) or p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= _MR_EXACT_BELOW:
        raise BadParameterError(
            f"cannot decide whether {p} is prime: primality is tested only "
            f"below {_MR_EXACT_BELOW}"
        )
    return True


# Trial division strips the primes below _TRIAL_BOUND; the cofactor is split
# by Pollard rho, which gives up after _RHO_MAX_STEPS steps, counted over all
# its restarts.
_TRIAL_BOUND = 100
_RHO_MAX_STEPS = 1 << 20


def _trial_division(n):
    """Return (dict prime -> exponent, cofactor) for the primes below
    ``_TRIAL_BOUND``; the cofactor is 1, a prime, or has no prime factor
    below the bound."""
    out = {}
    f = 2
    while f < _TRIAL_BOUND and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    return out, n


def _rho_divisor(n):
    """A proper divisor of the odd composite n (Pollard rho, Floyd cycles).

    Raises BadParameterError when none turns up within _RHO_MAX_STEPS.
    """
    steps = 0
    c = 0
    while True:
        c += 1
        x = y = 2
        g = 1
        while g == 1:
            steps += 1
            if steps > _RHO_MAX_STEPS:
                raise BadParameterError(
                    f"cannot factor {n}: Pollard rho found no divisor within "
                    f"{_RHO_MAX_STEPS} steps"
                )
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(abs(x - y), n)
        if g != n:
            return g


def _factorint(n):
    """Prime factorization as a dict prime -> exponent, primes ascending.

    Short trial division, then Pollard rho on the cofactor with
    ``_is_prime`` deciding its pieces.  A piece that rho cannot split within
    its step cap, or that ``_is_prime`` cannot decide, raises
    BadParameterError naming it.
    """
    out, m = _trial_division(n)
    pending = [m] if m > 1 else []
    while pending:
        m = pending.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho_divisor(m)
            pending += [f, m // f]
    return dict(sorted(out.items()))


def _divide_out(f, q):
    """(e, f // q^e) for the largest e with q^e dividing f, for q > 1.

    q is divided out once, then q^2 as often as it goes, recursively, and
    last q once more if it still divides: the powers q^(2^k) are tried
    largest first on the way back, about 2·log2(e) divisions in all.
    """
    if f % q:
        return 0, f
    e, f = _divide_out(f // q, q * q)
    if f % q:
        return 2 * e + 1, f
    return 2 * e + 2, f // q


class FinAbGroup:
    """A finite abelian group, canonicalized to invariant factors.

    >>> FinAbGroup([2, 3]).invariant_factors
    (6,)
    >>> FinAbGroup([4, 2, 6]).invariant_factors
    (2, 2, 12)
    >>> FinAbGroup([6, 15]) == FinAbGroup([3, 30])
    True
    """

    __slots__ = ("_factors", "_kept_exponents")

    def __init__(self, orders=()):
        orders = sorted(map(int, orders), reverse=True)
        if orders and orders[-1] < 1:
            raise ValueError("cyclic orders must be positive")
        chain = []  # invariant factors so far, largest first
        for o in orders:
            # Z/c + Z/o = Z/lcm + Z/gcd, the gcd going on down the chain.  The
            # multiples of o come first and pass it on whole, so they are
            # skipped; any other entry leaves a proper divisor of o.
            j = 0
            while o > 1:
                j = bisect_left(chain, True, j, key=lambda c: c % o != 0)
                if j == len(chain):
                    chain.append(o)
                    break
                g = gcd(chain[j], o)
                chain[j], o = chain[j] // g * o, g
                j += 1
        self._factors = tuple(reversed(chain))
        self._kept_exponents = {}  # p -> _exponents(p), for p_power_valuation

    @property
    def invariant_factors(self):
        return self._factors

    def order(self):
        n = 1
        for f in self._factors:
            n *= f
        return n

    def _exponents(self, p):
        """The exponent of p in each invariant factor; all 0 for p < 2, which
        no number of divisions would use up."""
        if p < 2:
            return [0] * len(self._factors)
        return [_divide_out(f, p)[0] for f in self._factors]

    def p_valuation(self, p):
        """Exponent of the prime p in the group order."""
        if not _is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        return sum(self._exponents(p))

    def p_power_valuation(self, p, s):
        """Exponent of the prime p in |p^s G|, for a shift s >= 0.

        Each cyclic piece of order p^e becomes one of order p^max(e-s, 0)
        under multiplication by p^s, so the value is read off the exponents
        of p in the invariant factors without building p^s G.  It is 0 for
        any p that does not divide |G|.  p is not tested for primality: for
        a composite p the exponents count divisions by p itself, so the
        value is no valuation.  The exponents are found once per p and
        kept, so a sweep over s divides only once.
        """
        exps = self._kept_exponents.get(p)
        if exps is None:
            exps = self._kept_exponents[p] = self._exponents(p)
        return sum(e - s for e in exps if e > s)

    def sylow(self, p):
        """The p-part: the subgroup of elements of p-power order."""
        if not _is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        return FinAbGroup([p**e for e in self._exponents(p)])

    def valuation_profile(self):
        """Profile {(p, s): v_p(|p^s G|)} over all entries that are nonzero;
        the largest invariant factor is the one number factored."""
        entries = {}
        for p, top in _factorint(max(self._factors, default=1)).items():
            for s in range(top):
                entries[(p, s)] = self.p_power_valuation(p, s)
        return ValuationProfile(entries)

    @classmethod
    def from_valuation_profile(cls, profile):
        """Invert ``valuation_profile``.

        Writing sigma_s for the valuation of |p^s G|, the difference
        sigma_s - sigma_{s+1} counts the cyclic p-power factors of exponent
        at least s+1; a second difference therefore recovers the exact
        multiplicity of each exponent.  Any negative count along the way
        means no group realizes the profile.  The p-rank sigma_0 - sigma_1,
        the number of cyclic p-power factors, is bounded by the order guard.
        """
        factors = []  # invariant factors, largest first, built prime by prime
        by_prime = {}
        for (p, s), val in profile.items():
            by_prime.setdefault(p, {})[s] = val
        for p in sorted(by_prime):
            sigma = by_prime[p]
            for s in sorted(sigma):
                # zeros are dropped, so a rise sigma_{s-1} < sigma_s sits at a
                # given s; past this scan the shifts are exactly 0..max(sigma)
                if s and sigma.get(s - 1, 0) < sigma[s]:
                    raise InconsistentProfileError(
                        f"profile is not non-increasing at p={p}, s={s}"
                    )
            _check_order(sigma.get(0, 0) - sigma.get(1, 0), what=f"{p}-rank")
            powers = []
            for k in range(1, max(sigma) + 2):
                mult = sigma.get(k - 1, 0) - 2 * sigma.get(k, 0) + sigma.get(k + 1, 0)
                if mult < 0:
                    raise InconsistentProfileError(
                        f"profile forces a negative multiplicity at p={p}, exponent {k}"
                    )
                powers.extend([p**k] * mult)
            # the t-th largest invariant factor takes the t-th largest p-power
            factors.extend([1] * (len(powers) - len(factors)))
            for t, q in enumerate(reversed(powers)):
                factors[t] *= q
        return cls(factors)

    def spec_string(self):
        """Round-trips through ``from_spec``."""
        if not self._factors:
            return "1"
        return "x".join(f"C{f}" for f in self._factors)

    @classmethod
    def from_spec(cls, text):
        """Parse the abelian group grammar: "1", "C<n>" with n >= 2, or
        products of the latter joined by "x" (e.g. "C2xC4")."""
        if text == "1":
            return cls()
        orders = []
        pos = 0
        for token in text.split("x"):
            n = read_decimal(token[1:]) if token.startswith("C") else None
            if n is None:
                raise ParseError(f"expected C<n>, got {token!r}", pos)
            if n < 2:
                raise ParseError(f"cyclic order must be >= 2, got {token!r}", pos)
            orders.append(n)
            pos += len(token) + 1
        return cls(orders)

    def __eq__(self, other):
        if not isinstance(other, FinAbGroup):
            return NotImplemented
        return self._factors == other._factors

    def __hash__(self):
        return hash(self._factors)

    def __repr__(self):
        return f"FinAbGroup({list(self._factors)!r})"

    def __str__(self):
        return self.spec_string()


class ValuationProfile:
    """A finitely supported map (prime p, shift s) -> valuation, zeros dropped."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        clean = {}
        for key, val in dict(entries).items():
            p, s = key
            if not _is_prime(p):
                raise NotPrimeError(f"profile key has non-prime {p}")
            if not isinstance(s, int) or s < 0:
                raise BadParameterError("profile shift must be a nonnegative integer")
            if not isinstance(val, int) or val < 0:
                raise InconsistentProfileError("profile values must be nonnegative")
            if val:
                clean[(p, s)] = val
        self._entries = dict(sorted(clean.items()))

    def items(self):
        return self._entries.items()

    def __eq__(self, other):
        if not isinstance(other, ValuationProfile):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self):
        return f"ValuationProfile({self._entries!r})"

    @classmethod
    def from_json_mapping(cls, mapping):
        """Reads the CLI wire format, whose keys are "p,s" strings."""
        entries = {}
        for key, val in mapping.items():
            pair = tuple(read_decimal(t) for t in str(key).split(","))
            if len(pair) != 2 or None in pair:
                raise BadParameterError(
                    f"profile key {key!r} is not a pair 'p,s' of integers"
                )
            if not isinstance(val, int) or isinstance(val, bool):
                raise BadParameterError(
                    f"profile value for key {key!r} must be an integer, got {val!r}"
                )
            entries[pair] = val
        return cls(entries)
