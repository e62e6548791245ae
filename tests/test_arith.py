import math
import random
import time
from fractions import Fraction

import pytest

from oracles import (RationalNumberError, RealAlgebraic, exact_convergents, exact_sign,
                     factor_by_trial, fraction_convergents, integer_roots, is_prime_by_trial,
                     sieved_primes, sqrt_algebraic)
from tauhunt import arith as A


def verified(n, pairs):
    """Prime factors with positive exponents, ascending, whose product is |n|."""
    return (all(e >= 1 and A.is_prime(p) for p, e in pairs)
            and [p for p, _ in pairs] == sorted(p for p, _ in pairs)
            and math.prod(p**e for p, e in pairs) == abs(n))


def test_factor_basic():
    assert A.factor(6048) == ((2, 5), (3, 3), (7, 1))
    assert A.factor(1) == ()
    assert A.factor(691) == ((691, 1),)
    assert A.factor(-12) == ((2, 2), (3, 1))
    with pytest.raises(A.DomainError):
        A.factor(0)


def test_factor_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 10**12)
        f = A.factor(n)
        assert verified(n, f)
        assert sum(e for _, e in f) >= len(f)


def test_factor_keeps_few_sieves():
    A.primes_up_to.cache_clear()
    rng = random.Random(7)
    for n in rng.sample(range(2, 10**12), 200):
        assert verified(n, A.factor(n))
    # factor trial-divides by one sieve, the primes below 2^10
    assert A.primes_up_to.cache_info().currsize == 1


def test_factor_matches_trial_division_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sympy = pytest.importorskip("sympy")
    limit = 1 << 22
    prime = st.sampled_from([p for p in sieved_primes(limit) if p > 1 << 10])

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.one_of(
        st.lists(prime, min_size=1, max_size=4).map(math.prod),
        st.tuples(prime, st.sampled_from((2, 3))).map(lambda pe: pe[0] ** pe[1]),
        st.integers(1, 10**24),
    ), st.sampled_from((1, -1)))
    def check(n, sign):
        found, rest = factor_by_trial(n, limit)
        head = tuple(sorted(found.items()))
        pairs = A.factor(sign * n)
        assert pairs[: len(head)] == head
        # the oracle leaves a cofactor above 2^44 with no prime factor below 2^22 unsplit
        tail = pairs[len(head):]
        assert math.prod(p**e for p, e in tail) == rest
        assert all(p > limit and sympy.isprime(p) for p, _ in tail)

    check()


def test_factor_semiprimes_fast():
    # both factors in (2^10, 2^21): trial division finds neither, Brent's rho
    # splits them in about 0.1 s; trial division to the smaller factor took 0.75 s
    rng = random.Random(300)
    primes = [p for p in sieved_primes(1 << 21) if p > 1 << 10]
    pairs = [sorted(rng.sample(primes, 2)) for _ in range(300)]
    start = time.perf_counter()
    got = [A.factor(p * q) for p, q in pairs]
    assert time.perf_counter() - start < 0.5
    assert got == [((p, 1), (q, 1)) for p, q in pairs]


def test_factor_rho_budget(monkeypatch):
    # Brent's rho charges each round its 2r steps before it starts: 10000079
    # falls out in the round r = 4096, after 2 (8192 - 1) = 8190 steps
    n = 10000019 * 10000079
    monkeypatch.setattr(A, "_RHO_STEPS", 8190)
    assert A.factor(n) == ((10000019, 1), (10000079, 1))
    monkeypatch.setattr(A, "_RHO_STEPS", 8189)
    with pytest.raises(A.DomainError, match=f"15-digit cofactor {n} .* 8189 rho steps"):
        A.factor(n)
    # under the default budget, a semiprime of two 15-digit primes
    # (16,777,214 steps, about 10 s) still factors
    monkeypatch.undo()
    assert A.factor(100000000000031 * 300000000000089) == (
        (100000000000031, 1), (300000000000089, 1))


def test_factor_long_smooth_products(monkeypatch):
    """A cofactor above 2^64 loses its primes below 2^16 by trial division
    before is_prime or rho sees it: the product of the first 600 odd
    primes (1,884 digits) factors at once, where splitting them off the
    whole cofactor one at a time took 77 s."""
    odd = A.primes_up_to(1 << 16)[1:]
    is_prime = A.is_prime

    def short_only(n):
        assert n <= 1 << 64, f"is_prime on a {n.bit_length()}-bit cofactor"
        return is_prime(n)

    monkeypatch.setattr(A, "is_prime", short_only)
    start = time.perf_counter()
    for k in (171, 250, 400, 600):
        n = math.prod(odd[:k])
        assert A.factor(n) == tuple((p, 1) for p in odd[:k])
        assert A.factor(-8 * n * odd[k] ** 2) == (
            ((2, 3),) + tuple((p, 1) for p in odd[:k]) + ((odd[k], 2),))
    # the cofactor falls to 2^64 or below: the ordinary primality stop
    assert A.factor(3**50 * 1000003) == ((3, 50), (1000003, 1))
    monkeypatch.undo()
    # a long prime cofactor is left after the trial division
    big = 80561663527802406257321747
    assert A.factor(math.prod(odd[:600]) * big) == tuple((p, 1) for p in odd[:600]) + ((big, 1),)
    assert time.perf_counter() - start < 1


def test_factor_primes_above_trial_division():
    """A cofactor above 2^64 meets the primes in (2^16, 2^20] by one gcd
    per chunk of them: the product of the first 400 primes above 2^16
    (1,933 digits) factors exactly at once, where splitting them off one
    at a time by is_prime and rho took 4.4 s; what is left past the
    chunks goes to the ordinary stop."""
    above = [p for p in sieved_primes(1 << 17) if p > 1 << 16][:400]
    A.factor(3 * (2**521 - 1))  # the chunk table is built once, on first need
    start = time.perf_counter()
    n = math.prod(above)
    assert A.factor(n) == tuple((p, 1) for p in above)
    assert time.perf_counter() - start < 0.5
    big = 80561663527802406257321747
    assert A.factor(-(above[0] ** 3) * n * big) == (
        ((above[0], 4),) + tuple((p, 1) for p in above[1:]) + ((big, 1),))
    # 1048583, the least prime above 2^20, is in no chunk: rho's stack takes it
    assert A.factor(n * 1048583**2) == tuple((p, 1) for p in above) + ((1048583, 2),)


def test_factor_small_prime_times_large_prime():
    # the trial division stops once the cofactor is prime
    rng = random.Random(5)
    small = [p for p in range(2, 50) if is_prime_by_trial(p)]
    for _ in range(4):
        big = rng.randrange(10**11, 10**12)
        while not is_prime_by_trial(big):
            big += 1
        p = rng.choice(small)
        assert A.factor(p * big) == ((p, 1), (big, 1))
        assert A.factor(-(p**3) * big) == ((p, 3), (big, 1))
        assert A.factor(big) == ((big, 1),)


def test_factor_tests_each_cofactor_once(monkeypatch):
    # a cofactor proven prime is recorded, not tested again on the rho stack
    tested, is_prime = [], A.is_prime

    def counted(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(A, "is_prime", counted)
    assert A.factor(6 * 1000003) == ((2, 1), (3, 1), (1000003, 1))
    assert tested == [6000018, 3000009, 1000003]
    tested.clear()
    assert A.factor(1000003) == ((1000003, 1),)
    assert tested == [1000003]


def test_factor_certifies_large_prime():
    v = 80561663527802406257321747
    assert A.is_prime(v)
    f = A.factor(v)
    assert f == ((v, 1),) and sum(e for _, e in f) == 1


def test_is_prime_agrees_with_trial_division():
    def slow(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(6000):
        assert A.is_prime(n) == slow(n), n


def test_lucas_ladder_matches_recurrence():
    # the doubling ladder against the plain recurrence U_(j+1) = p U_j - q U_(j-1)
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(0, 400), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
                      st.one_of(st.just(0), st.integers(2, 10**9)))
    @hypothesis.example(0, 5, 7, 0)
    @hypothesis.example(1, 0, 0, 0)
    @hypothesis.example(2, 2, 1, 0)  # alpha = beta: U_j = j
    def check(m, p, q, mod):
        u = [0, 1]
        while len(u) < m + 2:
            u.append(p * u[-1] - q * u[-2])
        want = (u[m], u[m + 1])
        if mod:
            want = (want[0] % mod, want[1] % mod)
        assert A.lucas_ladder(m, p, q, mod) == want

    check()
    with pytest.raises(A.DomainError):
        A.lucas_ladder(-1, 1, 1)


# the strong Lucas pseudoprimes below 10^5 for Selfridge's parameters (OEIS A217255)
_STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                              58519, 75077, 97439)


def test_strong_lucas_selfridge_pseudoprimes():
    """Below 10^5 the strong Lucas test passes every odd prime and, of the
    odd composites, exactly the known strong Lucas pseudoprimes."""
    passed = [n for n in range(3, 10**5, 2) if A._strong_lucas_selfridge(n)]
    assert passed == sorted(sieved_primes(10**5)[1:] + _STRONG_LUCAS_PSEUDOPRIMES)


def test_is_prime_matches_sympy_above_proven_bound():
    """Above the Miller-Rabin proven bound the strong Lucas test decides
    too: is_prime agrees with sympy on random odd numbers and primes there
    and on semiprimes with factors of 13 to 20 digits."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1801)
    bound = A._MR_PROVEN_BOUND
    odd = [rng.randrange(bound, 10**40) | 1 for _ in range(300)]
    primes = [sympy.nextprime(rng.randrange(bound, 10**40)) for _ in range(60)]
    factors = [sympy.nextprime(rng.randrange(10**12, 10**20)) for _ in range(40)]
    semiprimes = [p * q for p, q in zip(factors[::2], factors[1::2])]
    for n in odd + primes + semiprimes:
        assert A.is_prime(n) == sympy.isprime(n), n
    assert all(map(A.is_prime, primes))
    assert not any(map(A.is_prime, semiprimes))


def test_perfect_squares():
    assert A.is_perfect_square(588289) == 767
    assert A.is_perfect_square(0) == 0
    assert A.is_perfect_square(2041) is None
    assert A.is_perfect_square(-4) is None
    hits = {n for n in range(10**6) if A.is_perfect_square(n) is not None}
    assert hits == {k * k for k in range(1000)}


def test_prime_power_root():
    assert A.prime_power_root(2048, 11) == 2
    assert A.prime_power_root(2048, 10) is None
    assert A.prime_power_root(177147, 11) == 3
    assert A.prime_power_root(6**4, 4) is None  # 6 is not prime
    assert A.prime_power_root(1, 3) is None


def test_integer_nth_root():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 10**30)
        e = rng.randint(1, 9)
        r = A.integer_nth_root(n, e)
        assert r**e <= n < (r + 1) ** e
    # exponents about the bit length, where the root drops to 1
    for n in (1, 2, 3, 7, 8, 9, 2**64 - 1, 2**64, 3**42):
        for e in range(max(1, n.bit_length() - 3), n.bit_length() + 3):
            r = A.integer_nth_root(n, e)
            assert r**e <= n < (r + 1) ** e, (n, e)
    assert A.integer_nth_root(3**42, 10**18) == 1   # never forms 2^(10^18)


def test_integer_roots_constructed():
    rng = random.Random(11)
    for _ in range(400):
        roots = [rng.randint(-40, 40) for _ in range(rng.randint(1, 5))]
        coeffs = [1]
        for r in roots:
            coeffs = [0] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        got = integer_roots(coeffs, -100, 100)
        assert got == sorted(set(roots))


def test_integer_roots_no_rational():
    assert integer_roots([2, 0, 1], -10, 10) == []
    assert integer_roots([-2, 0, 1], -10, 10) == []  # sqrt 2 not integer
    assert integer_roots([-4, 0, 1], -2, 1) == [-2]


def _settled(interval, qmax):
    """The convergents continued_fraction_convergents fixes from
    interval(w) = (lo, hi, den), an enclosure [lo/den, hi/den] of width
    about 2^-w, doubling w from 16."""
    for w in (16, 32, 64, 128, 256, 512):
        got = A.continued_fraction_convergents(*interval(w), qmax)
        if got is not None:
            return got
    raise AssertionError("never settled")


def _sqrt_interval(n, scale=1, offset=0):
    """w -> (lo, hi, den), an interval [lo/den, hi/den] of width 2^-w / scale
    holding (offset + sqrt(n)) / scale."""
    def at(w):
        r = math.isqrt(n << 2 * w)
        return (offset << w) + r, (offset << w) + r + 1, scale << w
    return at


def test_convergents_sqrt3():
    want = [(1, 1), (2, 1), (5, 3), (7, 4), (19, 11), (26, 15)]
    assert _settled(_sqrt_interval(3), 15) == want
    assert exact_convergents(sqrt_algebraic(3), 15) == want


def test_convergents_golden_ratio():
    want = [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5)]
    assert _settled(_sqrt_interval(5, scale=2, offset=1), 5) == want
    phi = RealAlgebraic((-1, -1, 1), Fraction(1), Fraction(2))
    assert exact_convergents(phi, 5) == want


def test_convergents_of_fraction():
    # 355/113 = [3; 7, 16]: every irrational just above it is [3; 7, 16, a, ...]
    # with a large, but the last shared quotient 16 is dropped, so only 3/1
    # and 22/7 are fixed, and only up to qmax = 6 is the list complete
    # [355/113, 355/113 + 10^-9] over the common denominator 113 * 10^9
    lo, hi, den = 355 * 10**9, 355 * 10**9 + 113, 113 * 10**9
    assert A.continued_fraction_convergents(lo, hi, den, 6) == [(3, 1)]
    assert A.continued_fraction_convergents(lo, hi, den, 100) is None
    assert exact_convergents(Fraction(355, 113), 1000) == [(3, 1), (22, 7), (355, 113)]
    assert exact_convergents(Fraction(355, 113), 100) == [(3, 1), (22, 7)]


def test_convergents_qmax_one():
    assert _settled(_sqrt_interval(3), 1) == [(1, 1), (2, 1)]
    assert exact_convergents(sqrt_algebraic(3), 1) == [(1, 1), (2, 1)]
    with pytest.raises(A.DomainError):
        A.continued_fraction_convergents(1, 2, 1, 0)


def test_convergents_reject_rational():
    # no interval around 2 ever fixes convergents, however narrow
    for w in range(4, 400, 12):
        # [2 - 2^-w, 2 + 2^-w]
        two = 2 << w
        assert A.continued_fraction_convergents(two - 1, two + 1, 1 << w, 100) is None
    # the exact-sign oracle finds the root 2 of t^2 - 4 inside (1.8, 2.3)
    x = RealAlgebraic((-4, 0, 1), Fraction(18, 10), Fraction(23, 10))
    with pytest.raises(RationalNumberError):
        exact_convergents(x, 100)


def test_convergent_quality_invariant():
    # |x - p/q| < 1/q^2, and the library and the exact-sign oracle agree
    for n in (2, 3, 7, 61):
        convs = _settled(_sqrt_interval(n), 10**4)
        assert convs == exact_convergents(sqrt_algebraic(n), 10**4)
        target = math.sqrt(n)
        for p, q in convs:
            assert abs(target - p / q) < 1 / q**2
        # denominators never decrease and reach past qmax coverage
        qs = [q for _, q in convs]
        assert qs == sorted(qs)


def test_convergents_negative_number():
    # -sqrt(2): the interval [-(r + 1), -r] / 2^w
    def neg(w):
        lo, hi, den = _sqrt_interval(2)(w)
        return -hi, -lo, den

    convs = _settled(neg, 100)
    assert convs == exact_convergents(RealAlgebraic((-2, 0, 1), Fraction(-2), Fraction(-1)), 100)
    for p, q in convs:
        assert abs(-math.sqrt(2) - p / q) < 1 / q**2


def test_convergents_match_fraction_oracle():
    # the lockstep expansion on integers against full Fraction expansions,
    # over dyadic and other denominators, width 0, negative endpoints,
    # reversed ends and qmax = 1
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    dens = st.one_of(st.integers(0, 120).map(lambda w: 1 << w), st.integers(1, 10**30))
    qmaxes = st.one_of(st.just(1), st.integers(1, 100), st.integers(1, 10**20))

    @st.composite
    def intervals(draw):
        """(den, lo, width): anywhere, or within a unit or two of +-sqrt(n)."""
        den = draw(dens)
        if draw(st.booleans()):
            lo = draw(st.integers(-10**40, 10**40))
            return den, lo, draw(st.one_of(st.integers(-2, 2), st.integers(0, 10**12)))
        root = math.isqrt(draw(st.integers(2, 10**6)) * den * den)
        lo = draw(st.sampled_from((root, -root - 1))) - draw(st.integers(0, 1))
        return den, lo, draw(st.integers(0, 2))

    @hypothesis.settings(max_examples=1000, deadline=None)
    @hypothesis.given(intervals(), qmaxes)
    @hypothesis.example((1, 3, 0), 1)
    @hypothesis.example((1 << 64, -(math.isqrt(2 << 128)) - 1, 1), 1)
    @hypothesis.example((1 << 64, -(math.isqrt(2 << 128)) - 1, 1), 10**6)
    @hypothesis.example((113, 355, 0), 1000)
    def check(interval, qmax):
        den, lo, width = interval
        want = fraction_convergents(Fraction(lo, den), Fraction(lo + width, den), qmax)
        assert A.continued_fraction_convergents(lo, lo + width, den, qmax) == want

    check()


def test_convergents_reject_bad_denominator():
    with pytest.raises(A.DomainError):
        A.continued_fraction_convergents(1, 2, 0, 10)


def test_primes_up_to_matches_trial_division():
    for n in (0, 1, 2, 3, 4, 97, 100, 2048):
        got = A.primes_up_to(n)
        assert isinstance(got, tuple)
        assert got == tuple(p for p in range(n + 1) if is_prime_by_trial(p))


def test_real_algebraic_signs_go_through_sign():
    # the exact-sign oracle: a subclass that overrides sign() sees every
    # sign of the isolation check and of the bisection
    seen = []

    class Counted(RealAlgebraic):
        def sign(self, x):
            seen.append(x)
            return super().sign(x)

    x = Counted((-2, 0, 1), Fraction(1), Fraction(2))
    assert seen == [1, 2]
    convs = exact_convergents(x, 10**6)
    assert len(seen) > 2
    assert convs == exact_convergents(sqrt_algebraic(2), 10**6)
    assert RealAlgebraic((-2, 0, 1), Fraction(1), Fraction(2)).sign(Fraction(3, 2)) == 1


def test_sign_at_matches_oracle():
    rng = random.Random(11)
    for _ in range(300):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 8))]
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert A.sign_at(coeffs, x) == exact_sign(coeffs, x), (coeffs, x)
    assert A.sign_at((-4, 0, 1), Fraction(2)) == 0


def test_sign_at_integer_point():
    """An int x is read as x/1, so sign_at needs no Fraction at an
    integer point: it gives the sign of the plain integer sum."""
    rng = random.Random(12)
    for _ in range(300):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 8))]
        x = rng.randint(-10**6, 10**6)
        value = sum(c * x**i for i, c in enumerate(coeffs))
        assert A.sign_at(coeffs, x) == (value > 0) - (value < 0), (coeffs, x)
        assert A.sign_at(coeffs, x) == A.sign_at(coeffs, Fraction(x))
    assert A.sign_at((-4, 0, 1), 2) == A.sign_at((-4, 0, 1), -2) == 0
    assert A.sign_at((-4, 0, 1), -3) == 1 and A.sign_at((-4, 0, 1), 1) == -1
