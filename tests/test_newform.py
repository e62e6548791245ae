import json
import math
import random
import tracemalloc

import pytest

from oracles import tau_series
from tauhunt import newform as N
from tauhunt.arith import DomainError, factor, primes_up_to


def sigma_sieve(bound, nu):
    out = [0] * (bound + 1)
    for d in range(1, bound + 1):
        step = d**nu
        for k in range(d, bound + 1, d):
            out[k] += step
    return out


def test_delta_leading_coefficients():
    assert N.delta_expansion(5) == (1, -24, 252, -1472, 4830)
    assert N.delta_expansion(1) == (1,)


def naive_square(a, bound):
    """O(n^2) truncated square of the series sum a_i q^i."""
    n = min(len(a), bound)
    out = [0] * min(2 * n - 1, bound)
    for i in range(n):
        for j in range(min(n, len(out) - i)):
            out[i + j] += a[i] * a[j]
    return out


def slot_square(a, bound):
    """The truncated square of a by the slot steps of the tau expansion:
    slot text, one Decimal squaring at the width of 2 n max|c|^2 read from
    the extreme slots, the product's slots read back."""
    n = min(len(a), bound)
    return N._ints(N._square(N._slots(a[:n]), n, bound), min(2 * n - 1, bound))


def test_square_truncated_matches_naive():
    rng = random.Random(7)
    for n in (1, 2, 5, 40):
        a = [rng.randint(-99, 99) for _ in range(n)]
        ref = [0] * n
        for i in range(n):
            for j in range(n - i):
                ref[i + j] += a[i] * a[j]
        assert slot_square(a, n) == ref


def test_square_truncated_matches_naive_convolution():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    big = 1 << 200

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(st.integers(-big, big), min_size=1, max_size=80),
                      st.integers(1, 170))
    def agrees(a, bound):
        assert slot_square(a, bound) == naive_square(a, bound)

    agrees()


@pytest.mark.parametrize("a", [
    [0],
    [5, 0, 0, 0],
    [-7, 3, 0, 0, 0],
    [1, -1, 0],
    [10**40, -1, 0, 0, 0, 0],
    [0, 0, 2**200, 0, 0, 0, 0],
])
def test_square_truncated_zero_top_slots(a):
    # the product's top slots are zero, so its low digits read short
    # until the slot offsets are added
    for bound in range(1, 2 * len(a) + 1):
        assert slot_square(a, bound) == naive_square(a, bound)


@pytest.mark.parametrize("n,mx", [(1, 1), (9, 9), (50, 99999), (80, 2**200)])
def test_square_truncated_all_negative_max(n, mx):
    # c_(n-1) of the square is n mx^2, the bound the slot width is chosen
    # for, and sum c^2, where Cauchy-Schwarz is tight
    for a in ([-mx] * n, [mx] * n):
        got = slot_square(a, 2 * n)
        assert got == naive_square(a, 2 * n)
        assert got[n - 1] == n * mx * mx == sum(c * c for c in a)


@pytest.mark.parametrize("a", [[3, -7, 2], [-1], [0, 4, -4], [-(10**30), 10**30 - 1],
                               [450, 449], [-450, -449]])
def test_extreme_slot_is_negative(a):
    # fixed-width slots sort as the numbers they hold, so the extreme of a
    # series whose largest |c| is negative is its smallest slot; [450, 449]
    # has only slots that begin with 9
    text = N._slots(a)
    assert N._extreme(text, len(text) // len(a)) == max(map(abs, a))
    assert slot_square(a, len(a)) == naive_square(a, len(a))


@pytest.mark.parametrize("a,bound", [([0, 9], 2), ([0, 0, -(10**20)], 3), ([1, -1, 0, 0], 4),
                                     ([7], 1), ([1, 1, 10**6], 2)])
def test_square_of_square_in_slot_text(a, bound):
    # the expansion squares the product's slot text again; when the square's
    # coefficients are shorter than the slots they arrive in, as for
    # [1, 1, 10^6] whose square truncated to 2 terms is [1, 2] in slots
    # sized for 10^12, the slots keep their width
    once = min(2 * len(a) - 1, bound)
    text = N._square(N._square(N._slots(a), len(a), bound), once, bound)
    assert N._ints(text, min(2 * once - 1, bound)) == naive_square(naive_square(a, bound), bound)


@pytest.mark.parametrize("bound", [1, 2, 4095, 4096, 4097, 8193])
def test_tau_list_at_block_edges(bound, monkeypatch):
    # _BLOCK = 4096 slots per joined piece; each bound is expanded afresh
    monkeypatch.setattr(N, "_DELTA_CACHE", [])
    assert N._tau_list(bound) == list(tau_series(bound))


def test_tau_multiplicative_samples():
    q = N.delta_expansion(2000)
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randint(2, 60)
        b = rng.randint(2, 33)
        if math.gcd(a, b) == 1 and a * b <= 2000:
            assert q[a * b - 1] == q[a - 1] * q[b - 1]


def test_tau_against_niebur_formula():
    # independent O(n^2) identity: n^4 sigma(n) - 24 sum i^2 (35i^2-52in+18n^2) s(i) s(n-i)
    bound = 120
    s = sigma_sieve(bound, 1)
    q = N.delta_expansion(bound)
    for n in range(1, bound + 1):
        total = sum(
            i * i * (35 * i * i - 52 * i * n + 18 * n * n) * s[i] * s[n - i]
            for i in range(1, n)
        )
        assert q[n - 1] == n**4 * s[n] - 24 * total


def test_hecke_recursion_consistency():
    spec = N.delta_newform(50)
    q = N.delta_expansion(10000)
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        for m in range(0, 7):
            if p**m <= 10000:
                assert N.coeff_prime_power(spec, p, m) == q[p**m - 1]


def test_lehmer_prime_value():
    spec = N.delta_newform(300)
    assert N.coeff_prime_power(spec, 251, 2) == -80561663527802406257321747
    assert N.coeff_prime_power(spec, 2, 2) == -1472


def test_coeff_multiplicativity():
    spec = N.delta_newform(200)
    q = N.delta_expansion(5000)
    assert N.coeff(spec, 12) == -370944 == q[11]
    assert N.coeff(spec, 1) == 1
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(2, 5000)
        if all(p <= 200 for p, _ in factor(n)):
            assert N.coeff(spec, n) == q[n - 1]


def test_deligne_bound_on_series():
    q = N.delta_expansion(3000)
    for p in primes_up_to(3000):
        assert q[p - 1] ** 2 <= 4 * p**11


def test_congruence_suite_sample():
    bound = 3000
    q = N.delta_expansion(bound)
    s1 = sigma_sieve(bound, 1)
    s3 = sigma_sieve(bound, 3)
    s11 = sigma_sieve(bound, 11)
    for n in range(1, bound + 1):
        t = q[n - 1]
        assert (t - s11[n]) % 691 == 0
        assert (t - n * n * s1[n]) % 9 == 0
        assert (t - n * s1[n]) % 5 == 0
        assert (t - n * s3[n]) % 7 == 0


def sigma_mod_sieve(bound, nu, mod):
    out = [0] * (bound + 1)
    for d in range(1, bound + 1):
        step = pow(d, nu, mod)
        for k in range(d, bound + 1, d):
            out[k] += step
    return out


def test_congruences_to_100000():
    # blind check of the whole expansion, no Diophantine reduction involved
    bound = 100000
    q = N.delta_expansion(bound)
    s11 = sigma_mod_sieve(bound, 11, 691)
    s1 = sigma_mod_sieve(bound, 1, 45)
    s3 = sigma_mod_sieve(bound, 3, 7)
    for n in range(1, bound + 1):
        t = q[n - 1]
        assert (t - s11[n]) % 691 == 0
        assert (t - n * n * s1[n]) % 9 == 0
        assert (t - n * s1[n]) % 5 == 0
        assert (t - n * s3[n]) % 7 == 0
    assert q[63000] == -80561663527802406257321747  # tau(251^2)


def test_tau_bound_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="1000000"):
            N.delta_expansion(N.MAX_TAU_BOUND + 1)
        with pytest.raises(DomainError, match="1000000"):
            N.delta_newform(10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parity_delta():
    spec = N.delta_newform(100)
    assert spec.odd_eigenvalues == ()
    odd = [n for n, c in enumerate(N.delta_expansion(100), 1) if c % 2]
    assert odd == [1, 9, 25, 49, 81]


def test_parity_violation_reported():
    bad = N.NewformSpec(weight=4, level=1, ap={3: 5}, trivial_mod2=True)
    assert bad.odd_eigenvalues == (3,)


def test_bad_prime_coefficients():
    s = N.NewformSpec(weight=4, level=6, bad_signs={2: 1, 3: -1})
    assert N.coeff_prime_power(s, 2, 3) == 8       # (+1)^3 * 2^(k-1)*3
    assert N.coeff_prime_power(s, 3, 2) == 9
    assert N.coeff_prime_power(s, 3, 3) == -27
    s4 = N.NewformSpec(weight=4, level=4)
    assert N.coeff_prime_power(s4, 2, 5) == 0
    assert N.coeff_prime_power(s4, 2, 0) == 1


def test_insufficient_data_is_an_error():
    spec = N.NewformSpec(weight=4, level=1, ap={2: 2})
    with pytest.raises(DomainError, match="no a_f"):
        N.coeff_prime_power(spec, 3, 1)
    with pytest.raises(DomainError, match="no a_f"):
        N.coeff(spec, 15)


def test_eigenvalue_one_source():
    # Delta reads tau(p) past its stored primes, up to MAX_TAU_BOUND; any
    # other spec only its stored a_f(p)
    delta = N.delta_newform(100)
    ref = tau_series(1010)
    assert N.eigenvalue(delta, 97) == delta.ap[97] == ref[96]
    assert 1009 not in delta.ap and N.eigenvalue(delta, 1009) == ref[1008]
    assert N.coeff_prime_power(delta, 1009, 2) == ref[1008] ** 2 - 1009**11
    with pytest.raises(DomainError, match="no a_f\\(1000003\\) stored"):
        N.eigenvalue(delta, 1000003)
    # a weight-12, level-1 spec not named delta reads only its stored a_f(p)
    other = N.NewformSpec(weight=12, level=1, ap=dict(delta.ap), name="not-delta")
    with pytest.raises(DomainError, match="no a_f\\(101\\) stored"):
        N.eigenvalue(other, 101)
    assert N.delta_newform(100) is delta  # one spec per bound


def test_coeff_builds_tau_list_once(monkeypatch):
    # n's primes are read largest first, so three primes past the stored
    # ones build the tau list once: one expansion is two squarings
    spec, calls, square = N.delta_newform(1000), [], N._square
    monkeypatch.setattr(N, "_square", lambda *a: calls.append(a[1]) or square(*a))
    monkeypatch.setattr(N, "_DELTA_CACHE", [])
    primes = (1009, 10007, 99991)
    value = N.coeff(spec, math.prod(primes))
    assert calls == [99991] * 2
    ref = tau_series(99992)
    assert value == math.prod(ref[p - 1] for p in primes)


def test_spec_validation():
    with pytest.raises(DomainError):
        N.NewformSpec(weight=3, level=1)
    with pytest.raises(DomainError):
        N.NewformSpec(weight=4, level=1, ap={4: 2})
    with pytest.raises(DomainError):
        N.NewformSpec(weight=4, level=1, ap={2: 7})  # Deligne: 49 > 32
    with pytest.raises(DomainError):
        N.NewformSpec(weight=4, level=4, bad_signs={2: 1})  # 4 | N
    with pytest.raises(DomainError):
        N.NewformSpec(weight=4, level=2, bad_signs={2: 2})


def test_json_roundtrip():
    spec = N.NewformSpec(weight=6, level=5, ap={2: -8, 3: 6}, bad_signs={5: 1},
                         trivial_mod2=True, name="toy")
    text = json.dumps({"weight": 6, "level": 5, "ap": {"2": -8, "3": 6},
                       "bad_signs": {"5": 1}, "trivial_mod2": True, "name": "toy"})
    assert N.NewformSpec.from_json(text) == spec
    parsed = N.NewformSpec.from_json(
        '{"weight": 4, "level": 5, "ap": {"2": -3}, "bad_signs": {"5": -1}, "trivial_mod2": true}'
    )
    assert parsed.ap == {2: -3} and parsed.bad_signs == {5: -1}


@pytest.mark.parametrize("text, message", [
    ('{"weight": 4, "level": 1', "not readable JSON"),
    ("[" * 100000, "not readable JSON"),
    (b'{"weight": 4, "level": 1, "name": "\xff"}', "not readable JSON"),
    ('{"level": 1}', "no weight"),
    ('{"weight": 4}', "no level"),
    ('[{"weight": 4, "level": 1}]', "must be a JSON object"),
    ('{"weight": 4, "level": 1, "ap": {"x": 2}}', 'ap key "x" is not a decimal integer'),
    ('{"weight": 4, "level": 1, "ap": {"-3": 2}}', "not a decimal integer"),
    ('{"weight": 4, "level": 1, "ap": {"\\u0663": 2}}', "not a decimal integer"),
    ('{"weight": 4, "level": 1, "ap": {"%s": 2}}' % ("7" * 5000), "too many digits"),
    ('{"weight": 4, "level": 1, "ap": [1]}', "ap must be a JSON object"),
    ('{"weight": 4, "level": 1, "ap": {"3": 2.9}}', "ap[3] must be a JSON integer, not 2.9"),
    ('{"weight": 4, "level": 1, "ap": {"3": true}}', "ap[3] must be a JSON integer"),
    ('{"weight": 4, "level": 5, "bad_signs": {"5": "1"}}', "bad_signs[5] must be a JSON integer"),
    ('{"weight": 4, "level": 5, "bad_signs": {"0": 1}}', "must be a prime exactly dividing"),
    ('{"weight": 4.0, "level": 1}', "weight must be a JSON integer"),
    ('{"weight": true, "level": 1}', "weight must be a JSON integer"),
    ('{"weight": 4, "level": "1"}', "level must be a JSON integer"),
    ('{"weight": 4, "level": true}', "level must be a JSON integer"),
    ('{"weight": 4, "level": 1, "trivial_mod2": "false"}', 'trivial_mod2 must be true or false'),
    ('{"weight": 4, "level": 1, "trivial_mod2": 0}', "trivial_mod2 must be true or false"),
    ('{"weight": 4, "level": 1, "name": 7}', "name must be a string"),
])
def test_from_json_refuses_what_it_cannot_read(text, message):
    """Only JSON integers (not bools) are numbers, only a JSON bool is the
    flag: anything else is a DomainError, never a coercion or a crash."""
    with pytest.raises(DomainError, match=message.replace("[", r"\[").replace(".", r"\.")):
        N.NewformSpec.from_json(text)


def test_from_json_reads_bytes_and_defaults():
    spec = N.NewformSpec.from_json('{"weight": 4, "level": 1}'.encode("utf-16"))
    assert spec == N.NewformSpec(weight=4, level=1)
    assert not spec.trivial_mod2 and spec.name == ""


def test_huge_weight_builds_no_huge_power():
    # the Deligne check compares bit lengths before it builds p^(w-1), and
    # a_f(p^m), m >= 2, is refused once p^(w-1) passes the digit limit
    spec = N.NewformSpec.from_json('{"weight": 1000000000000000000, "level": 1, '
                                   '"ap": {"2": 0, "3": 2}, "bad_signs": {}}')
    assert N.coeff(spec, 6) == 0 and N.coeff(spec, 3) == 2
    with pytest.raises(DomainError, match="2\\^999999999999999999 has more than"):
        N.coeff(spec, 4)
    assert N.NewformSpec(weight=10**6, level=1, ap={2: 2**3000}).ap[2] == 2**3000
    # at the edge of the bit-length test: 4 * 2^1999 = 2^2001, and the a
    # just past its square root has a 2002-bit square
    edge = math.isqrt(2**2001)
    N.NewformSpec(weight=2000, level=1, ap={2: edge})
    with pytest.raises(DomainError, match="violates the Deligne bound"):
        N.NewformSpec(weight=2000, level=1, ap={2: edge + 1})
    level = N.NewformSpec(weight=10**6, level=3, bad_signs={3: -1})
    with pytest.raises(DomainError, match="3\\^499999 has more than"):
        N.coeff(level, 3)
    # just under the limit both sides are still exact
    w = 4 + 2 * int(4000 / math.log10(3) / 2)
    assert N.NewformSpec(weight=w, level=1, ap={3: 3**((w - 2) // 2)}).norm(3) == 3**(w - 1)
