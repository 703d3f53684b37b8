"""Field arithmetic, primitive elements, and certificate search.

Fixed expected values below were computed independently (order checks by
brute multiplication, irreducibility by root/factor scans) and frozen.
"""

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import planegraphs
from planegraphs import gf
from planegraphs.gf import (
    ConjectureViolation,
    DegenerateAlpha,
    FieldSpec,
    _is_irreducible,
    _is_square,
    certificate_line,
    consecutive_primitive_pair,
    element_order,
    factorize,
    field_for,
    first_primitive,
    gamma_map,
    gamma_prime_map,
    hypothesis_j_search,
    is_prime,
    is_primitive,
    make_field,
    prime_power,
    prime_powers_in,
    primitive_iter,
)


# frozen: first irreducible monic by increasing encoding of the low coefficients
FROZEN_MODULI = {
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    49: (1, 0, 1),
}


@pytest.mark.parametrize("q,coeffs", sorted(FROZEN_MODULI.items()))
def test_modulus_choice(q, coeffs):
    spec = make_field(*prime_power(q))
    assert spec.modulus == coeffs


# frozen: sha256 of "q:modulus" lines, one for each of the 242 composite
# prime powers up to MAX_ORDER, each field built afresh
FROZEN_MODULI_DIGEST = "bd7e930ad1bc2371b3c6c4bce330fb5eb28d882226223715ef80758a3ba26f95"


def test_every_composite_modulus_frozen():
    primes = [p for p in range(2, isqrt(gf.MAX_ORDER) + 1) if is_prime(p)]
    orders = sorted(p**a for p in primes for a in range(2, 21) if p**a <= gf.MAX_ORDER)
    assert len(orders) == 242
    h = hashlib.sha256()
    for q in orders:
        h.update(f"{q}:{make_field.__wrapped__(*prime_power(q)).modulus}\n".encode())
    assert h.hexdigest() == FROZEN_MODULI_DIGEST


# frozen: encoding of the first primitive element of each composite order
FROZEN_FIRST_PRIMITIVE = {
    4: 2, 8: 2, 9: 4, 16: 2, 25: 6, 27: 3, 32: 2, 49: 9, 64: 2, 81: 3,
    121: 15, 125: 9, 128: 2, 243: 3, 256: 3, 512: 7, 729: 3,
}


@pytest.mark.parametrize("q,enc", sorted(FROZEN_FIRST_PRIMITIVE.items()))
def test_first_primitive_frozen(q, enc):
    assert first_primitive(make_field(*prime_power(q))) == enc


# frozen: the certificate row of every composite prime power up to 1024
FROZEN_COMPOSITE_CERTIFICATES = """\
{"q":4,"route":"EVEN_GOLOMB","alpha":2,"gamma":3,"ord":3}
{"q":8,"route":"EVEN_GOLOMB","alpha":2,"gamma":2,"ord":7}
{"q":9,"route":"ODD_GAMMA","alpha":4,"gamma":8,"ord":8}
{"q":16,"route":"EVEN_GOLOMB","alpha":2,"gamma":11,"ord":15}
{"q":25,"route":"ODD_GAMMA","alpha":9,"gamma":18,"ord":24}
{"q":27,"route":"ODD_GAMMA","alpha":10,"gamma":10,"ord":26}
{"q":32,"route":"EVEN_GOLOMB","alpha":2,"gamma":23,"ord":31}
{"q":49,"route":"ODD_GAMMA","alpha":9,"gamma":29,"ord":48}
{"q":64,"route":"EVEN_GOLOMB","alpha":32,"gamma":4,"ord":63}
{"q":81,"route":"ODD_GAMMA","alpha":3,"gamma":46,"ord":80}
{"q":121,"route":"ODD_GAMMA","alpha":18,"gamma":27,"ord":120}
{"q":125,"route":"ODD_GAMMA","alpha":9,"gamma":97,"ord":124}
{"q":128,"route":"EVEN_GOLOMB","alpha":2,"gamma":42,"ord":127}
{"q":169,"route":"ODD_GAMMA","alpha":15,"gamma":75,"ord":168}
{"q":243,"route":"ODD_GAMMA","alpha":26,"gamma":158,"ord":242}
{"q":256,"route":"EVEN_GOLOMB","alpha":18,"gamma":238,"ord":255}
{"q":289,"route":"ODD_GAMMA","alpha":19,"gamma":28,"ord":288}
{"q":343,"route":"ODD_GAMMA","alpha":25,"gamma":274,"ord":342}
{"q":361,"route":"ODD_GAMMA","alpha":22,"gamma":97,"ord":360}
{"q":512,"route":"EVEN_GOLOMB","alpha":18,"gamma":73,"ord":511}
{"q":529,"route":"ODD_GAMMA","alpha":34,"gamma":403,"ord":528}
{"q":625,"route":"ODD_GAMMA","alpha":31,"gamma":316,"ord":624}
{"q":729,"route":"ODD_GAMMA","alpha":3,"gamma":68,"ord":728}
{"q":841,"route":"ODD_GAMMA","alpha":32,"gamma":270,"ord":840}
{"q":961,"route":"ODD_GAMMA","alpha":35,"gamma":523,"ord":960}
{"q":1024,"route":"EVEN_GOLOMB","alpha":22,"gamma":356,"ord":1023}
"""


def test_composite_certificate_lines_frozen():
    composite = [q for q in prime_powers_in(4, 1024) if prime_power(q)[1] > 1]
    got = "".join(certificate_line(q, hypothesis_j_search(q)) + "\n" for q in composite)
    assert got == FROZEN_COMPOSITE_CERTIFICATES


def test_prime_power_parsing():
    assert prime_power(7) == (7, 1)
    assert prime_power(8) == (2, 3)
    assert prime_power(49) == (7, 2)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert prime_power(100) is None  # 2^2 * 5^2


def test_prime_power_counts():
    assert len(prime_powers_in(3, 100)) == 34
    assert len(prime_powers_in(4, 10000)) == 1278
    assert len(prime_powers_in(3, 10000)) == 1279
    assert prime_powers_in(14, 15) == []


def test_prime_power_agrees_with_factorize():
    for n in range(-2, 5000):
        fac = factorize(n) if n >= 2 else {}
        assert prime_power(n) == (next(iter(fac.items())) if len(fac) == 1 else None), n


_PRIME_POWERS_TO_300 = [n for n in range(-2, 301) if prime_power(n) is not None]


def test_prime_powers_in_small_windows():
    for lo in range(-2, 61):
        for hi in range(-2, 301):
            want = [n for n in _PRIME_POWERS_TO_300 if lo <= n <= hi]
            assert prime_powers_in(lo, hi) == want, (lo, hi)


def test_prime_powers_in_random_windows():
    rng = random.Random(20)
    for _ in range(300):
        lo = rng.randrange(-2, 1 << 20)
        hi = min(lo + rng.randrange(-5, 200), (1 << 20) - 1)
        want = [n for n in range(lo, hi + 1) if prime_power(n) is not None]
        assert prime_powers_in(lo, hi) == want, (lo, hi)


@functools.lru_cache(maxsize=None)
def _row(q):
    # shared, so the composite orders of both sweeps below are searched once
    return certificate_line(q, hypothesis_j_search(q))


def _rows_digest(qs):
    rows = "".join(_row(q) + "\n" for q in qs)
    return hashlib.sha256(rows.encode()).hexdigest()[:16]


def test_certificate_rows_frozen_to_2_16():
    qs = prime_powers_in(3, 1 << 16)
    assert len(qs) == 6634
    assert _rows_digest(qs) == "eca0910738ef060c"


def test_composite_certificate_rows_frozen_to_2_18():
    qs = [q for q in prime_powers_in(3, 1 << 18) if prime_power(q)[1] > 1]
    assert len(qs) == 150
    assert _rows_digest(qs) == "1e7003fd96e40c0c"


def test_certificate_rows_frozen_from_2_16_to_2_18():
    qs = prime_powers_in(65537, 1 << 18)
    assert len(qs) == 16515
    assert _rows_digest(qs) == "2f12f38d5387529d"


def test_certificate_rows_frozen_below_2_20():
    # the top of the supported range, where every p is 18 to 20 bits long
    qs = prime_powers_in((1 << 20) - (1 << 16), 1 << 20)
    assert len(qs) == 4753
    assert _rows_digest(qs) == "eac44019ba29dc0e"


def test_cubic_extensions_frozen():
    # GF(q^3) for q <= 101: the modulus and first primitive a Singer set starts from
    rows = []
    for q in prime_powers_in(2, 101):
        p, a = prime_power(q)
        big = make_field(p, 3 * a)
        rows.append(json.dumps([q, list(big.modulus), first_primitive(big)], separators=(",", ":")))
    assert len(rows) == 36
    assert rows[:2] == ["[2,[1,1,0,1],2]", "[3,[1,2,0,1],3]"]
    assert rows[-1] == "[101,[1,1,0,1],104]"
    digest = hashlib.sha256("".join(r + "\n" for r in rows).encode()).hexdigest()[:16]
    assert digest == "37e43c68b792c441"


def test_first_primitive_skips_the_prime_field(monkeypatch):
    # encodings below p are GF(p), whose orders divide p - 1
    tested = []
    real = gf.is_primitive
    monkeypatch.setattr(gf, "is_primitive", lambda spec, x: tested.append(x) or real(spec, x))
    for q in (4, 8, 9, 25, 27, 49, 121, 125, 729, 101 ** 3):
        spec = field_for(q)
        tested.clear()
        first_primitive(spec)
        assert tested and min(tested) >= spec.p, q


def test_search_factorises_q_minus_one_once(monkeypatch):
    # q - 1 is factorised once per field, when make_field builds it; for a
    # composite order the table build and the search read spec.factors, and
    # a prime order's search factorises q - 1 once and builds no field
    seen = []
    real = gf.factorize
    monkeypatch.setattr(gf, "factorize", lambda n: seen.append(n) or real(n))
    for q in (3, 5, 7, 11, 9, 27, 64, 81, 121, 128, 1024, 65537, 1048573):
        p, a = prime_power(q)
        seen.clear()
        spec = make_field.__wrapped__(p, a)  # a fresh spec; the cache is left alone
        assert seen.count(q - 1) == 1, (q, seen)
        assert spec.factors == tuple(real(q - 1))
        if a == 1:
            continue
        field_for(q)  # the cached spec the search reads, built before counting
        seen.clear()
        # a composite field builds its tables once, at its q-th operation,
        # and looks its first_primitive up for them
        while spec.a > 1 and spec._tables is None:
            spec.emul(1, 1)
        hypothesis_j_search(q)
        assert q - 1 not in seen, (q, seen)
    built, real_make = [], gf.make_field
    monkeypatch.setattr(gf, "make_field", lambda *a: built.append(a) or real_make(*a))
    for q in (3, 5, 7, 11, 65537, 1048573):
        seen.clear()
        hypothesis_j_search(q)
        assert (seen, built) == ([q - 1], []), q


def _python(code):
    path = os.pathsep.join(filter(None, [str(Path(planegraphs.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("n", [10**18 + 9, 10**18 + 3])
def test_huge_prime_power_refused_at_once(n):
    # both are prime: the bound is compared first, no trial division runs
    proc = _python(
        "from planegraphs.gf import prime_power\n"
        f"try: prime_power({n})\n"
        "except ValueError as e: print(e)\n"
    )
    assert proc.returncode == 0 and "exceeds supported bound" in proc.stdout


def test_new_field_is_one_cache_miss():
    # a traced benchmark pass counts fields built as make_field's cache misses
    proc = _python(
        "from planegraphs.gf import field_for, hypothesis_j_search, make_field, prime_powers_in\n"
        "qs = prime_powers_in(3, 2000)\n"
        "m0 = make_field.cache_info().misses\n"
        "for q in qs: hypothesis_j_search(q); field_for(q)\n"
        "m1 = make_field.cache_info().misses\n"
        "for q in qs: hypothesis_j_search(q)\n"
        "print(len(qs), m1 - m0, make_field.cache_info().misses - m1)\n"
    )
    assert proc.returncode == 0, proc.stderr
    n, built, again = map(int, proc.stdout.split())
    assert (built, again) == (n, 0) and n == 332


def test_make_field_refuses_huge_order_at_once():
    # neither a huge prime is trial-divided nor a huge power formed
    proc = _python(
        "from planegraphs.gf import make_field\n"
        "for args in ((10**18 + 9,), (10**18 + 9, 2), (2, 10**12)):\n"
        "    try:\n"
        "        make_field(*args)\n"
        "    except ValueError as e:\n"
        "        print(e)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "field order 1000000000000000009 exceeds supported bound 1048576",
        "field order 1000000000000000009^2 exceeds supported bound 1048576",
        "field order 2^1000000000000 exceeds supported bound 1048576",
    ]


@pytest.mark.parametrize("n", [10**18 + 9, gf.MAX_ORDER + 1])
def test_primality_refuses_a_huge_n_at_once(n):
    # 10^18 + 9 is prime, and 2^20 + 1 = 17 * 61,681: neither is divided or
    # sieved, since the package builds no field above MAX_ORDER
    proc = _python(
        "from planegraphs.gf import factorize, is_prime, prime_powers_in\n"
        "for f in (is_prime, factorize, lambda n: prime_powers_in(2, n)):\n"
        "    try:\n"
        f"        f({n})\n"
        "    except ValueError as e:\n"
        "        print(e)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{n} exceeds supported bound 1048576\n" * 3


def test_is_prime_refuses_strong_pseudoprimes():
    # strong pseudoprimes to base 2 and Carmichael numbers below the bound;
    # the least strong pseudoprime to bases 2 and 3, 1,373,653, lies above it
    for n in (2047, 3277, 4033, 4681, 8321, 561, 1105, 1729, 2821, 1_024_651):
        assert not is_prime(n), n
    assert 1_024_651 == 19 * 199 * 271


def _primes_by_trial_division(lo, hi):
    small = [p for p in range(2, isqrt(hi) + 1) if all(p % f for f in range(2, isqrt(p) + 1))]
    return [n for n in range(lo, hi) if all(n % p for p in small)]


def test_is_prime_agrees_with_trial_division_at_the_bound():
    lo, hi = gf.MAX_ORDER - 3000, gf.MAX_ORDER + 1
    assert [n for n in range(lo, hi) if is_prime(n)] == _primes_by_trial_division(lo, hi)


def test_is_prime_agrees_with_a_sieve():
    # every n the package can ask about, against a sieve of its own
    n = gf.MAX_ORDER + 1
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]


def test_is_prime_with_many_factors_of_two():
    # n - 1 = d * 2^s with s = 16 and s = 18
    assert 65_537 == 2**16 + 1 and 786_433 == 3 * 2**18 + 1
    assert is_prime(65_537) and is_prime(786_433)
    assert not is_prime(65_537 * 15) and not is_prime(786_433 + 2)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_element_orders_gf5():
    spec = make_field(5)
    orders = {e: element_order(spec, e) for e in range(1, 5)}
    assert orders == {1: 1, 2: 4, 3: 4, 4: 2}
    assert list(primitive_iter(spec)) == [2, 3]


def test_first_primitive_is_primitive():
    for q in (4, 5, 7, 8, 9, 13, 16, 25, 27, 49):
        spec = make_field(*prime_power(q))
        a = first_primitive(spec)
        assert is_primitive(spec, a)
        assert element_order(spec, a) == q - 1


def test_gamma_frozen_values():
    spec5 = make_field(5)
    assert gamma_map(spec5, 2) == 3
    spec7 = make_field(7)
    g = gamma_map(spec7, 3)
    assert g == 6 and not is_primitive(spec7, g)
    spec13 = make_field(13)
    assert is_primitive(spec13, 7)
    assert gamma_map(spec13, 7) == 1


@pytest.mark.parametrize("q", [7, 9])
def test_public_maps_refuse_out_of_range_encodings(q):
    # a prime spec refuses them too, though its field operations do not check
    spec = field_for(q)
    for x in (-1, q, q + 2):
        for fn in (element_order, is_primitive, gamma_map, gamma_prime_map):
            with pytest.raises(ValueError, match=rf"^encoding {x} out of range for GF\({q}\)$"):
                fn(spec, x)


def test_gamma_degenerate_inputs():
    spec = make_field(7)
    for e in (0, 1, 6):  # 0, 1, -1
        with pytest.raises(DegenerateAlpha):
            gamma_map(spec, e)


@pytest.mark.parametrize("q", [4, 9, 25, 27, 32, 49])
def test_gamma_maps_degenerate_at_the_same_encodings(q):
    # -1 is encoded p - 1 for every p^a; gamma is undefined at 0, 1 and -1,
    # gamma' at 0 and -1, and both are defined everywhere else
    spec = field_for(q)
    for e in range(q):
        if e in (0, 1, spec.p - 1):
            with pytest.raises(DegenerateAlpha):
                gamma_map(spec, e)
        else:
            gamma_map(spec, e)
        if e in (0, spec.p - 1):
            with pytest.raises(DegenerateAlpha):
                gamma_prime_map(spec, e)
        else:
            gamma_prime_map(spec, e)


def test_gamma_prime_frozen_values():
    spec7 = make_field(7)
    assert gamma_prime_map(spec7, 5) == 3
    spec4 = make_field(2, 2)
    assert gamma_prime_map(spec4, 2) == 3
    # order two collapses the formula; the map is pinned to one there
    spec2 = make_field(2)
    assert gamma_prime_map(spec2, 1) == 1


def test_gamma_prime_degenerate_inputs():
    spec = make_field(3, 2)
    with pytest.raises(DegenerateAlpha):
        gamma_prime_map(spec, 0)
    with pytest.raises(DegenerateAlpha):
        gamma_prime_map(spec, spec.eneg(1))
    with pytest.raises(DegenerateAlpha):
        gamma_prime_map(make_field(2), 0)


def test_consecutive_primitive_pair_even():
    for q, enc in ((4, 2), (8, 2)):
        spec = make_field(*prime_power(q))
        a = consecutive_primitive_pair(spec)
        assert a == enc
        assert is_primitive(spec, a) and is_primitive(spec, spec.eadd(a, 1))


def test_search_certificates():
    c5 = hypothesis_j_search(5)
    ord5 = json.loads(certificate_line(5, c5))["ord"]
    assert (c5.route, c5.alpha, c5.gamma, ord5) == ("ODD_GAMMA", 2, 3, 4)
    c7 = hypothesis_j_search(7)
    assert (c7.route, c7.alpha, c7.gamma) == ("ODD_GAMMA", 5, 3)
    c4 = hypothesis_j_search(4)
    assert (c4.route, c4.alpha) == ("EVEN_GOLOMB", 2)
    c8 = hypothesis_j_search(8)
    assert (c8.route, c8.alpha) == ("EVEN_GOLOMB", 2)
    assert hypothesis_j_search(3) is None


def test_search_rejects_bad_orders():
    with pytest.raises(ValueError):
        hypothesis_j_search(2)
    with pytest.raises(ValueError):
        hypothesis_j_search(6)


def test_certificate_lines_exact():
    line5 = certificate_line(5, hypothesis_j_search(5))
    assert line5 == '{"q":5,"route":"ODD_GAMMA","alpha":2,"gamma":3,"ord":4}'
    assert list(json.loads(line5)) == ["q", "route", "alpha", "gamma", "ord"]
    assert certificate_line(3, None) == '{"q":3,"route":"NOT_FOUND"}'
    # the row is the certificate's fields, key for key and in the same order
    for q in prime_powers_in(3, 2000):
        cert = hypothesis_j_search(q)
        want = ({"q": q, "route": cert.route, "alpha": cert.alpha, "gamma": cert.gamma,
                 "ord": q - 1} if cert else {"q": q, "route": "NOT_FOUND"})
        assert list(json.loads(certificate_line(q, cert)).items()) == list(want.items()), q


def test_certificates_exist_through_512():
    missing = [q for q in prime_powers_in(4, 512) if hypothesis_j_search(q) is None]
    assert missing == []


def test_prime_search_matches_the_definition():
    # the search on residues, with its square-class skips and the class of
    # alpha - 1 carried from step to step, against the definition on the
    # field: the first alpha by encoding that is primitive with gamma
    for p in filter(is_prime, range(3, 20000)):
        spec = field_for(p)
        want = next((a for a in range(2, p - 1) if is_primitive(spec, a)
                     and is_primitive(spec, gamma_map(spec, a))), None)
        cert = hypothesis_j_search(p)
        if want is None:
            assert cert is None and p == 3
        else:
            assert (cert.route, cert.alpha, cert.gamma) == ("ODD_GAMMA", want, gamma_map(spec, want)), p


def test_prime_search_builds_no_field():
    proc = _python(
        "from planegraphs.gf import hypothesis_j_search, is_prime, make_field\n"
        "qs = [q for q in range(100000, 101001) if is_prime(q)]\n"
        "m0 = make_field.cache_info().misses\n"
        "certs = [hypothesis_j_search(q) for q in qs]\n"
        "print(len(qs), sum(c is not None for c in certs), make_field.cache_info().misses - m0)\n"
    )
    assert proc.returncode == 0, proc.stderr
    n, found, built = map(int, proc.stdout.split())
    assert (found, built) == (n, 0) and n > 50


@pytest.mark.parametrize("q", [8, 9, 25, 512, 729])
def test_field_axioms_random(q):
    spec = make_field(*prime_power(q))

    @given(st.integers(0, q - 1), st.integers(0, q - 1), st.integers(0, q - 1))
    def inner(x, y, z):
        add, mul = spec.eadd, spec.emul
        assert mul(add(x, y), z) == add(mul(x, z), mul(y, z))
        assert mul(x, mul(y, z)) == mul(mul(x, y), z)
        assert add(x, spec.eneg(x)) == 0
        if x:
            assert mul(x, spec.einv(x)) == 1
            assert spec.epow(x, q - 1) == 1
            assert spec.epow(x, -1) == spec.einv(x)

    inner()


@given(st.integers(2, 59))
def test_gamma_fixed_field_total(e):
    # gamma is defined everywhere outside its three poles
    spec = make_field(61)
    g = gamma_map(spec, e)
    mul = spec.emul
    denom = mul(mul(spec.esub(1, e), spec.eadd(1, e)), spec.eadd(1, e))
    assert mul(g, denom) == spec.eneg(e)


# ---------------------------------------------------------------------------
# every encoded-int operation against the polynomial helpers on decoded tuples

COMPOSITE_UP_TO_81 = [q for q in prime_powers_in(4, 81) if prime_power(q)[1] > 1]


def _fresh(q):
    """A new spec of GF(q): nothing it caches is shared with make_field's."""
    p, a = prime_power(q)
    spec = make_field(p, a)
    return FieldSpec(p, a, q, spec.modulus, spec.factors)


def _trim(t):
    n = len(t)
    while n and t[n - 1] == 0:
        n -= 1
    return t[:n]


def _pmod(p, s, m):
    # m need not be monic; reduce s modulo m
    s = list(s)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(s) - 1 >= dm and any(s):
        ds = len(s) - 1
        if s[ds] == 0:
            s.pop()
            continue
        c = (s[ds] * inv_lead) % p
        shift = ds - dm
        for i, b in enumerate(m):
            s[shift + i] = (s[shift + i] - c * b) % p
        s.pop()
    return _trim(tuple(s))


def _pmul(p, s, t):
    if not s or not t:
        return ()
    out = [0] * (len(s) + len(t) - 1)
    for i, a in enumerate(s):
        if a:
            for j, b in enumerate(t):
                out[i + j] = (out[i + j] + a * b) % p
    return _trim(tuple(out))


class _Reference:
    """GF(q) by coefficient tuples, with inverses found by brute force."""

    def __init__(self, q):
        self.spec = _fresh(q)  # decode and encode only
        self.p = self.spec.p

    def add(self, x, y, sign=1):
        s, t = self.spec.decode(x), self.spec.decode(y)
        return self.spec.encode(tuple((u + sign * v) % self.p for u, v in zip(s, t)))

    def mul(self, x, y):
        s, t = self.spec.decode(x), self.spec.decode(y)
        return self.spec.encode(_pmod(self.p, _pmul(self.p, s, t), self.spec.modulus))

    def inv(self, x):
        return next(y for y in range(1, self.spec.q) if self.mul(x, y) == 1)

    def powers(self, x, top):
        out = [1]
        for _ in range(top):
            out.append(self.mul(out[-1], x))
        return out

    def pow(self, x, e):
        r = 1
        for bit in bin(e)[2:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, x)
        return r


def _monic(p, deg):
    """Every monic polynomial of degree deg over GF(p), as a tuple."""
    for low in range(p**deg):
        yield tuple(low // p**i % p for i in range(deg)) + (1,)


def _xpow_mod(p, e, f):
    r, b = (1,), (0, 1)
    for bit in bin(e)[2:]:
        r = _pmod(p, _pmul(p, r, r), f)
        if bit == "1":
            r = _pmod(p, _pmul(p, r, b), f)
    return r


def test_rabin_test_agrees_with_factoring():
    # f is irreducible when no monic polynomial of degree <= a/2 divides it
    cases = [(2, a) for a in range(2, 7)] + [
        (3, 2), (3, 3), (3, 4), (3, 6), (5, 2), (5, 3), (7, 2), (11, 2)
    ]
    candidates = past_first_condition = rootless = 0
    for p, a in cases:
        divisors = [g for d in range(1, a // 2 + 1) for g in _monic(p, d)]
        for f in _monic(p, a):
            irreducible = all(_pmod(p, f, g) for g in divisors)
            assert _is_irreducible(FieldSpec(p, a, p**a, f, ())) == irreducible, (p, f)
            candidates += 1
            # reducible, yet x^(p^a) == x mod f: only the second condition refuses f
            if not irreducible and _xpow_mod(p, p**a, f) == (0, 1):
                past_first_condition += 1
                # and f has no root, so the root scan does not refuse it first,
                # as for the product of two distinct irreducible quadratics
                rootless += all(_pmod(p, f, (-c % p, 1)) for c in range(p))
    assert (candidates, past_first_condition, rootless) == (1290, 237, 33)


def test_square_classes_match_euler_for_small_primes():
    for p in filter(is_prime, range(3, 300)):
        for n in range(p):
            assert _is_square(n, p) == (pow(n, (p - 1) // 2, p) == 1), (p, n)


def test_square_classes_match_euler_below_2_20():
    rng = random.Random(20)
    primes = [p for p in range((1 << 20) - 1, 0, -2) if is_prime(p)][:3]
    for p in primes:
        for n in (rng.randrange(p) for _ in range(10_000)):
            assert _is_square(n, p) == (pow(n, (p - 1) // 2, p) == 1), (p, n)


def test_quadratic_moduli_irreducible_exactly_without_a_root():
    for p in filter(is_prime, range(2, 32)):
        for f0 in range(p):
            for f1 in range(p):
                rootless = all((r * r + f1 * r + f0) % p for r in range(p))
                spec = FieldSpec(p, 2, p * p, (f0, f1, 1), ())
                assert _is_irreducible(spec) == rootless, (p, f0, f1)


def _check_binary(q, xs, ys):
    ref = _Reference(q)
    cases = (
        ("eadd", lambda x, y: ref.add(x, y)),
        ("esub", lambda x, y: ref.add(x, y, -1)),
        ("emul", ref.mul),
    )
    for op, want in cases:
        # a fresh spec per operation: emul's first q - 1 calls run before any
        # table exists, the later ones after; additions never build tables
        fn = getattr(_fresh(q), op)
        for x in xs:
            for y in ys:
                assert fn(x, y) == want(x, y), (q, op, x, y)


def _check_unary(q, xs):
    ref = _Reference(q)
    for op in ("eneg", "einv"):
        spec = _fresh(q)
        for _ in range(2):  # a cold pass and a warm one
            for x in xs:
                if op == "eneg":
                    assert spec.eneg(x) == ref.add(0, x, -1), (q, x)
                elif x == 0:
                    with pytest.raises(ZeroDivisionError):
                        spec.einv(0)
                else:
                    assert spec.einv(x) == ref.inv(x), (q, x)


def _check_pow(q, xs):
    ref = _Reference(q)
    spec = _fresh(q)
    exps = (0, 1, 2, q - 2, q - 1, q, q + 1, 2 * q + 3)
    for _ in range(2):
        for x in xs:
            pw = ref.powers(x, max(exps))
            for e in exps:
                assert spec.epow(x, e) == pw[e], (q, x, e)
            if x == 0:
                with pytest.raises(ZeroDivisionError):
                    spec.epow(0, -1)
                continue
            for e in (1, 2, q - 1, q + 1):
                assert spec.epow(x, -e) == ref.inv(pw[e]), (q, x, -e)


@pytest.mark.parametrize("q", COMPOSITE_UP_TO_81)
def test_all_pairs_match_polynomials(q):
    xs = range(q)
    _check_binary(q, xs, xs)
    _check_unary(q, xs)
    _check_pow(q, xs)


@pytest.mark.parametrize("q", [512, 729])
def test_sample_matches_polynomials(q):
    # zero, one, minus one, the top encoding, and a fixed spread
    xs = sorted({0, 1, 2, q - 2, q - 1, prime_power(q)[0] - 1} | set(range(3, q, 37)))
    _check_binary(q, xs, xs)
    _check_unary(q, xs)
    _check_pow(q, xs[:8])


@pytest.mark.parametrize("q", [4, 8, 9, 27])
def test_out_of_range_encodings_rejected(q):
    bad = (-1, q, q + 1, -q)
    spec = _fresh(q)
    for warm in (False, True):
        if warm:
            for x in range(q):  # enough operations for tables to pay
                for y in range(q):
                    spec.emul(x, y)
        for b in bad:
            for call in (
                lambda: spec.eadd(b, 1), lambda: spec.eadd(1, b),
                lambda: spec.esub(b, 1), lambda: spec.esub(1, b),
                lambda: spec.emul(b, 1), lambda: spec.emul(1, b),
                lambda: spec.eneg(b), lambda: spec.einv(b),
                lambda: spec.epow(b, 0), lambda: spec.epow(b, 3),
                lambda: spec.epow(b, -1),
            ):
                with pytest.raises(ValueError):
                    call()


@pytest.mark.parametrize("q", [2**18, 2**20, 3**12, 7**6, 101**3, 1021**2])
def test_cold_packed_arithmetic_at_the_extremes(q):
    # a fresh spec of a large field: every operation here runs on packed ints
    ref, spec = _Reference(q), _fresh(q)
    xs = sorted({0, 1, spec.p - 1, q - 1} | set(range(q // 21, q, q // 21)))
    for x in xs:
        for y in xs:
            assert spec.emul(x, y) == ref.mul(x, y), (q, x, y)
        inv = ref.pow(x, q - 2)  # x^-1, or 0 at 0
        want = {0: 1, 1: x, 2: ref.mul(x, x), q - 2: inv, q - 1: ref.mul(inv, x)}
        for e, w in want.items():
            assert spec.epow(x, e) == w, (q, x, e)
        if x == 0:
            with pytest.raises(ZeroDivisionError):
                spec.einv(0)
            continue
        assert ref.mul(x, inv) == 1
        assert spec.einv(x) == inv and spec.epow(x, -1) == inv, (q, x)
    for x in xs:
        assert spec.eneg(x) == ref.add(0, x, -1), (q, x)
        for y in xs:
            assert spec.eadd(x, y) == ref.add(x, y), (q, x, y)
            assert spec.esub(x, y) == ref.add(x, y, -1), (q, x, y)
    assert spec._tables is None


def _exp_walk(q):
    """[g^0, g^1, ..., g^(q-2)] for the first encoding g whose powers run
    through all of GF(q)*, found by walking them on packed ints."""
    spec = _fresh(q)
    for g in range(2, q):
        exp, s = [1], spec._pack(g)
        x = s
        while x != 1:
            exp.append(spec._unpack(x))
            x = spec._mul_packed(x, s)
        if len(exp) == q - 1:
            return exp


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 243, 343,
                               625, 729, 1024, 2187, 3125])
def test_norm_rule_agrees_with_plain_powers(q):
    # every x on a spec of its own, which stays cold, and on one with tables;
    # x = g^i is primitive exactly when i is prime to q - 1, and N(x) = g^(i m)
    exp = _exp_walk(q)
    warm = _fresh(q)
    while warm._tables is None:
        warm.emul(1, 1)
    p = warm.p
    m = (q - 1) // (p - 1)
    for i, x in enumerate(exp):
        cold = _fresh(q)
        for spec in (cold, warm):
            assert spec._norm(x) == exp[i * m % (q - 1)] < p, (q, x)
            assert is_primitive(spec, x) == (gcd(i, q - 1) == 1), (q, x)
            assert spec.emul(spec.einv(x), x) == 1, (q, x)
        assert cold._tables is None


def test_sweep_keeps_a_bounded_field_cache():
    # a sweep builds fields for its composite orders only; fields for every
    # order still leave no more than the cache's bound kept
    proc = _python(
        "from planegraphs.gf import field_for, hypothesis_j_search, is_prime, make_field, prime_powers_in\n"
        "qs = prime_powers_in(3, 2**15)\n"
        "for q in qs: hypothesis_j_search(q)\n"
        "built = make_field.cache_info().misses\n"
        "for q in qs: field_for(q)\n"
        "info = make_field.cache_info()\n"
        "print(len(qs), sum(not is_prime(q) for q in qs), built, info.currsize, info.maxsize)\n"
    )
    assert proc.returncode == 0, proc.stderr
    n, composite, built, kept, cap = map(int, proc.stdout.split())
    assert (n, composite, built) == (3589, 78, 78) and n > cap >= kept


@pytest.mark.parametrize("q", [9, 25, 27])
def test_additions_build_no_tables(q):
    # q^2 additions and q^2 subtractions: digit-wise, none counts toward tables
    spec = _fresh(q)
    for x in range(q):
        for y in range(q):
            spec.eadd(x, y), spec.esub(x, y)
    assert (spec._tables, spec._cold_ops) == (None, 0)


def test_cold_search_builds_no_tables():
    # GF(7^6) finds its certificate after 259 multiplicative operations, far
    # below the q = 117,649 at which its tables would pay
    proc = _python(
        "from planegraphs.gf import certificate_line, field_for, hypothesis_j_search\n"
        "print(certificate_line(7**6, hypothesis_j_search(7**6)))\n"
        "spec = field_for(7**6)\n"
        "print(spec._tables is None, spec._cold_ops)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        '{"q":117649,"route":"ODD_GAMMA","alpha":164,"gamma":93120,"ord":117648}',
        "True 259",
    ]
