"""Finite fields GF(p^a) with a canonical integer encoding.

An element is its encoding, an int in 0..q-1: every function here takes
and returns encodings, with the ``FieldSpec`` where one is needed, and
all arithmetic is the spec's.  For a = 1 the encoding is the residue
itself and the operations are native modular arithmetic.  For a > 1 the
element is the residue polynomial with coefficients (c0, c1, ...,
c_{a-1}), constant term first, modulo a fixed monic irreducible of degree
a, and its encoding is sum(c_i * p^i), so encodings sort the same way the
coefficient vectors do when read as base-p numerals.  The encoding of -1
is p - 1 for every a.

Addition and subtraction never touch tables and never count toward
them: in characteristic 2 the encoding is the coefficient bit vector and
they are XOR, and in odd characteristic they go one base-p digit of the
encodings at a time, mod p.  A composite spec computes every other
operation on packed polynomials until it has done q of them: coefficient
i sits in bits k*i.. of one int, so a product is one int multiply, and
x^a..x^(2a-2) mod the modulus fold it back.  At the q-th it builds, once,
exp and log tables of its ``first_primitive`` in ``array('i')``, and
every later multiplicative operation is a table lookup.  A field used
only briefly, as in a certificate sweep, never pays for tables.

The norm N(x) = x^m, m = (q-1)/(p-1), maps GF(q)* onto GF(p)* and lies
in GF(p), and the multiplicative work reads it.  A prime l | q-1 that
divides p-1 has x^((q-1)/l) = N(x)^((p-1)/l), a pow mod p, or for l = 2
the square class of N(x), its Jacobi symbol by quadratic reciprocity and
no power at all; any other l divides m, and x^((q-1)/l) is 1 exactly
when x^(m/l) lies in GF(p), so ``is_primitive`` needs packed powers only
(a-1)log p bits long, and none for l | p-1 when x = c1 t + c0 (every
element when a = 2), whose norm is read off the modulus.  A cold inverse
is x^(m-1) N(x)^-1.

The modulus is chosen deterministically: the first monic irreducible of
degree a whose non-leading coefficient vector has the smallest encoding.
A candidate with a root in GF(p) is refused, found for a = 2 over an odd
p as a zero or square discriminant and otherwise by Horner's rule at each
c in GF(p); a root-free one is irreducible when a <= 3, and decided by
Rabin's test on packed ints when a >= 4.  Every run of every machine
therefore agrees on the arithmetic tables.

Primality has one mechanism and no Miller-Rabin: a sieve of Eratosthenes
of 0..MAX_ORDER (2^20), 1 MB built on a process's first question in about
2 ms.  ``is_prime``, ``factorize`` and ``prime_powers_in`` read it, and
refuse n above MAX_ORDER at once, as no larger field is ever built.

A certificate sweep searches each prime order on residues and builds no
field for it.  For its few composite orders ``make_field`` factorises
q - 1 once per field and keeps only the 1,024 fields it built or used
last, and the primitive walk starts at p.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Iterator
from functools import cache, cached_property, lru_cache
from itertools import compress
from math import isqrt

MAX_ORDER = 1 << 20


class DegenerateAlpha(ValueError):
    """Raised when a map is evaluated at an alpha outside its domain."""


class ConjectureViolation(RuntimeError):
    """A search that is expected to succeed on theoretical grounds came up empty."""


_SIEVE = bytearray()  # _SIEVE[n] == 1 exactly when n <= MAX_ORDER is prime


def _sieve_to(n: int) -> bytearray:
    """The one sieve of Eratosthenes of 0..MAX_ORDER, once n is known to lie
    in it.  The first call builds it in place (about 2 ms and 1 MB): evens
    start at 0, and each odd prime strikes its odd multiples from its square."""
    if n > MAX_ORDER:
        raise ValueError(f"{n} exceeds supported bound {MAX_ORDER}")
    s = _SIEVE
    if not s:
        s += b"\0\1"
        s *= MAX_ORDER // 2 + 1
        del s[MAX_ORDER + 1 :]
        s[1:3] = b"\0\1"
        for i in range(3, isqrt(MAX_ORDER) + 1, 2):
            if s[i]:
                s[i * i :: 2 * i] = bytes(len(range(i * i, MAX_ORDER + 1, 2 * i)))
    return s


def is_prime(n: int) -> bool:
    """Read off the sieve; ValueError above MAX_ORDER."""
    return n > 1 and _sieve_to(n)[n] == 1


def factorize(n: int) -> dict:
    """Prime factorization, {prime: exponent}: division by 2 and odd f
    until the cofactor is 1 or a prime of the sieve.  ValueError above
    MAX_ORDER."""
    sieve, out, f = _sieve_to(n), {}, 2
    while n > 1 and not sieve[n]:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def prime_power(n: int):
    """Return (p, a) when n = p^a for a prime p, else None.  ValueError
    when n exceeds MAX_ORDER."""
    if n > MAX_ORDER:
        raise ValueError(f"field order {n} exceeds supported bound {MAX_ORDER}")
    fac = factorize(n)
    return next(iter(fac.items())) if len(fac) == 1 else None


def prime_powers_in(lo: int, hi: int) -> list:
    """All prime powers q with lo <= q <= hi, ascending: the primes of the
    window read off the sieve, and p^k (k >= 2) for each prime p up to
    isqrt(hi).  ValueError when hi exceeds MAX_ORDER."""
    sieve, lo = _sieve_to(hi), max(lo, 2)
    out = list(compress(range(lo, hi + 1), memoryview(sieve)[lo : hi + 1]))
    for p in compress(range(isqrt(max(hi, 0)) + 1), sieve):
        pk = p * p
        while pk <= hi:
            if pk >= lo:
                out.append(pk)
            pk *= p
    return sorted(out)


def _is_square(n: int, p: int) -> bool:
    """Whether n is a nonzero square mod the odd prime p, that is whether
    n^((p-1)/2) == 1: the Jacobi symbol (n/p) by quadratic reciprocity
    (H. Cohen, A Course in Computational Algebraic Number Theory, Alg.
    1.4.10), a few small-int steps and no power.  (0/p) is 0, not a square."""
    n, m, t = n % p, p, 1
    while n:
        while not n & 1:
            n >>= 1
            if (m + 2) & 4:  # m = 3 or 5 mod 8, where (2/m) = -1
                t = -t
        if n & m & 2:  # both 3 mod 4: reciprocity flips the sign
            t = -t
        n, m = m % n, n
    return m == 1 and t == 1


def _is_irreducible(spec: FieldSpec) -> bool:
    """Whether spec.modulus f, of degree a >= 2, is irreducible.

    f is reducible when it has a root in GF(p), and irreducible when it has
    none and a <= 3.  A quadratic over an odd p has none exactly when its
    discriminant is a non-square, which is nonzero; any other f is tried at
    every c in GF(p) by Horner's rule.  A root-free f of degree a >= 4 goes
    to Rabin's test on packed ints: once x^(p^a) == x mod f, f is a product
    of distinct irreducibles whose degrees divide a, so GF(p)[x]/(f) is a
    product of fields GF(p^d) with d | a.  Then h = x^(p^(a/r)) - x is
    prime to f exactly when it is a unit there, h^(p^a - 1) == 1, and f is
    irreducible when that holds for every prime r dividing a.  The
    polynomial x is encoded p."""
    p, deg, f = spec.p, spec.a, spec.modulus
    if deg == 2 and p != 2:
        d = f[1] * f[1] - 4 * f[0]
        return d % p != 0 and not _is_square(d, p)
    for c in range(p):
        v = 0
        for u in reversed(f):  # Horner's rule, reduced mod p once at the end
            v = v * c + u
        if v % p == 0:
            return False
    if deg <= 3:
        return True
    k, m = spec._packed[:2]
    x = spec._pack(p)
    if spec._pow_packed(x, spec.q) != x:
        return False
    for r in factorize(deg):
        s = spec._pow_packed(x, p ** (deg // r))
        c = (s >> k) & m  # the coefficient of x in s
        h = s + ((c - 1) % p - c << k)  # s - x
        if spec._pow_packed(h, spec.q - 1) != 1:
            return False
    return True


# ---------------------------------------------------------------------------


class FieldSpec(namedtuple("FieldSpec", "p a q modulus factors")):
    """Arithmetic context for GF(p^a).  modulus is little-endian, monic,
    length a+1; factors are the primes dividing q - 1.  Equality and
    hashing read p, a, q and the modulus, not the factors."""

    def __eq__(self, other):
        return type(other) is FieldSpec and self[:4] == other[:4]

    def __ne__(self, other):  # tuple's own != would compare the factors
        return not self == other

    def __hash__(self):
        return hash(self[:4])

    def decode(self, enc: int) -> tuple:
        if not 0 <= enc < self.q:
            raise ValueError(f"encoding {enc} out of range for GF({self.q})")
        digits = []
        for _ in range(self.a):
            enc, d = divmod(enc, self.p)
            digits.append(d)
        return tuple(digits)

    def encode(self, coeffs) -> int:
        e = 0
        for c in reversed(coeffs):
            e = e * self.p + c
        return e

    # arithmetic on encodings: the one implementation of the field.  A
    # composite spec does its first q - 1 multiplicative operations on
    # packed polynomials and then switches to the tables ``_warm`` builds.
    # ``_tables`` and ``_cold_ops`` are caches, not fields: a composite spec
    # writes them to its own __dict__; prime specs never read the defaults.

    _tables = None
    _cold_ops = 0

    @cached_property
    def _packed(self) -> tuple:
        """(k, slot mask, low mask, x^j mod f packed for j = a..2a-2), once.

        A packed polynomial keeps coefficient i in bits k*i..k*i+k-1.  A
        product's slots hold at most a(p-1)^2, and folding its high slots,
        each taken mod p, into the low ones adds at most (a-1)(p-1)^2; k is
        the bit length of 2a(p-1)^2, so no slot ever carries into the next.
        """
        p, a, f = self.p, self.a, self.modulus
        k = (2 * a * (p - 1) ** 2).bit_length()
        fold, r = [], [-c % p for c in f[:a]]  # x^a = -(f_0 + ... + f_{a-1} x^{a-1})
        for _ in range(a - 1):
            fold.append(sum(c << k * i for i, c in enumerate(r)))
            r = [(u - r[-1] * c) % p for u, c in zip([0] + r, f[:a])]  # times x
        return k, (1 << k) - 1, (1 << k * a) - 1, fold

    def _pack(self, enc: int) -> int:
        k = self._packed[0]
        return sum(d << k * i for i, d in enumerate(self.decode(enc)))

    def _unpack(self, s: int) -> int:
        k, m = self._packed[:2]
        return self.encode([(s >> k * i) & m for i in range(self.a)])

    def _mul_packed(self, s: int, t: int) -> int:
        # one int product; fold the high slots back, then each slot mod p
        k, m, low, fold = self._packed
        p, z = self.p, s * t
        high, z = z >> k * self.a, z & low
        for r in fold:
            z += (high & m) % p * r
            high >>= k
        out = 0
        for i in range(k * (self.a - 1), -1, -k):
            out = (out << k) | ((z >> i) & m) % p
        return out

    def _pow_packed(self, b: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_packed(r, b)
            e >>= 1
            if e:
                b = self._mul_packed(b, b)
        return r

    def _norm(self, x: int) -> int:
        """N(x) = x^m, the product of x's conjugates, in GF(p).  For
        x = c1 t + c0 it is (-c1)^a f(-c0/c1) for the modulus f, that is
        sum f_i c0^i (-c1)^(a-i), and costs no field operation."""
        p = self.p
        if self.a == 1:
            return x
        if x >= p * p:
            return self.epow(x, (self.q - 1) // (p - 1))
        c1, c0 = divmod(x, p)
        n, d = 0, 1
        for f in reversed(self.modulus):
            n, d = (n * c0 + f * d) % p, d * -c1 % p
        return n

    def _warm(self):
        """Count one multiplicative operation without tables; build the exp
        and log tables at the q-th.  Additions never come here.

        The build costs about q polynomial steps, so a field used less
        never pays for it and one used more pays at most double (the
        ski-rental rule).  ``first_primitive`` runs cold operations of its
        own, which count past q, so the build happens once.
        """
        ops = self.__dict__["_cold_ops"] = self._cold_ops + 1
        if ops == self.q:
            n = self.q - 1
            g = self._pack(first_primitive(self))
            # exp has two periods, so sums of two logs need no reduction
            exp = array("i", bytes(8 * n))
            log = array("i", bytes(4 * self.q))
            x = 1
            for i in range(n):
                exp[i] = exp[i + n] = e = self._unpack(x)
                log[e] = i
                x = self._mul_packed(x, g)
            self.__dict__["_tables"] = (exp, log)
        return self._tables

    def _add(self, x: int, y: int, neg: bool) -> int:
        # x + y, or x - y when neg: XOR in characteristic 2, else one base-p
        # digit at a time, mod p
        q, p = self.q, self.p
        if not (0 <= x < q and 0 <= y < q):
            self.decode(x), self.decode(y)  # raises ValueError
        if p == 2:
            return x ^ y
        out, w = 0, 1
        while x or y:
            x, dx = divmod(x, p)
            y, dy = divmod(y, p)
            out += (dx - dy if neg else dx + dy) % p * w
            w *= p
        return out

    def eadd(self, x: int, y: int) -> int:
        if self.a == 1:
            return (x + y) % self.p
        return self._add(x, y, False)

    def esub(self, x: int, y: int) -> int:
        if self.a == 1:
            return (x - y) % self.p
        return self._add(x, y, True)

    def eneg(self, x: int) -> int:
        return self.esub(0, x)

    def emul(self, x: int, y: int) -> int:
        if self.a == 1:
            return (x * y) % self.p
        t = self._tables or self._warm()
        if t is None:
            return self._unpack(self._mul_packed(self._pack(x), self._pack(y)))
        q = self.q
        if not (0 <= x < q and 0 <= y < q):
            self.decode(x), self.decode(y)  # raises ValueError
        if x and y:
            exp, log = t
            return exp[log[x] + log[y]]
        return 0

    def einv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.a == 1:
            return pow(x, -1, self.p)
        t = self._tables or self._warm()
        if t is None:
            # x^-1 = x^(m-1) / N(x), and N(x) = x^(m-1) x is a constant
            p, s = self.p, self._pack(x)
            y = self._pow_packed(s, (self.q - 1) // (p - 1) - 1)
            return self._unpack(self._mul_packed(y, pow(self._mul_packed(y, s), -1, p)))
        if not 0 < x < self.q:
            self.decode(x)  # raises ValueError
        return t[0][self.q - 1 - t[1][x]]

    def epow(self, x: int, e: int) -> int:
        if e < 0:
            x, e = self.einv(x), -e
        if self.a == 1:
            return pow(x, e, self.p)
        t = self._tables or self._warm()
        if t is None:
            # one pack and one unpack around the whole square-and-multiply
            return self._unpack(self._pow_packed(self._pack(x), e))
        if not 0 <= x < self.q:
            self.decode(x)  # raises ValueError
        if x:
            return t[0][t[1][x] * e % (self.q - 1)]
        return 0 if e else 1


@lru_cache(maxsize=1 << 10)
def make_field(p: int, a: int = 1) -> FieldSpec:
    """Construct GF(p^a) with the canonical modulus.

    The degree-a modulus is monic; its lower coefficients are the first
    (by encoding) choice that yields an irreducible polynomial.  For a=1
    the modulus slot holds x itself and is never consulted.
    """
    if a < 1:
        raise ValueError("a must be positive")
    # the bound first: no huge p is tested, no p ** a formed for an a > 64
    if p > 1 and (p > MAX_ORDER or a > 64):
        order = p if a == 1 else f"{p}^{a}"
        raise ValueError(f"field order {order} exceeds supported bound {MAX_ORDER}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = p ** a
    if q > MAX_ORDER:
        raise ValueError(f"field order {q} exceeds supported bound {MAX_ORDER}")
    factors = tuple(factorize(q - 1))
    if a == 1:
        return FieldSpec(p, 1, q, (0, 1), factors)
    tmp = FieldSpec(p, a, q, (0,) * a + (1,), factors)  # encode/decode helper only
    for low_enc in range(1, q):
        spec = FieldSpec(p, a, q, tmp.decode(low_enc) + (1,), factors)
        if _is_irreducible(spec):
            return spec
    raise ConjectureViolation(f"no irreducible polynomial of degree {a} over GF({p})")


def field_for(q: int) -> FieldSpec:
    """GF(q), cached.  The one place that decides whether q names a field
    the package builds: ValueError when q is not a prime power, or when it
    exceeds MAX_ORDER (``prime_power`` tests the bound first)."""
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"q={q} is not a prime power")
    return make_field(*pp)


# ---------------------------------------------------------------------------
# multiplicative structure


def element_order(spec: FieldSpec, x: int) -> int:
    if not 0 <= x < spec.q:
        spec.decode(x)  # raises ValueError
    if x == 0:
        raise ValueError("order of zero is undefined")
    t = spec.q - 1
    for ell in spec.factors:
        while t % ell == 0 and spec.epow(x, t // ell) == 1:
            t //= ell
    return t


def _full_order(spec: FieldSpec, x: int, ells) -> bool:
    """Whether x^((q-1)/l) != 1 for every prime l in ells, read through the
    norm: N(x)^((p-1)/l) for l | p-1, the square class of N(x) for l = 2,
    else whether x^(m/l) lies outside GF(p)."""
    p, nx = spec.p, None
    for ell in ells:
        if (p - 1) % ell == 0:
            if nx is None:
                nx = spec._norm(x)
            if _is_square(nx, p) if ell == 2 else pow(nx, (p - 1) // ell, p) == 1:
                return False
        elif spec.epow(x, (spec.q - 1) // (p - 1) // ell) < p:
            return False
    return True


def is_primitive(spec: FieldSpec, x: int) -> bool:
    if not 0 <= x < spec.q:
        spec.decode(x)  # raises ValueError
    return x != 0 and _full_order(spec, x, spec.factors)


def primitive_iter(spec: FieldSpec) -> Iterator[int]:
    """Primitive elements in increasing encoding order.  For a > 1 the walk
    starts at p: encodings below it are GF(p), of orders dividing p - 1."""
    for x in range(spec.p if spec.a > 1 else 1, spec.q):
        if is_primitive(spec, x):
            yield x


def first_primitive(spec: FieldSpec) -> int:
    return next(primitive_iter(spec))


# ---------------------------------------------------------------------------
# the two closure maps


def gamma_map(spec: FieldSpec, alpha: int) -> int:
    """gamma = -alpha / ((1 - alpha) (1 + alpha)^2); defined off {0, 1, -1}."""
    if not 0 <= alpha < spec.q:
        spec.decode(alpha)  # raises ValueError
    if alpha in (0, 1, spec.p - 1):
        raise DegenerateAlpha(f"gamma undefined at alpha={alpha} in GF({spec.q})")
    num = spec.eneg(alpha)
    den = spec.emul(spec.esub(1, alpha), spec.epow(spec.eadd(1, alpha), 2))
    return spec.emul(num, spec.einv(den))


def gamma_prime_map(spec: FieldSpec, alpha: int) -> int:
    """gamma' = (alpha - 1) / (alpha + 1)^3.

    In characteristic 2 this collapses to 1/(alpha+1)^2.  Over GF(2) the
    only nonzero alpha is 1 and the map is taken to be 1 there.
    """
    if not 0 <= alpha < spec.q:
        spec.decode(alpha)  # raises ValueError
    if alpha == 0 or (alpha == spec.p - 1 and spec.q > 2):
        raise DegenerateAlpha(f"gamma' undefined at alpha={alpha} in GF({spec.q})")
    if spec.q == 2:
        return 1
    num = spec.esub(alpha, 1)
    return spec.emul(num, spec.einv(spec.epow(spec.eadd(alpha, 1), 3)))


def consecutive_primitive_pair(spec: FieldSpec) -> int:
    """First alpha (by encoding) with alpha and alpha+1 both primitive.

    Only meaningful in even characteristic with a > 1; exhaustion would
    contradict the consecutive-primitive-roots property and raises.
    """
    if spec.p != 2 or spec.a < 2:
        raise ValueError("consecutive pair search needs GF(2^a) with a > 1")
    # alpha and alpha + 1 = alpha ^ 1 meet twice in the walk: test each once
    primitive = cache(lambda x: is_primitive(spec, x))
    for alpha in range(2, spec.q):
        if primitive(alpha) and primitive(alpha ^ 1):
            return alpha
    raise ConjectureViolation(f"no consecutive primitive pair in GF({spec.q})")


# ---------------------------------------------------------------------------
# certificate search

ROUTE_ODD_GAMMA = "ODD_GAMMA"
ROUTE_EVEN_GOLOMB = "EVEN_GOLOMB"
ROUTE_NOT_FOUND = "NOT_FOUND"

class HypothesisJCertificate(namedtuple("HypothesisJCertificate", "q route alpha gamma")):
    """Witness that alpha is primitive and its closure value gamma is too,
    so both have order q - 1."""

    __slots__ = ()


def hypothesis_j_search(q: int) -> HypothesisJCertificate | None:
    """Search GF(q) for a primitive alpha whose closure multiplier is primitive.

    Odd q: walk primitive alpha by encoding, take the first whose gamma is
    primitive.  Even q (a > 1): take the first consecutive primitive pair
    alpha, alpha+1; gamma' = (alpha+1)^-2 is then primitive as well.
    Returns None when no alpha qualifies (q = 3 is the known case).

    The odd walk reads square classes first.  A primitive alpha is a
    non-square, and gamma = alpha / ((alpha - 1)(alpha + 1)^2) is in the
    class of alpha (alpha - 1), so it is a non-square exactly when alpha - 1
    is a square; only then are the odd primes of q - 1 tested, on alpha and
    on gamma.  A prime q builds no field: alpha walks 2..q-2 on residues,
    carrying the class of alpha - 1 from the step before (1 is a square),
    and the odd primes come from one ``factorize(q - 1)``.  For a > 1 the
    classes are those of norms, memoised by encoding, as alpha - 1 is nearly
    always the previous candidate.
    """
    if 3 <= q <= MAX_ORDER and is_prime(q):
        odd, square = tuple(factorize(q - 1))[1:], True  # the class of 1
        for alpha in range(2, q - 1):
            below, square = square, _is_square(alpha, q)  # the classes of alpha - 1, alpha
            if square or not below or any(pow(alpha, (q - 1) // l, q) == 1 for l in odd):
                continue
            gamma = -alpha * pow((1 - alpha) * (1 + alpha) ** 2, -1, q) % q
            if all(pow(gamma, (q - 1) // l, q) != 1 for l in odd):
                return HypothesisJCertificate(q, ROUTE_ODD_GAMMA, alpha, gamma)
        return None
    spec = field_for(q)
    if q < 3:
        raise ValueError(f"q={q} is not a prime power greater than 2")
    if spec.p == 2:
        alpha = consecutive_primitive_pair(spec)
        gamma = gamma_prime_map(spec, alpha)
        if not is_primitive(spec, gamma):
            raise ConjectureViolation(f"gamma' not primitive at q={q}")
        return HypothesisJCertificate(q, ROUTE_EVEN_GOLOMB, alpha, gamma)
    # factors[0] is 2, whose test on alpha and gamma is their square class
    p, odd, classes = spec.p, spec.factors[1:], {}

    def square(x):
        if x not in classes:
            classes[x] = _is_square(spec._norm(x), p)
        return classes[x]

    for alpha in range(p, q):
        if square(alpha):
            continue
        # alpha - 1 changes only the constant digit, which wraps from 0 to p - 1
        if not square(alpha - 1 if alpha % p else alpha + p - 1):
            continue
        if _full_order(spec, alpha, odd):
            gamma = gamma_map(spec, alpha)
            if _full_order(spec, gamma, odd):
                return HypothesisJCertificate(q, ROUTE_ODD_GAMMA, alpha, gamma)
    return None


def certificate_line(q: int, cert: HypothesisJCertificate | None) -> str:
    """One JSONL record with the keys q, route, alpha, gamma and ord = q-1,
    in that order; a missing certificate becomes a NOT_FOUND row."""
    if cert is None:
        return f'{{"q":{q},"route":"{ROUTE_NOT_FOUND}"}}'
    return (f'{{"q":{cert.q},"route":"{cert.route}","alpha":{cert.alpha},'
            f'"gamma":{cert.gamma},"ord":{cert.q - 1}}}')
