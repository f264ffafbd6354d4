"""Exact arithmetic in cyclotomic fields and controlled-precision evaluation.

Numbers in Q(zeta_m) live on the power basis 1, zeta, ..., zeta^(phi(m)-1)
mod the m-th cyclotomic polynomial, as integer numerators over one
denominator: equality is decidable and Galois twists are exact. Numerics are
integer fixed point under a PrecisionContext (working precision, tolerance,
guard bits, one rounding at the end): one root-of-unity kernel per modulus
and precision gives embeddings and log-sines, log_scaled every logarithm of
a rational, and the Stirling kernel log Gamma at a rational.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, lcm, prod

import mpmath as mp

GUARD_BITS = 32


# ---------------------------------------------------------------------------
# small multiplicative number theory

def factorize(n):
    """Prime factorization as a list of (p, e), ascending p. n >= 1."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n):
    return n >= 2 and factorize(n) == [(n, 1)]


def euler_phi(n):
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisors(n):
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def mobius(n):
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def primitive_root(q):
    """Smallest primitive root mod q for q an odd prime power or 2, 4."""
    fact = factorize(q)
    if q in (2, 4):
        return q - 1
    if len(fact) != 1 or fact[0][0] == 2:
        raise ValueError(f"no primitive root mod {q}")
    phi = euler_phi(q)
    prime_divs = [p for p, _ in factorize(phi)]
    for g in range(2, q):
        if gcd(g, q) != 1:
            continue
        if all(pow(g, phi // p, q) != 1 for p in prime_divs):
            return g
    raise AssertionError("unreachable")


def crt(pairs):
    """x mod prod(m) with x = r (mod m) for each (r, m); moduli coprime."""
    x, m = 0, 1
    for r, mi in pairs:
        if gcd(m, mi) != 1:
            raise ValueError(f"crt needs coprime moduli, got {m} and {mi}")
        # x + m*t = r (mod mi)
        t = ((r - x) * pow(m, -1, mi)) % mi
        x += m * t
        m *= mi
    return x % m


# ---------------------------------------------------------------------------
# cyclotomic polynomials and power tables

def poly_trim(c):
    """Drop trailing zero coefficients of c in place; returns c."""
    i = len(c)
    while i and c[i - 1] == 0:
        i -= 1
    del c[i:]
    return c


def poly_mul(a, b):
    """Product of coefficient lists (ascending degree; ints or Fractions)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def poly_sub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
           for i in range(n)]
    return poly_trim(out)


def poly_divexact(a, b):
    """a // b in Z[x] when the division is known to be exact."""
    if not a:
        return []
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            qc, rem = divmod(c, lb)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            q[i - db] = qc
            for j in range(db + 1):
                a[i - db + j] -= qc * b[j]
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficients of Phi_m, ascending degree, as a tuple of ints."""
    if m < 1:
        raise ValueError("m >= 1")
    num = [1]
    den = [1]
    for d in divisors(m):
        mu = mobius(m // d)
        if mu == 1:
            f = [0] * d + [1]
            f[0] = -1  # x^d - 1
            num = poly_mul(num, f)
        elif mu == -1:
            f = [0] * d + [1]
            f[0] = -1
            den = poly_mul(den, f)
    return tuple(poly_divexact(num, den))


@lru_cache(maxsize=None)
def _power_table(m):
    """x^j mod Phi_m for 0 <= j < max(m, 2*phi(m) - 1), integer tuples."""
    phi = euler_phi(m)
    poly = cyclotomic_polynomial(m)
    top = max(m, 2 * phi - 1)
    table = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(top):
        table.append(tuple(cur))
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            for i in range(phi):
                nxt[i] -= lead * poly[i]
        cur = nxt
    return tuple(table)


@lru_cache(maxsize=None)
def _sparse_rows(m):
    """The rows of _power_table(m) as tuples of their nonzero (j, x)."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x)
                 for row in _power_table(m))


# ---------------------------------------------------------------------------
# cyclotomic numbers

class CyclotomicNumber:
    """Element of Q(zeta_m) on the power basis mod Phi_m (exact): numerators
    n over d > 0 with gcd(d, *n) = 1, unique per number; c is n/d as Fractions."""

    __slots__ = ("m", "n", "d")
    __hash__ = None  # equality lifts across moduli; hashing would not

    def __init__(self, m, coeffs):
        phi = euler_phi(m)
        c = [x if type(x) is Fraction else Fraction(x) for x in coeffs]
        if len(c) != phi:
            raise ValueError(f"Q(zeta_{m}) needs {phi} coefficients, got {len(c)}")
        d = lcm(*(x.denominator for x in c))
        self.m, self.n, self.d = m, tuple(x.numerator * (d // x.denominator) for x in c), d

    @classmethod
    def from_powers(cls, m, weights, d=1):
        """sum_k weights[k] zeta_m^k / d for integers weights and d != 0,
        k < max(m, 2 phi(m) - 1), reduced once over the integers."""
        rows, out = _sparse_rows(m), [0] * euler_phi(m)
        for w, row in zip(weights, rows):
            if w:
                for j, x in row:
                    out[j] += w * x
        g = gcd(d, *out) if d > 0 else -gcd(d, *out)
        self = object.__new__(cls)
        self.m, self.n, self.d = m, tuple(x // g for x in out), d // g
        return self

    @property
    def c(self):
        return tuple(Fraction(x, self.d) for x in self.n)

    # -- constructors
    @classmethod
    def rational(cls, q):
        return cls(1, (Fraction(q),))

    @classmethod
    def zero(cls, m=1):
        return cls.from_powers(m, ())

    @classmethod
    def root_of_unity(cls, m, k=1):
        return cls.from_powers(m, [0] * (k % m) + [1])

    # -- modulus lifting
    def lift(self, big_m):
        if big_m == self.m:
            return self
        if big_m % self.m:
            raise ValueError("can only lift to a multiple modulus")
        return self._mapped(big_m, big_m // self.m)

    def _mapped(self, big_m, t):
        """zeta_m -> zeta_big_m^t, into Q(zeta_big_m)."""
        weights = [0] * big_m
        for i, x in enumerate(self.n):
            weights[(i * t) % big_m] += x
        return CyclotomicNumber.from_powers(big_m, weights, self.d)

    def _common(self, other):
        if not isinstance(other, CyclotomicNumber):
            other = CyclotomicNumber.rational(other)
        m = self.m * other.m // gcd(self.m, other.m)
        return self.lift(m), other.lift(m)

    # -- ring ops
    def __add__(self, other):
        a, b = self._common(other)
        sa, sb = b.d // gcd(a.d, b.d), a.d // gcd(a.d, b.d)
        return CyclotomicNumber.from_powers(a.m, [x * sa + y * sb for x, y in zip(a.n, b.n)],
                                            a.d * sa)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber.from_powers(self.m, [-x for x in self.n], self.d)

    def __sub__(self, other):
        return self + (-other if isinstance(other, CyclotomicNumber)
                       else CyclotomicNumber.rational(other).__neg__())

    def __rsub__(self, other):
        return CyclotomicNumber.rational(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CyclotomicNumber.from_powers(self.m, [x * q.numerator for x in self.n],
                                                self.d * q.denominator)
        a, b = self._common(other)
        conv = [0] * (2 * len(a.n) - 1)
        for i, x in enumerate(a.n):
            if x:
                for j, y in enumerate(b.n):
                    if y:
                        conv[i + j] += x * y
        return CyclotomicNumber.from_powers(a.m, conv, a.d * b.d)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("CyclotomicNumber powers need n >= 0")
        out = CyclotomicNumber.rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- Galois
    def galois(self, t):
        """Apply zeta_m -> zeta_m^t; requires gcd(t, m) = 1."""
        t %= self.m
        if gcd(t, self.m) != 1:
            raise ValueError(f"galois exponent {t} not invertible mod {self.m}")
        if self.m <= 2 or t == 1:
            return self
        return self._mapped(self.m, t)

    def conjugate(self):
        return self.galois(-1 % self.m) if self.m > 2 else self

    # -- predicates / coercions
    def is_zero(self):
        return not any(self.n)

    def is_rational(self):
        return not any(self.n[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError(f"not rational: {self!r}")
        return Fraction(self.n[0], self.d)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.rational(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._common(other)
        return a.n == b.n and a.d == b.d

    # -- numerics (call under a PrecisionContext guard)
    def embed(self, a=1):
        """Complex value under zeta_m -> exp(2 pi i a / m), current mp prec: the
        numerators dotted with the fixed-point roots, then one rounded
        division by d 2^prec."""
        prec, m, d = mp.mp.prec, self.m, self.d
        re_t, im_t = _fixed_root_table(m, prec)
        nk = [(x, a * i % m) for i, x in enumerate(self.n) if x]
        return mp.mpc(*(mp.fdiv(sum(n * t[k] for n, k in nk), d << prec) for t in (re_t, im_t)))

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.as_fraction()})"
        terms = [f"{x}*z{self.m}^{i}" for i, x in enumerate(self.c) if x]
        return "Cyc(" + " + ".join(terms) + ")"


@lru_cache(maxsize=None)
def _root_table(m, prec):
    """(exp(2 pi i k / m) for 0 <= k < m) at prec bits, one table per
    precision: the embedding of zeta_m^k is read, not recomputed."""
    with mp.workprec(prec):
        return tuple(mp.expjpi(mp.mpf(2 * k) / m) for k in range(m))


@lru_cache(maxsize=None)
def _root_kernel(m, prec):
    """(W, re, im), zeta_m^k ~ (re[k] + i im[k]) 2^-W for k <= m/2, W = prec +
    GUARD_BITS + bitlen(m): one expjpi gives zeta_m, each part within 0.53
    units of 2^-W, and each power is the last one times it, rounded, adding
    under 2 units to the complex error: under 2k <= m units, so under
    2^-(prec + GUARD_BITS) (Brent and Zimmermann, Modern Computer Arithmetic, 4.4)."""
    W = prec + GUARD_BITS + m.bit_length()
    with mp.workprec(W + 8):
        z = mp.expjpi(mp.mpf(2) / m)
        c, s = (int(mp.nint(mp.ldexp(part, W))) for part in (z.real, z.imag))
    re, im, half = [1 << W], [0], 1 << (W - 1)
    for _ in range(m // 2):
        x, y = re[-1], im[-1]
        re.append((x * c - y * s + half) >> W)
        im.append((x * s + y * c + half) >> W)
    return W, tuple(re), tuple(im)


@lru_cache(maxsize=None)
def _fixed_root_table(m, prec):
    """(re, im) of zeta_m^k at scale 2^prec: the kernel rounded to nearest for
    k <= m/2, conjugated above. Within 2^-32 units, it is round(2^prec zeta_m^k)
    unless that is within 2^-32 of a tie: 0, +-1/2 and +-1 stay exact."""
    W, re, im = _root_kernel(m, prec)
    shift = W - prec
    re, im = ([(x + (1 << (shift - 1))) >> shift for x in part] for part in (re, im))
    return tuple(re + re[(m - 1) // 2:0:-1]), tuple(im + [-y for y in im[(m - 1) // 2:0:-1]])


# ---------------------------------------------------------------------------
# precision context and special functions

class PrecisionContext:
    """Working precision (bits) and comparison tolerance 2**tol_exp; equal
    and hashed on (bits, tol_exp), so it can key memos."""

    __slots__ = ("bits", "tol_exp")

    def __init__(self, bits=192, tol_exp=-100):
        if bits < 64:
            raise ValueError("need at least 64 bits")
        if tol_exp >= 0 or -tol_exp > bits - 16:
            raise ValueError("tolerance must be negative and leave headroom below the precision")
        self.bits, self.tol_exp = bits, tol_exp

    def __eq__(self, other):
        return (type(other) is PrecisionContext
                and (self.bits, self.tol_exp) == (other.bits, other.tol_exp))

    def __hash__(self):
        return hash((self.bits, self.tol_exp))

    def guard(self):
        return mp.workprec(self.bits + GUARD_BITS)

    def final(self, x):
        with mp.workprec(self.bits):
            return +x

    @property
    def tol(self):
        with mp.workprec(self.bits):
            return mp.mpf(2) ** self.tol_exp

    def mpf(self, q):
        q = Fraction(q)
        return mp.mpf(q.numerator) / q.denominator

    def as_dict(self):
        return {"bits": self.bits, "tol_exp": self.tol_exp}


# T_1, T_2, ... and the last column of their triangle, grown in place
_tangent = [1]
_tangent_col = [1]


@lru_cache(maxsize=None)
def bernoulli_number(n):
    """Exact Bernoulli number B_n (B_1 = -1/2), in integers until one final
    Fraction: B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent
    number T_k (Brent and Harvey 2013, column j of the triangle from
    column j - 1: T^(k)_j = (j - k) T^(k)_(j-1) + (j - k + 2) T^(k-1)_j)."""
    if n < 0:
        raise ValueError("bernoulli_number needs n >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    k, col = n // 2, _tangent_col
    for j in range(len(_tangent) + 1, k + 1):
        col[0] *= j - 1
        for i in range(1, j - 1):
            col[i] = (j - i - 1) * col[i] + (j - i + 1) * col[i - 1]
        col.append(2 * col[-1])
        _tangent.append(col[-1])
    q = 4 ** k
    return Fraction((-1) ** (k - 1) * n * _tangent[k - 1], q * (q - 1))


@lru_cache(maxsize=None)
def _half_log_2pi(prec):
    with mp.workprec(prec):
        return mp.log(2 * mp.pi) / 2


@lru_cache(maxsize=None)
def _stirling_coeffs(prec):
    """(W, z0, C): C_j = floor(B_2j 2^W / (2j (2j - 1))), W = prec +
    GUARD_BITS, for j <= J, J fixed at the least shifted argument z0: term
    J + 1 is the first below 2^-(prec+8) there, and so for every real z >= z0."""
    W = prec + GUARD_BITS
    z0 = max(16, int(0.35 * prec) + 8)  # keeps the min term far below target
    target, zpow, coeffs = 1 << (W - prec - 8), z0, []  # zpow = z0^(2j-1)
    for j in count(1):
        b = bernoulli_number(2 * j)
        c = (b.numerator << W) // (b.denominator * 2 * j * (2 * j - 1))
        if coeffs and abs(c) >= abs(coeffs[-1]) * z0 * z0:
            raise ArithmeticError("Stirling series failed to reach target precision")
        if abs(c) < target * zpow:
            return W, z0, tuple(coeffs)
        coeffs.append(c)
        zpow *= z0 * z0


def stirling_shifted(a, F, prec):
    """(S, P, N) with log Gamma(x) - log(2 pi)/2 = S 2^-W - log P + N log F
    for x = a/F > 0, W = prec + GUARD_BITS: S is the integer Stirling value
    (2A - F) log(A/F) / (2F) - A/F + tail at z = A/F = x + N >= z0, and
    P = prod_{k<N} (a + kF) exact, so a sum over residues takes one
    logarithm of the product of their P. The tail (1/z) sum_j C_j w^(j-1),
    w = F^2/A^2, takes exact Horner steps, each adding under two units of
    2^-W that w <= 2^-8 shrinks: under 2 after the division by z >= 16.
    log(A/F), off by under one unit, is amplified by z - 1/2: S is off by
    under z + 3 units."""
    W, z0, coeffs = _stirling_coeffs(prec)
    n_shift = max(0, -((a - z0 * F) // F))  # ceil(z0 - x)
    A = a + n_shift * F
    F2, A2, acc = F * F, A * A, 0
    for c in reversed(coeffs):
        acc = c + acc * F2 // A2
    s = (2 * A - F) * log_scaled(A, F, W) // (2 * F) - (A << W) // F + acc * F // A
    return s, prod(range(a, A, F)), n_shift


def log_scaled(n, d, W):
    """log(n/d) 2^W for integers n, d > 0, W >= 64, off by under one unit
    when |log2(n/d)| < 2^64, and 0 when n = d. n/d = 2^k x, 1/2 < x < 2; r
    floored square roots at wp = W + G bits give y = x^(1/2^r), and
    log x = 2^(r+1) atanh(t), t = (y-1)/(y+1), is summed in integers (Brent
    and Zimmermann, Modern Computer Arithmetic, 4.4). In units of 2^-wp y is off
    by under 3.5, t by under 3 and the J < wp/8 terms by under 2J + 1: times
    2^(r+1), under 2^(G-3). With k log 2 (mpmath's ln2_fixed) off by under
    2, rounding to 2^-W leaves under 1/2 + 1/8 + 2^-(G-1) units."""
    if n == d:
        return 0
    r = W.bit_length() // 2
    G = r + W.bit_length() + 4
    wp, k = W + G, n.bit_length() - d.bit_length()
    x = (n << (wp - k)) // d if wp >= k else n // (d << (k - wp))
    one = 1 << wp
    for _ in range(r):
        x = isqrt(x << wp)
    t = (abs(x - one) << wp) // (x + one)
    t2 = t * t >> wp
    t4, s0, s1, j = t2 * t2 >> wp, 0, 0, 1
    while t:  # t^(4i+1)/(4i+1), and t^(4i+1)/(4i+3) times t^2 at the end
        s0 += t // j
        s1 += t // (j + 2)
        t = t * t4 >> wp
        j += 4
    total = (s0 + (s1 * t2 >> wp) if x > one else -s0 - (s1 * t2 >> wp)) << (r + 1)
    return (total + (k * mp.libmp.ln2_fixed(wp + 64) >> 64) + (1 << (G - 1))) >> G


@lru_cache(maxsize=None)
def _log_gamma_guarded(x, prec):
    """log Gamma(x) for a Fraction x > 0 at prec bits (the caller's guarded
    precision), memoized on (x, prec): callers meeting one reduced b/f0 share it."""
    s, shift, n = stirling_shifted(x.numerator, x.denominator, prec)
    W = prec + GUARD_BITS
    with mp.workprec(prec):
        return mp.ldexp(s - log_scaled(shift, x.denominator ** n, W), -W) + _half_log_2pi(prec)


def log_gamma(x, ctx):
    """log Gamma(x) for rational x > 0, rounded once to ctx.bits."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log_gamma needs x > 0")
    with ctx.guard():
        val = _log_gamma_guarded(x, mp.mp.prec)
    return ctx.final(val)


def hurwitz_zeta_at0(x, k, ctx):
    """zeta_H(s, x) data at s = 0 for rational x in (0, 1].

    k = 0: the exact value 1/2 - x (a Fraction).
    k = 1: d/ds at 0, log Gamma(x) - log(2 pi)/2, an mpf at ctx.bits.
    """
    x = Fraction(x)
    if not 0 < x <= 1:
        raise ValueError("x must be in (0, 1]")
    if k == 0:
        return Fraction(1, 2) - x
    if k == 1:
        return _hurwitz_deriv_at0(x, ctx)
    raise ValueError("k must be 0 or 1")


@lru_cache(maxsize=None)
def _hurwitz_deriv_at0(x, ctx):
    """log Gamma(x) - log(2 pi)/2 at ctx.bits, memoized on (x, ctx): every
    character sum over b/f0 reads one value per argument and precision."""
    with ctx.guard():
        val = _log_gamma_guarded(x, mp.mp.prec) - _half_log_2pi(mp.mp.prec)
    return ctx.final(val)
