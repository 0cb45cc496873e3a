"""Closed-form predictors for the random column process.

Everything here is a pure function of its parameters: exact Gaussian
binomials, the rank Markov chain of random columns (a new column is
dependent with probability q^(j-n) at rank j), limiting corank hitting
distributions, circuit and connectivity thresholds, and the critical
number / coverage predictors.  Large-parameter formulas run in log
domain; exact rational paths are used at small sizes so the two can be
cross-checked.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InvalidParam

#: factors closer to 1 than this are dropped from infinite products
_PROD_EPS = 1e-16

#: exact rational DP is used up to this n and m
_EXACT_LIMIT = 64


# ---- counting -------------------------------------------------------------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, exact."""
    if not 0 <= k <= n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def q_int(n: int, q: int) -> int:
    """[n]_q = (q^n - 1)/(q - 1), the number of projective points."""
    return (q**n - 1) // (q - 1)


def subspace_count(n: int, k: int, j: int, ell: int, q: int) -> int:
    """Number of j-dim subspaces meeting a fixed k-dim subspace of F_q^n
    in dimension exactly ell."""
    if ell < 0 or ell > min(k, j) or j - ell > n - k:
        return 0
    return (q ** ((k - ell) * (j - ell))
            * gaussian_binomial(k, ell, q)
            * gaussian_binomial(n - k, j - ell, q))


# ---- rank evolution -------------------------------------------------------

def rank_full_prob(n: int, m: int, q: int, exact: bool | None = None):
    """P(a uniform n x m matrix has rank m) = prod_{i<m} (1 - q^(i-n))."""
    if m > n:
        raise InvalidParam("full column rank needs m <= n")
    if exact is None:
        exact = max(n, m) <= _EXACT_LIMIT
    if exact:
        out = Fraction(1)
        for i in range(m):
            out *= 1 - Fraction(1, q ** (n - i))
        return out
    return math.exp(sum(math.log1p(-q ** float(i - n)) for i in range(m)))


class RankChain:
    """Markov chain of rank(A_m): from rank j the next column is
    dependent with probability q^(j-n)."""

    def __init__(self, n: int, q: int, exact: bool | None = None):
        self.n = n
        self.q = q
        self.exact = max(n, q) <= _EXACT_LIMIT if exact is None else exact

    def step(self, dist):
        n, q = self.n, self.q
        one = Fraction(1) if self.exact else 1.0
        out = [0 * one] * min(len(dist) + 1, n + 1)
        for j, p in enumerate(dist):
            if not p:
                continue
            stay = (Fraction(1, q ** (n - j)) if self.exact else q ** float(j - n))
            out[j] += p * stay
            if j < n:
                out[j + 1] += p * (one - stay)
        return out

    def distribution(self, m: int):
        """Distribution of rank(A_m) as a list indexed by rank."""
        dist = [Fraction(1) if self.exact else 1.0]
        for _ in range(m):
            dist = self.step(dist)
        return dist


def corank_pmf(n: int, q: int, m: int, exact: bool | None = None) -> list:
    """P(crk(A_m) = c) for c = 0..m (crk = m - rank)."""
    if exact is None:
        exact = max(n, m) <= _EXACT_LIMIT
    rank_dist = RankChain(n, q, exact=exact).distribution(m)
    zero = Fraction(0) if exact else 0.0
    out = [zero] * (m + 1)
    for r, p in enumerate(rank_dist):
        if r <= m:
            out[m - r] = p
    return out


def tau_crk_exact_pmf(n: int, q: int, c: int, exact: bool | None = None) -> dict:
    """P(first step with corank c is m), keyed by m; support [c, n+c].

    The corank can only step up by one, so first hitting c at step m
    means crk(A_{m-1}) = c-1 and the m-th column lands in the current
    span, which has probability q^(rank - n) with rank = m - c.
    """
    if c < 1:
        raise InvalidParam("corank target must be >= 1")
    if exact is None:
        exact = max(n, n + c - 1) <= _EXACT_LIMIT
    chain = RankChain(n, q, exact=exact)
    dist = chain.distribution(c - 1)
    out = {}
    for m in range(c, n + c + 1):
        if m > c:
            dist = chain.step(dist)
        # dist is the rank law of A_{m-1}; corank c-1 there means rank m-c
        if exact:
            out[m] = dist[m - c] * Fraction(1, q ** (n - (m - c)))
        else:
            out[m] = dist[m - c] * q ** float((m - c) - n)
    return out


# ---- limiting hitting-time distribution -----------------------------------

def _product_tail(q: int, start: int) -> float:
    """prod_{j>=start} (1 - q^-j), truncated when factors reach 1."""
    out = 1.0
    j = max(start, 1)
    if start < 1:
        return 0.0  # a factor (1 - q^0) = 0 appears
    while True:
        f = q ** float(-j)
        if f < _PROD_EPS:
            return out
        out *= 1.0 - f
        j += 1


def gamma_qc(q: int, c: int) -> float:
    """prod_{j>=c} (1 - q^-j): limiting P(corank jumps c -> c+1 in one step
    of the corank ladder at its natural time)."""
    if c < 1:
        raise InvalidParam("need c >= 1")
    return _product_tail(q, c)


def _alpha_poly(q: int, c: int, k: int) -> list[Fraction]:
    """Coefficients of prod_{j=0}^{c-k-1} (1 - z q^-j), ascending in z."""
    coefs = [Fraction(1)]
    for j in range(0, c - k):
        f = Fraction(1, q**j)
        nxt = [Fraction(0)] * (len(coefs) + 1)
        for d, a in enumerate(coefs):
            nxt[d] += a
            nxt[d + 1] -= a * f
        coefs = nxt
    return coefs


def _alpha_signed(q: int, c: int, k: int, i: int) -> Fraction:
    """Signed-sum form of the same coefficient, kept as a cross-check."""
    d = c - 1 - i
    if d < 0 or d > c - k:
        return Fraction(0)
    total = Fraction(0)
    for js in itertools.combinations(range(0, c - k), d):
        total += Fraction(1, q ** sum(js))
    return (-1) ** d * total


def limit_Cck(q: int, c: int, k: int) -> float:
    """Limiting P(first corank-c step occurs at step n + k), n -> infty."""
    if c < 1:
        raise InvalidParam("need c >= 1")
    if k > c:
        return 0.0
    beta = _product_tail(q, c + 1 - k)
    coefs = _alpha_poly(q, c, k)

    def alpha(i):
        d = c - 1 - i
        return coefs[d] if 0 <= d < len(coefs) else Fraction(0)

    total = Fraction(0)
    denom = Fraction(1)
    total += alpha(0)
    for i in range(1, c):
        denom *= 1 - Fraction(1, q**i)
        total += alpha(i) / denom
    return beta * q ** float(k - c) * float(total)


# ---- circuits --------------------------------------------------------------

def _log_comb(m, k) -> float:
    return math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)


def mu_k(m: int, k: int, q: int, n: int) -> float:
    """Expected number of kernel vectors of A_m with exactly k nonzero
    entries: binom(m,k) (q-1)^k q^-n, exactly.

    A uniform A maps each fixed nonzero x to a uniform vector of F_q^n,
    so Ax = 0 with probability q^-n.  Each k-circuit contributes the
    q-1 nonzero multiples of one such vector, so the expected number of
    k-circuits is at most mu_k / (q-1); mu_k does not count circuits.
    """
    if not 1 <= k <= m:
        raise InvalidParam("need 1 <= k <= m")
    lg = _log_comb(m, k) + k * math.log(q - 1) - n * math.log(q)
    return math.exp(lg)


def no_kcircuit_prob_approx(m: int, k: int, q: int, n: int) -> float:
    """exp(-(q-1)^(k-1)/k! * m^k/q^n); sensible when k = o(m) and
    m^k q^-n stays bounded (not enforced)."""
    if not 1 <= k <= m:
        raise InvalidParam("need 1 <= k <= m")
    lg = ((k - 1) * math.log(q - 1) - math.lgamma(k + 1)
          + k * math.log(m) - n * math.log(q))
    if lg > 700:
        return 0.0
    return math.exp(-math.exp(lg))


class ThresholdFn:
    """g_a(y) = y log y + a log(q-1) - a log a - (y-a) log(y-a) - log q,
    with 0 log 0 = 0; its unique root b > a marks the longest-circuit
    threshold at column density a."""

    def __init__(self, q: int, a: float):
        if not 0 < a <= 1:
            raise InvalidParam("need 0 < a <= 1")
        self.q = q
        self.a = a
        self._b = None

    def g(self, y: float) -> float:
        a = self.a

        def xlogx(x):
            return 0.0 if x <= 0 else x * math.log(x)

        return (xlogx(y) + a * math.log(self.q - 1) - xlogx(a)
                - xlogx(y - a) - math.log(self.q))

    @property
    def b(self) -> float:
        if self._b is None:
            a = self.a
            hi = a + 1.0
            while self.g(hi) <= 0:
                hi = a + 2 * (hi - a)
            lo = a
            # g is strictly increasing on (a, inf); bisect until the
            # interval is 1e-12 or the floats run out (b can be huge
            # for small a, where absolute 1e-12 is unrepresentable)
            while hi - lo > 1e-12:
                mid = (lo + hi) / 2
                if mid == lo or mid == hi:
                    break
                if self.g(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            self._b = (lo + hi) / 2
        return self._b


def b_of_a(q: int, a: float) -> float:
    """Root of g_a: rescaled length of the longest circuit at m = a*n."""
    return ThresholdFn(q, a).b


def b_prime(q: int, a: float) -> float:
    """db/da from the implicit equation
    b' (log b - log(b-a)) = log a - log(q-1) - log(b-a)."""
    b = b_of_a(q, a)
    num = math.log(a) - math.log(q - 1) - math.log(b - a)
    den = math.log(b) - math.log(b - a)
    return num / den


# ---- connectivity ----------------------------------------------------------

def conn_limit_prob(q: int, k: int, c: float) -> float:
    """Limiting P(vertically k-connected) at m = n + (k-1) log_q n + c."""
    if k < 2:
        raise InvalidParam("limit law needs k >= 2")
    return math.exp(-((q - 1) ** (k - 2)) * q ** float(-c) / math.factorial(k - 1))


def ko_alpha_bound(q: int) -> float:
    """log(2q-1) / (2 log q - log(2q-1)): above this alpha, m = (1+alpha)n
    suffices for linear-order connectivity."""
    return math.log(2 * q - 1) / (2 * math.log(q) - math.log(2 * q - 1))


def _lb_lhs(q: int, t: float, alpha: float) -> float:
    return (t * math.log((1 + alpha) / t)
            + (1 + alpha - t) * math.log((1 + alpha) / (1 + alpha - t))
            + t * math.log(q - 1) - alpha * math.log(q))


def lb_alpha(q: int, t: float) -> float:
    """Largest alpha with t log((1+a)/t) + (1+a-t) log((1+a)/(1+a-t))
    + t log(q-1) - a log q > 0 (first-moment connectivity lower bound)."""
    if not 0 < t < 1:
        raise InvalidParam("need 0 < t < 1")
    lo = 0.0
    hi = 1.0
    while _lb_lhs(q, t, hi) > 0:
        hi *= 2
    while hi - lo > 1e-10:
        mid = (lo + hi) / 2
        if _lb_lhs(q, t, mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def tau_conn_asymptotic(q: int, k: int, n: int) -> float:
    """n + k log_q(n/k), the sublinear k-connectivity hitting time."""
    if not 1 <= k <= n:
        raise InvalidParam("need 1 <= k <= n")
    return n + k * math.log(n / k) / math.log(q)


# ---- critical number -------------------------------------------------------

def crt_predictors(q: int, k: int, n: int, m: int):
    """(tau_asym, E X, pi table) for the critical-number drop to k:
    tau ~ -k(n-k) log q / log(1 - q^-k); E X = gbinom(n,k) (1-q^-k)^m;
    pi_h = (1 - 2 q^-k + q^(-2k+h))^m for h = 0..k."""
    if not 1 <= k < n:
        raise InvalidParam("need 1 <= k < n")
    tau = -k * (n - k) * math.log(q) / math.log1p(-q ** float(-k))
    lex = (math.log(gaussian_binomial(n, k, q))
           + m * math.log1p(-q ** float(-k)))
    pi = [(1 - 2 * q ** float(-k) + q ** float(-2 * k + h)) ** m
          for h in range(k + 1)]
    return tau, math.exp(lex), pi


def check_inequality(q: int, k: int) -> bool:
    """(1 - q^-k)^2 > k q^-k, exactly; fails only at (q,k) = (2,1)."""
    if q < 2 or k < 1:
        raise InvalidParam("need q >= 2, k >= 1")
    return (q**k - 1) ** 2 > k * q**k


def poisson_bounds(balls: int, bins: int) -> tuple[float, float]:
    """(upper bound on P(all bins covered), upper bound on P(some bin
    missed)) for balls-in-bins with lambda = balls/bins; raw bounds, may
    exceed 1."""
    if bins < 1 or balls < 0:
        raise InvalidParam("need bins >= 1 and balls >= 0")
    lam = balls / bins
    return 2 * (-math.expm1(-lam)) ** bins, 2 * bins * math.exp(-lam)
