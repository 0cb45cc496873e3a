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

import math
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidParam, TooLarge

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

#: factors closer to 1 than this are dropped from infinite products
_PROD_EPS = 1e-16

#: exact rational DP is used up to this n and m
_EXACT_LIMIT = 64


# ---- counting -------------------------------------------------------------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, exact."""
    if not 0 <= k <= n:
        return 0
    # [n, i+1]_q = [n, i]_q (q^(n-i) - 1) / (q^(i+1) - 1), exact at every i,
    # so no intermediate outgrows the answer; k and n - k count alike
    out = 1
    for i in range(min(k, n - k)):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


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
    # the leading factors, with q^(i-n) < 1e-20, leave the float sum as
    # it is: start at the first i with q^(n-i) <= 10^20
    d = 0
    while q ** (d + 1) <= 10 ** 20:
        d += 1
    return math.exp(sum(math.log1p(-q ** float(i - n)) for i in range(max(0, n - d), m)))


class RankChain:
    """Markov chain of rank(A_m): from rank j the next column is
    dependent with probability q^(j-n)."""

    def __init__(self, n: int, q: int, exact: bool):
        self.n = n
        self.q = q
        self.exact = exact

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


def corank_pmf(n: int, q: int, m: int) -> list:
    """P(crk(A_m) = c) for c = 0..m (crk = m - rank)."""
    exact = max(n, m) <= _EXACT_LIMIT
    rank_dist = RankChain(n, q, exact=exact).distribution(m)
    zero = Fraction(0) if exact else 0.0
    out = [zero] * (m + 1)
    for r, p in enumerate(rank_dist):
        if r <= m:
            out[m - r] = p
    return out


def tau_crk_exact_pmf(n: int, q: int, c: int) -> dict:
    """P(first step with corank c is m), keyed by m; support [c, n+c].

    The corank can only step up by one, so first hitting c at step m
    means crk(A_{m-1}) = c-1 and the m-th column lands in the current
    span, which has probability q^(rank - n) with rank = m - c.
    """
    if c < 1:
        raise InvalidParam("corank target must be >= 1")
    exact = n + c - 1 <= _EXACT_LIMIT
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


def _alpha_poly(q: int, c: int, k: int) -> tuple[list[int], int]:
    """Coefficients of prod_{j=0}^{c-k-1} (1 - z q^-j), ascending in z, as
    integer numerators over one denominator: those of prod (q^j - z), over
    q^(0 + 1 + ... + (c-k-1))."""
    deg = max(c - k, 0)
    ints = [1]
    for j in range(deg):
        w = q ** j
        nxt = [0] * (len(ints) + 1)
        for d, a in enumerate(ints):
            nxt[d] += a * w
            nxt[d + 1] -= a
        ints = nxt
    return ints, q ** (deg * (deg - 1) // 2)


# limit_Cck's exact integers grow with c and c - k; at this bound one
# value takes under 0.1 s at q = 65521, and E2's curves reach c - k = 47
_CCK_MAX = 64


def limit_Cck(q: int, c: int, k: int) -> float:
    """Limiting P(first corank-c step occurs at step n + k), n -> infty;
    TooLarge when c or c - k exceeds _CCK_MAX."""
    if c < 1:
        raise InvalidParam("need c >= 1")
    if k > c:
        return 0.0
    if max(c, c - k) > _CCK_MAX:
        raise TooLarge(f"limit_Cck needs c and c - k <= {_CCK_MAX}")
    beta = _product_tail(q, c + 1 - k)
    ints, den = _alpha_poly(q, c, k)
    # total = sum_{i<c} alpha_i / prod_{j=1}^{i} (1 - q^-j) with alpha_i =
    # ints[c-1-i] / den, summed exactly over the common denominator
    # den * prod_{0<j<c} (q^j - 1): term i's numerator is
    # ints[c-1-i] * q^(i(i+1)/2) * prod_{i<j<c} (q^j - 1)
    num, rest = 0, 1
    for i in range(c - 1, -1, -1):
        if c - 1 - i < len(ints):
            num += ints[c - 1 - i] * q ** (i * (i + 1) // 2) * rest
        if i:
            rest *= q ** i - 1
    return beta * q ** float(k - c) * (num / (den * rest))  # exact, rounded once


# ---- circuits --------------------------------------------------------------

def _log_comb(m, k) -> float:
    return math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)


def mu_k(m: int, k: int, q: int, n: int) -> float:
    """Expected number of kernel vectors of A_m with exactly k nonzero
    entries: binom(m,k) (q-1)^k q^-n, exactly.

    A uniform A maps each fixed nonzero x to a uniform vector of F_q^n,
    so Ax = 0 with probability q^-n.  Each k-circuit contributes the
    q-1 nonzero multiples of one such vector, so the expected number of
    k-circuits is at most mu_k / (q-1); mu_k does not count circuits
    (expected_k_circuits does).
    TooLarge when the value passes the float range.
    """
    if not 1 <= k <= m:
        raise InvalidParam("need 1 <= k <= m")
    lg = _log_comb(m, k) + k * math.log(q - 1) - n * math.log(q)
    if lg > _LOG_FLOAT_MAX:
        raise TooLarge("mu_k passes the float range")
    return math.exp(lg)


def expected_k_circuits(m: int, k: int, q: int, n: int) -> float:
    """Expected number of circuits of size exactly k in M[A_m], exactly:
    binom(m,k) (q-1)^(k-1) prod_{i=0}^{k-2} (q^n - q^i) / q^(nk).

    A k-set of columns is a circuit when its first k-1 columns are
    independent and the last is a combination of them with every
    coefficient nonzero: (q-1)^(k-1) of the q^n values.  The product
    vanishes once k >= n + 2, where the value is exactly 0.  TooLarge
    when the value passes the float range.
    """
    if not 1 <= k <= m:
        raise InvalidParam("need 1 <= k <= m")
    if k >= n + 2:
        return 0.0
    # prod_{i<k-1} (q^n - q^i) / q^(n(k-1)) is rank_full_prob(n, k-1, q)
    lg = (_log_comb(m, k) + (k - 1) * math.log(q - 1) - n * math.log(q)
          + math.log(rank_full_prob(n, k - 1, q, exact=False)))
    if lg > _LOG_FLOAT_MAX:
        raise TooLarge("expected_k_circuits passes the float range")
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


def _threshold_g(q: int, a: float, y: float) -> float:
    """g_a(y) = y log y + a log(q-1) - a log a - (y-a) log(y-a) - log q for
    y >= a, with 0 log 0 = 0: the limit of (1/n) log of the expected
    number of circuits of size a*n among y*n columns.  Its unique root
    b > a is the column density at which those circuits appear."""
    if y == a:
        head = a * math.log(a)
    else:
        # y log y - (y-a) log(y-a) as -y log(1 - a/y) + a log(y-a): the
        # two terms it replaces are huge and nearly equal at large y.
        # Near a, 1 - a/y is taken as (y-a)/y, where y - a is exact.
        log_frac = math.log1p(-a / y) if y > 2 * a else math.log((y - a) / y)
        head = a * math.log(y - a) - y * log_frac
    return head + (a * math.log(q - 1) - a * math.log(a) - math.log(q))


@lru_cache(maxsize=64)  # b_prime and a table row ask for the same root
def b_of_a(q: int, a: float) -> float:
    """Root b > a of g_a (_threshold_g), a column density: the expected
    number of circuits of size a*n among y*n columns decays exponentially
    in n for y < b and grows for y > b, so those circuits appear at about
    b*n columns.  TooLarge when b lies past the float range."""
    if not 0 < a <= 1:
        raise InvalidParam("need 0 < a <= 1")
    # g is strictly increasing on (a, inf); the root lies below a + step
    # once g(a + step) > 0, and step squares to reach roots near the float
    # limit in a few steps
    lo, step = a, 1.0
    while _threshold_g(q, a, a + step) <= 0:
        if step == sys.float_info.max:
            raise TooLarge(f"b({a}) at q = {q} is beyond the float range")
        lo, step = a + step, min(2 * step * step, sys.float_info.max)
    hi = a + step
    # bisect, at geometric means while hi > 2 lo, until the interval is
    # 1e-12 or the floats run out (b can be huge for small a, where
    # absolute 1e-12 is unrepresentable)
    while hi - lo > 1e-12:
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2 * lo else (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        if _threshold_g(q, a, mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def b_prime(q: int, a: float) -> float:
    """db/da from the implicit equation
    b' (log b - log(b-a)) = log a - log(q-1) - log(b-a)."""
    b = b_of_a(q, a)
    num = math.log(a) - math.log(q - 1) - math.log(b - a)
    den = -math.log1p(-a / b)  # log b - log(b-a), exact also at large b
    return num / den


# ---- connectivity ----------------------------------------------------------

def conn_limit_prob(q: int, k: int, c: float) -> float:
    """Limiting P(vertically k-connected) at m = n + (k-1) log_q n + c."""
    if k < 2:
        raise InvalidParam("limit law needs k >= 2")
    if not math.isfinite(c):
        raise InvalidParam("need a finite c")
    # log of (q-1)^(k-2) q^-c / (k-1)!, so that no power overflows
    lt = (k - 2) * math.log(q - 1) - c * math.log(q) - math.lgamma(k)
    return 0.0 if lt > _LOG_FLOAT_MAX else math.exp(-math.exp(lt))


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
    pi_h = (1 - 2 q^-k + q^(-2k+h))^m for h = 0..k.  TooLarge when tau or
    E X passes the float range."""
    if not 1 <= k < n:
        raise InvalidParam("need 1 <= k < n")
    x = q ** float(-k)
    tau = -k * (n - k) * math.log(q) / math.log1p(-x) if x else math.inf
    if tau == math.inf:  # so from here on q^k, and k, fit a float
        raise TooLarge("crt_tau passes the float range")
    # log gbinom(n,k) = sum_i log((q^(n-i) - 1) / (q^(k-i) - 1)), in floats
    # so that no huge exact count is built
    lex = (k * (n - k) * math.log(q) + m * math.log1p(-x)
           + math.fsum(math.log1p(-q ** float(i - n)) - math.log1p(-q ** float(i - k))
                       for i in range(k)))
    if lex > _LOG_FLOAT_MAX:
        raise TooLarge("crt_ex passes the float range")
    pi = [(1 - 2 * x + q ** float(-2 * k + h)) ** m for h in range(k + 1)]
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
    if bins > sys.float_info.max:
        raise TooLarge("poisson_bounds: the bin count passes the float range")
    lam = balls / bins
    # bins * exp(-lam) <= bins stays a float; 2 * bins could pass the range
    return 2 * (-math.expm1(-lam)) ** bins, 2 * (bins * math.exp(-lam))
