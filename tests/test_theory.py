"""Closed-form predictors against frozen independently-computed values.

Pinned constants come from exhaustive matrix enumeration, exact path
recursion over all column sequences, rational-arithmetic partial
products (120 factors), and long-double bisection on cloned defining
equations -- all computed outside this package and frozen here.
"""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fqmatroid.errors import InvalidParam, TooLarge
from fqmatroid import theory as T
from fqmatroid.fqlinalg import make_field

from conftest import all_matrices, brute_circuit_count


# ---- q-binomials ------------------------------------------------------------

def test_gaussian_binomial_known_values():
    assert T.gaussian_binomial(4, 2, 2) == 35
    assert T.gaussian_binomial(5, 2, 2) == 155
    assert T.gaussian_binomial(4, 2, 3) == 130
    assert T.gaussian_binomial(3, 1, 2) == 7
    assert T.gaussian_binomial(3, 3, 5) == 1
    assert T.gaussian_binomial(3, 4, 2) == 0
    assert T.gaussian_binomial(3, -1, 2) == 0


def test_gaussian_binomial_symmetry_and_pascal():
    for q in (2, 3, 4):
        for n in range(1, 9):
            for k in range(n + 1):
                g = T.gaussian_binomial(n, k, q)
                assert g == T.gaussian_binomial(n, n - k, q)
                if k >= 1:
                    assert g == (
                        q**k * T.gaussian_binomial(n - 1, k, q)
                        + T.gaussian_binomial(n - 1, k - 1, q)
                    )


def test_q_int():
    assert T.q_int(3, 2) == 7
    assert T.q_int(2, 3) == 4
    assert T.q_int(1, 5) == 1
    assert T.q_int(4, 2) == 15
    assert T.q_int(3, 2) == T.gaussian_binomial(3, 1, 2)


# ---- rank evolution -----------------------------------------------------------

def test_rank_full_prob_exact_value():
    assert T.rank_full_prob(2, 2, 2) == Fraction(3, 8)
    assert T.rank_full_prob(3, 0, 2) == 1
    with pytest.raises(InvalidParam):
        T.rank_full_prob(2, 3, 2)


def test_rank_full_prob_exact_vs_float():
    for n, m, q in [(5, 3, 2), (8, 8, 3), (12, 6, 2)]:
        exact = T.rank_full_prob(n, m, q, exact=True)
        approx = T.rank_full_prob(n, m, q, exact=False)
        assert abs(float(exact) - approx) < 1e-12


def test_rank_full_prob_float_grid_is_pinned():
    # [q, n, m, value] recorded from the loop over all m factors, at n, m
    # near the point where factors start to count; the loop now skips the
    # factors with q^(i-n) < 1e-20 and must give the same floats
    path = Path(__file__).parent / "data" / "rank_full_prob_grid.json"
    rows = json.loads(path.read_text(encoding="utf-8"))
    assert len(rows) == 276
    assert [T.rank_full_prob(n, m, q) for q, n, m, _ in rows] == [v for *_, v in rows]


# frozen via exhaustive enumeration of all q^(n*m) matrices
CORANK_PMF_EXHAUSTIVE = {
    (2, 2, 2): [Fraction(3, 8), Fraction(9, 16), Fraction(1, 16)],
    (3, 2, 3): [
        Fraction(21, 64),
        Fraction(147, 256),
        Fraction(49, 512),
        Fraction(1, 512),
    ],
    (2, 3, 2): [Fraction(16, 27), Fraction(32, 81), Fraction(1, 81)],
    (4, 2, 3): [
        Fraction(315, 512),
        Fraction(735, 2048),
        Fraction(105, 4096),
        Fraction(1, 4096),
    ],
}


@pytest.mark.parametrize("key", sorted(CORANK_PMF_EXHAUSTIVE))
def test_corank_pmf_exhaustive_values(key):
    n, q, m = key
    assert T.corank_pmf(n, q, m) == CORANK_PMF_EXHAUSTIVE[key]


@given(
    st.integers(1, 8), st.sampled_from([2, 3, 4]), st.integers(0, 10)
)
@settings(max_examples=60, deadline=None)
def test_corank_pmf_is_a_distribution(n, q, m):
    pmf = T.corank_pmf(n, q, m)
    assert len(pmf) == m + 1
    assert sum(pmf) == 1
    assert all(p >= 0 for p in pmf)


def test_corank_pmf_marginal_is_rank_full_prob():
    # P(corank 0) = P(full column rank), exactly, for all m <= n <= 12
    for q in (2, 3):
        for n in range(1, 13):
            for m in range(n + 1):
                assert T.corank_pmf(n, q, m)[0] == T.rank_full_prob(n, m, q)


def test_rank_chain_distribution_indexing():
    dist = T.RankChain(3, 2, exact=True).distribution(2)
    pmf = T.corank_pmf(3, 2, 2)
    for r, p in enumerate(dist):
        assert pmf[2 - r] == p


# frozen via exact recursion over all column sequences
TAU_CRK_EXHAUSTIVE = {
    (2, 2, 1): {1: Fraction(1, 4), 2: Fraction(3, 8), 3: Fraction(3, 8)},
    (3, 2, 2): {
        2: Fraction(1, 64),
        3: Fraction(21, 256),
        4: Fraction(147, 512),
        5: Fraction(315, 512),
    },
}


@pytest.mark.parametrize("key", sorted(TAU_CRK_EXHAUSTIVE))
def test_tau_crk_pmf_exhaustive_values(key):
    n, q, c = key
    assert T.tau_crk_exact_pmf(n, q, c) == TAU_CRK_EXHAUSTIVE[key]


def test_tau_crk_pmf_normalizes():
    assert sum(T.tau_crk_exact_pmf(6, 2, 2).values()) == 1  # exact path
    total = sum(T.tau_crk_exact_pmf(80, 2, 1).values())  # float path (n > 64)
    assert abs(total - 1.0) < 1e-9
    with pytest.raises(InvalidParam):
        T.tau_crk_exact_pmf(4, 2, 0)


def test_tau_crk_support():
    pmf = T.tau_crk_exact_pmf(5, 3, 2)
    assert min(pmf) == 2 and max(pmf) == 7  # [c, n+c]


# ---- limiting hitting-time law ---------------------------------------------

GAMMA_PINNED = {
    (2, 1): 0.2887880950866024,
    (2, 2): 0.5775761901732048,
    (3, 1): 0.560126077927949,
    (3, 2): 0.8401891168919234,
}


@pytest.mark.parametrize("key", sorted(GAMMA_PINNED))
def test_gamma_pinned(key):
    assert abs(T.gamma_qc(*key) - GAMMA_PINNED[key]) < 1e-15


LIMIT_PINNED = {
    (2, 1, 1): 0.2887880950866024,
    (2, 1, 0): 0.2887880950866024,  # equal to k=1, a quirk of c=1, q=2
    (2, 1, -1): 0.1925253967244016,
    (2, 1, -2): 0.11001451241394378,
    (2, 2, 1): 0.2887880950866024,
    (2, 2, 0): 0.0962626983622008,
    (2, 2, -1): 0.027503628103485944,
    (3, 1, 1): 0.560126077927949,
}


@pytest.mark.parametrize("key", sorted(LIMIT_PINNED))
def test_limit_pinned(key):
    assert abs(T.limit_Cck(*key) - LIMIT_PINNED[key]) < 1e-14


def test_limit_is_zero_beyond_c():
    assert T.limit_Cck(2, 1, 2) == 0.0
    assert T.limit_Cck(3, 2, 7) == 0.0
    with pytest.raises(InvalidParam):
        T.limit_Cck(2, 0, 0)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_limit_matches_gamma_at_k_equals_c(q, c):
    assert abs(T.limit_Cck(q, c, c) - T.gamma_qc(q, c)) < 1e-12


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_limit_sums_to_one(q, c):
    total = sum(T.limit_Cck(q, c, k) for k in range(-60, c + 1))
    assert abs(total - 1.0) < 1e-6


@pytest.mark.parametrize("c", [1, 2])
def test_finite_n_pmf_converges_to_limit(c):
    n = 60
    exact = T.tau_crk_exact_pmf(n, 2, c)
    sup = max(
        abs(exact.get(n + k, 0.0) - T.limit_Cck(2, c, k)) for k in range(-45, c + 1)
    )
    assert sup <= 0.01


def _alpha_signed(q, c, k, i):
    """Signed-sum form of _alpha_poly's coefficient of z^(c-1-i)."""
    d = c - 1 - i
    if d < 0 or d > c - k:
        return Fraction(0)
    total = Fraction(0)
    for js in itertools.combinations(range(0, c - k), d):
        total += Fraction(1, q ** sum(js))
    return (-1) ** d * total


def test_alpha_polynomial_matches_signed_sum():
    # exact convolution vs the signed-sum form
    for q in (2, 3):
        for c in range(1, 6):
            for k in range(-3, c + 1):
                ints, den = T._alpha_poly(q, c, k)
                for i in range(c):
                    d = c - 1 - i
                    got = Fraction(ints[d], den) if 0 <= d < len(ints) else Fraction(0)
                    assert got == _alpha_signed(q, c, k, i)


# ---- circuits ------------------------------------------------------------------

def test_mu_k_values():
    assert abs(T.mu_k(4, 2, 2, 3) - 0.75) < 1e-12
    assert abs(T.mu_k(5, 1, 2, 4) - 5 / 16) < 1e-12
    assert abs(T.mu_k(6, 3, 3, 5) - 20 * 8 / 243) < 1e-10
    with pytest.raises(InvalidParam):
        T.mu_k(3, 4, 2, 5)
    with pytest.raises(InvalidParam):
        T.mu_k(3, 0, 2, 5)


@pytest.mark.parametrize("q,n,m", [(2, 2, 3), (3, 2, 3), (2, 3, 4), (4, 1, 3), (3, 1, 4)])
def test_mu_k_counts_weight_k_kernel_vectors(q, n, m):
    # average, over every n x m matrix, of the number of x in F_q^m with
    # exactly k nonzero entries and Ax = 0
    F = make_field(q)
    vectors = list(itertools.product(range(q), repeat=m))
    columns = list(itertools.product(range(q), repeat=n))
    hits = Counter()
    total = 0
    for cols in itertools.product(columns, repeat=m):
        total += 1
        for x in vectors:
            acc = [0] * n
            for xj, col in zip(x, cols):
                if xj:
                    acc = [F.add(a, F.mul(xj, c)) for a, c in zip(acc, col)]
            if not any(acc):
                hits[sum(1 for xj in x if xj)] += 1
    for k in range(1, m + 1):
        exact = Fraction(hits[k], total)
        assert exact == Fraction(math.comb(m, k) * (q - 1) ** k, q ** n)
        assert abs(T.mu_k(m, k, q, n) - float(exact)) < 1e-12


@pytest.mark.parametrize("q,n,m", [(3, 2, 4), (4, 2, 3), (3, 3, 3)])
def test_expected_k_circuits_counts_circuits_of_size_k(q, n, m):
    # average, over every n x m matrix, of the brute count of k-circuits
    F = make_field(q)
    totals = Counter()
    matrices = 0
    for cols in all_matrices(q, n, m):
        matrices += 1
        for k in range(1, m + 1):
            totals[k] += brute_circuit_count(F, cols, k)
    for k in range(1, m + 1):
        exact = Fraction(totals[k], matrices)
        closed = Fraction(math.comb(m, k) * (q - 1) ** (k - 1)
                          * math.prod(q ** n - q ** i for i in range(k - 1)), q ** (n * k))
        assert exact == closed, k
        assert math.isclose(T.expected_k_circuits(m, k, q, n), exact, rel_tol=1e-12, abs_tol=0)


def test_expected_k_circuits_edges():
    # E[2-circuits] at (n, m, q) = (3, 4, 2) is 6 * 7/64 = 21/32, below mu_2 = 0.75
    assert math.isclose(T.expected_k_circuits(4, 2, 2, 3), 21 / 32, rel_tol=1e-15)
    assert T.expected_k_circuits(4, 2, 2, 3) < T.mu_k(4, 2, 2, 3)
    # k >= n + 2: k - 1 columns of F_q^n cannot be independent
    assert T.expected_k_circuits(10, 5, 2, 3) == 0.0
    assert T.expected_k_circuits(10 ** 6, 12, 3, 10) == 0.0
    assert T.expected_k_circuits(10, 4, 2, 3) > 0.0
    for m, k in ((0, 1), (5, 0), (3, 4), (5, -1)):
        with pytest.raises(InvalidParam):
            T.expected_k_circuits(m, k, 2, 3)
    with pytest.raises(TooLarge):
        T.expected_k_circuits(10 ** 4, 5000, 2, 5000)


@pytest.mark.parametrize("a", [0.5, 1.0])
@pytest.mark.parametrize("q", [2, 3])
def test_b_of_a_is_where_circuits_of_size_a_n_appear(q, a):
    # b(a) n is a column count, not a circuit length: (1/n) log of the
    # expected number of circuits of size a n among b(a) n columns tends
    # to g_a(b(a)) = 0
    b = T.b_of_a(q, a)
    assert b > a
    rates = [abs(math.log(T.expected_k_circuits(round(b * n), round(a * n), q, n))) / n
             for n in (250, 500, 1000, 2000)]
    assert all(later < earlier for earlier, later in zip(rates, rates[1:])), rates


def test_no_kcircuit_prob_approx():
    # exp(-(q-1)^{k-1}/k! * m^k / q^n)
    got = T.no_kcircuit_prob_approx(40, 2, 2, 10)
    assert abs(got - math.exp(-(40**2) / (2 * 2**10))) < 1e-12
    assert T.no_kcircuit_prob_approx(10**6, 5, 2, 10) == 0.0  # deep underflow
    # outside 1 <= k <= m it refuses, as mu_k does
    for m, k in ((0, 1), (5, 0), (3, 4), (5, -1)):
        with pytest.raises(InvalidParam):
            T.no_kcircuit_prob_approx(m, k, 2, 3)


# ---- threshold function b(a) ---------------------------------------------------

def test_b_at_special_points():
    assert abs(T.b_of_a(2, 0.5) - 1.0) < 1e-9
    assert abs(T.b_of_a(3, 2 / 3) - 1.0) < 1e-9
    assert 1.0 < T.b_of_a(2, 1.0) < 2.0
    # frozen 200-step bisections on an independent clone of g
    assert abs(T.b_of_a(2, 1.0) - 1.2938153733404154) < 1e-9
    assert abs(T.b_of_a(2, 0.25) - 1.5982881187135765) < 1e-9


@pytest.mark.parametrize("q, a, b", [
    # roots from mpmath bisections of g at 60 or more digits
    (2, 0.01, 4.663425944126038e27),
    (3, 0.01, 9.4798397159607664e44),
    (4, 0.01, 1.9705315657304203e57),
    (3, 0.05, 32067907.448129519),
    (2, 0.001, 3.9418598762207453e297),
])
def test_b_at_small_a(q, a, b):
    # y log y - (y-a) log(y-a) cancelled to nothing at these roots
    assert abs(T.b_of_a(q, a) - b) <= 1e-9 * b
    assert T.b_prime(q, a) < 0


@pytest.mark.parametrize("q, a", [(3, 0.001), (2, 0.0009), (65536, 0.01), (2, 1e-300)])
def test_b_beyond_the_float_range_is_too_large(q, a):
    with pytest.raises(TooLarge):
        T.b_of_a(q, a)
    with pytest.raises(TooLarge):
        T.b_prime(q, a)


def test_g_root_residual_and_bracketing():
    for a in (0.1, 0.3, 0.5, 0.8, 1.0):
        b = T.b_of_a(2, a)
        assert abs(T._threshold_g(2, a, b)) < 1e-10
        assert T._threshold_g(2, a, b - 1e-6) < 0 < T._threshold_g(2, a, b + 1e-6)


def test_g_continuity_at_a():
    assert T._threshold_g(2, 0.4, 0.4 + 1e-12) - T._threshold_g(2, 0.4, 0.4) < 1e-9


def test_b_shape():
    # strictly decreasing before a* = 1 - 1/q, increasing after, min value 1
    grid = [i / 40 for i in range(1, 40)]
    vals = [T.b_of_a(2, a) for a in grid]
    astar = 0.5
    for a1, a2, v1, v2 in zip(grid, grid[1:], vals, vals[1:]):
        if a2 <= astar:
            assert v1 > v2
        if a1 >= astar:
            assert v1 < v2
    assert min(vals) >= 1.0 - 1e-12


def test_b_convexity_second_differences():
    pts = [0.05 + 0.9 * i / 99 for i in range(100)]
    vals = [T.b_of_a(2, a) for a in pts]
    h = pts[1] - pts[0]
    for i in range(1, 99):
        assert (vals[i + 1] - 2 * vals[i] + vals[i - 1]) / h**2 >= -1e-6


def test_b_prime_matches_finite_differences():
    h = 1e-6
    for a in (0.15, 0.3, 0.45, 0.6, 0.85):
        fd = (T.b_of_a(2, a + h) - T.b_of_a(2, a - h)) / (2 * h)
        bp = T.b_prime(2, a)
        assert abs(bp - fd) <= 1e-4 * max(1.0, abs(fd))
    assert abs(T.b_prime(2, 0.5)) < 1e-6  # stationary at a*
    assert abs(T.b_prime(3, 2 / 3)) < 1e-6


def test_b_domain():
    with pytest.raises(InvalidParam):
        T.b_of_a(2, 0.0)
    with pytest.raises(InvalidParam):
        T.b_of_a(2, 1.5)


# ---- connectivity predictors -----------------------------------------------------

def test_conn_limit_prob():
    assert abs(T.conn_limit_prob(2, 2, 0.0) - math.exp(-1)) < 1e-12
    assert T.conn_limit_prob(2, 2, 3.0) > T.conn_limit_prob(2, 2, 0.0)
    assert abs(T.conn_limit_prob(3, 3, 0.0) - math.exp(-1)) < 1e-12
    with pytest.raises(InvalidParam):
        T.conn_limit_prob(2, 1, 0.0)


def test_ko_alpha_bound_pinned():
    assert abs(T.ko_alpha_bound(2) - 3.81884167930642) < 1e-12
    assert abs(T.ko_alpha_bound(3) - 2.738132741922804) < 1e-12
    assert T.ko_alpha_bound(2) > T.ko_alpha_bound(3) > T.ko_alpha_bound(5)


def test_lb_alpha_is_the_sign_change():
    for q, t in [(2, 0.2), (2, 0.5), (3, 0.3)]:
        a = T.lb_alpha(q, t)
        assert T._lb_lhs(q, t, a - 1e-6) > 0 > T._lb_lhs(q, t, a + 1e-6)
    with pytest.raises(InvalidParam):
        T.lb_alpha(2, 0.0)


def test_lb_alpha_below_ko_bound():
    # the first-moment lower bound never exceeds the upper-bound constant
    for q in (2, 3):
        hi = T.ko_alpha_bound(q)
        for i in range(1, 19):
            assert T.lb_alpha(q, i / 20) <= hi


def test_tau_conn_asymptotic():
    assert abs(T.tau_conn_asymptotic(2, 1, 8) - (8 + math.log2(8))) < 1e-12
    with pytest.raises(InvalidParam):
        T.tau_conn_asymptotic(2, 5, 4)


# ---- critical number predictors ----------------------------------------------------

def test_crt_predictors():
    tau, ex, pi = T.crt_predictors(2, 1, 10, 9)
    assert abs(tau - 9.0) < 1e-12  # -k(n-k) log q / log(1 - q^-k) at q=2, k=1
    assert abs(ex - T.gaussian_binomial(10, 1, 2) * 0.5**9) < 1e-9
    assert len(pi) == 2
    assert pi == sorted(pi)  # pi_h grows with the overlap dimension h
    with pytest.raises(InvalidParam):
        T.crt_predictors(2, 3, 3, 5)


def test_check_inequality_table():
    for q in range(2, 6):
        for k in range(1, 11):
            assert T.check_inequality(q, k) == (not (q == 2 and k == 1))
    with pytest.raises(InvalidParam):
        T.check_inequality(1, 1)


def test_poisson_bounds_pinned():
    lo, hi = T.poisson_bounds(35, 7)
    assert abs(lo - 2 * (1 - math.exp(-5.0)) ** 7) < 1e-12
    assert abs(hi - 14 * math.exp(-5.0)) < 1e-12
    with pytest.raises(InvalidParam):
        T.poisson_bounds(3, 0)
