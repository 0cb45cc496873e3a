"""Field construction and arithmetic, checked exhaustively at small orders."""

import pickle

import pytest
from hypothesis import given, strategies as st

from fqmatroid.errors import NotPrimePower, TooLarge
from fqmatroid.fqlinalg import MAX_ORDER, make_field
from conftest import axiom_violations

PRIME_POWERS_SMALL = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64]


@pytest.mark.parametrize("q", PRIME_POWERS_SMALL)
def test_axioms_exhaustive(q):
    assert axiom_violations(make_field(q)) == 0


@pytest.mark.parametrize("q", [6, 10, 12, 15, 100, 1])
def test_rejects_non_prime_powers(q):
    with pytest.raises(NotPrimePower):
        make_field(q)


def test_rejects_oversized_order():
    with pytest.raises(TooLarge):
        make_field(MAX_ORDER * 2)


def test_field_metadata():
    F = make_field(9)
    assert (F.q, F.p, F.e) == (9, 3, 2)
    assert (make_field(2).p, make_field(2).e) == (2, 1)
    assert list(make_field(3).elements()) == [0, 1, 2]


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16])
def test_inverses(q):
    F = make_field(q)
    for a in range(1, q):
        assert F.mul(a, F.inv(a)) == 1
    for a in range(q):
        assert F.add(a, F.neg(a)) == 0
        # a / b = a * b^-1 undoes multiplication by b
        assert all(F.mul(F.mul(a, F.inv(b)), b) == a for b in range(1, q))
        assert F.sub(a, a) == 0


def test_inv_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        make_field(4).inv(0)
    with pytest.raises(ZeroDivisionError):
        make_field(5).inv(0)


@pytest.mark.parametrize("q", [2, 5, 8, 9])
def test_pickle_round_trip(q):
    F = make_field(q)
    G = pickle.loads(pickle.dumps(F))
    assert G.q == F.q
    assert all(G.mul(a, b) == F.mul(a, b) for a in range(q) for b in range(q))


def test_same_order_same_tables():
    # construction is deterministic: one canonical modulus per order
    A, B = make_field(16), make_field(16)
    assert A.modulus == B.modulus
    assert all(A.mul(a, b) == B.mul(a, b) for a in range(16) for b in range(16))


@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.data())
def test_frobenius_is_additive(q, data):
    # (a + b)^p = a^p + b^p in characteristic p
    F = make_field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))

    def frob(x):
        out = 1
        for _ in range(F.p):
            out = F.mul(out, x)
        return out

    assert frob(F.add(a, b)) == F.add(frob(a), frob(b))
