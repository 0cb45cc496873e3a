"""Enumeration of subspaces of F_q^n in canonical reduced-echelon form, and
the numpy tables that index the same order: per level, the death index of
every subspace along a list of columns, from which the critical number
follows."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from ..errors import BudgetExceeded, ConsistencyError, InvalidParam
from ..theory import gaussian_binomial
from .fields import FieldSpec, make_field

DEFAULT_SUBSPACE_BUDGET = 10**7
# spaces per level of the death-index tables (and points sample_pg_model lists)
DEFAULT_LEVEL_BUDGET = 10**6


@dataclass(frozen=True)
class SubspaceHandle:
    """A k-dimensional subspace as the row space of a canonical RREF matrix."""

    n: int
    dim: int
    rows: tuple  # tuple of k row tuples, pivots strictly increasing


def enumerate_subspaces(field: FieldSpec, n: int, k: int,
                        budget: int = DEFAULT_SUBSPACE_BUDGET):
    """Iterate every k-dimensional subspace of F_q^n exactly once.

    Subspaces come out in a stable total order: pivot patterns in
    lexicographic order, then free entries filled in row-major order with
    field elements ascending.  Raises BudgetExceeded up front when the
    subspace count passes the budget.
    """
    if not 0 <= k <= n:
        raise InvalidParam(f"dimension {k} outside [0, {n}]")
    total = gaussian_binomial(n, k, field.q)
    if total > budget:
        raise BudgetExceeded(f"{total} subspaces exceed budget {budget}")
    return _iter_subspaces(field, n, k)


def _iter_subspaces(field: FieldSpec, n: int, k: int):
    if k == 0:
        yield SubspaceHandle(n=n, dim=0, rows=())
        return
    elems = list(field.elements())
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        cells = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n)
                 if j not in pivot_set]
        for fill in itertools.product(elems, repeat=len(cells)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), val in zip(cells, fill):
                rows[i][j] = val
            yield SubspaceHandle(n=n, dim=k, rows=tuple(tuple(r) for r in rows))


def canonical_point(field: FieldSpec, col) -> tuple | None:
    """Projective representative of col (first nonzero entry 1); None for zero."""
    lead = next((x for x in col if x), 0)
    if lead <= 1:
        return tuple(col) if lead else None
    s = field.inv(lead)
    return tuple(field.mul(s, x) for x in col)


def projective_points(field: FieldSpec, n: int) -> list[tuple]:
    """Canonical representatives of the 1-dimensional subspaces of F_q^n.

    Each representative has first nonzero coordinate 1; ordering matches
    enumerate_subspaces(field, n, 1).
    """
    elems = list(field.elements())
    out = []
    for lead in range(n):
        for tail in itertools.product(elems, repeat=n - lead - 1):
            out.append((0,) * lead + (1,) + tail)
    return out


# ---- death indices ------------------------------------------------------


@lru_cache(maxsize=64)
def _schubert_cells(q: int, n: int, k: int) -> tuple:
    """Per pivot pattern (Schubert cell) of the k-dimensional subspaces of F_q^n,
    in enumerate_subspaces order, the open mesh (np.ix_) of the projective_points
    indices its k reduced basis rows run through; raveled in C order, it lists
    the cell's spaces in table order.  Point (0,..,0,1,x_{l+1},..) has index
    offsets[l] + sum_j x_j q^(n-1-j), and the smallest free j varies slowest."""
    offsets = np.cumsum([0] + [q ** (n - 1 - lead) for lead in range(n - 1)])
    cells = []
    for pivots in itertools.combinations(range(n), k):
        places = [[np.arange(q) * q ** (n - 1 - j)
                   for j in range(lead + 1, n) if j not in pivots] for lead in pivots]
        cells.append(np.ix_(*[np.ravel(offsets[lead] + sum(np.ix_(*row)))
                              for lead, row in zip(pivots, places)]))
    return tuple(cells)


@lru_cache(maxsize=16)  # E10: the reporter's 4 (3, n) pairs beside the trials' 2
def _digit_tables(q: int, n: int) -> tuple:
    """Base-p digits (least significant first) of projective_points(F_q, n),
    n*e per point; and the multiplication map of every element x of F_q,
    a (q, e, e) array whose row t holds the digits of x * X^t.  Both are
    float64, so products run in BLAS and stay exact."""
    field = make_field(q)
    p, e = field.p, field.e
    elem = (np.arange(q)[:, None] // p ** np.arange(e) % p).astype(np.float64)
    step = np.eye(e, k=1)  # digits(X*y) = digits(y) @ step mod p
    step[e - 1] = [-c % p for c in field.modulus[:e]]
    maps = [elem]
    for _ in range(e - 1):
        maps.append(maps[-1] @ step % p)
    # points led by coordinate l: e_l plus the base-q digits of arange(q^(n-1-l))
    places = q ** np.arange(n - 1, -1, -1)
    coords = np.concatenate([np.arange(q ** (n - 1 - lead))[:, None] // places % q
                             + np.eye(n, dtype=np.int64)[lead] for lead in range(n)])
    return elem[coords].reshape(len(coords), -1), np.stack(maps, axis=1)


def _syndrome_words(field: FieldSpec, n: int, cols) -> np.ndarray:
    """Per projective point a, the columns packed 64 to a word: bit j of word
    w is set when <a, cols[64w + j]> != 0, and the padding bits are set.
    cols is an (m, n) integer array of field elements, one row per column,
    or a list of m column tuples.  The inner products are one product over
    F_p of the points' digits with the multiplication maps of the columns'
    entries, which the entries index directly; its sums stay below
    n*e*p^2 < 2^53, so float64 is exact.  q = 2 needs no product
    (_gf2_syndrome_words)."""
    cols = np.asarray(cols)
    if field.q == 2:
        return _gf2_syndrome_words(n, cols)
    digits, mul = _digit_tables(field.q, n)
    p, e = field.p, field.e
    # row (i, t) of a column's map holds the digits of entry i times X^t
    maps = mul[cols].transpose(1, 2, 0, 3).reshape(n * e, -1)
    prod = digits @ maps
    bits = np.ones((len(prod), -(-len(cols) // 64) * 64), dtype=bool)
    # prod mod p != 0, without the slow float modulo
    bits[:, :len(cols)] = (prod != p * np.floor(prod / p)).reshape(len(prod), -1, e).any(-1)
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _gf2_syndrome_words(n: int, cols: np.ndarray) -> np.ndarray:
    """_syndrome_words over F_2: <a, v> is the parity of a AND v, so the word
    of a is the XOR of the packed coordinate rows of cols that a selects.
    Doubling over the coordinates from the last gives every nonzero a its
    word with one XOR, and the points led by coordinate i as one block, in
    projective_points order."""
    count = len(cols)
    bits = np.zeros((n, -(-count // 64) * 64), dtype=np.uint8)
    bits[:, :count] = cols.T
    coords = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    span = np.zeros((1 << n, coords.shape[1]), dtype=np.uint64)
    blocks = []
    for i in reversed(range(n)):
        half = 1 << (n - 1 - i)
        blocks.append(np.bitwise_xor(span[:half], coords[i], out=span[half:2 * half]))
    words = np.concatenate(blocks[::-1])
    pad = -count % 64
    words[:, -1] |= np.uint64(((1 << pad) - 1) << (64 - pad))
    return words


def _death_indices(words: np.ndarray, count: int, q: int, n: int, k: int) -> np.ndarray:
    """Per codimension-k subspace, in table order, the index of the first of
    the `count` columns behind `words` that it contains; `count` if none.

    The subspace is the annihilator of a dual space U whose reduced basis rows
    are projective points, and it contains v when every row u has <u, v> = 0.
    An outer OR over each Schubert cell's mesh (no table of bases is read)
    marks, per U, the columns that some row misses; the lowest zero bit of the
    first word that is not all ones is the first column U contains.  Every
    word reuses the same full-length buffers."""
    cells = _schubert_cells(q, n, k)
    table, low = np.empty((2, gaussian_binomial(n, k, q)), dtype=np.uint64)
    ones, death = np.empty((2, len(table)), dtype=np.intp)
    death.fill(count)
    for w in reversed(range(words.shape[1])):
        word = words[:, w]
        # level 1 lists the points themselves, in projective_points order
        orred = word if k == 1 else np.concatenate(
            [reduce(np.bitwise_or, [word[ix] for ix in mesh]).ravel() for mesh in cells],
            out=table)
        np.add(orred, 1, out=low)
        np.invert(low, out=low)
        np.bitwise_and(low, orred, out=low)  # the trailing ones of each OR'd word
        np.bitwise_count(low, out=ones)
        zero = ones < 64
        ones += 64 * w
        np.copyto(death, ones, where=zero)
    return death


def level_deaths(field: FieldSpec, n: int, cols, deaths: list,
                 top: int | None = None) -> list:
    """Extend deaths = [E_0, .., E_j] upward and return it: E_k is the largest
    death index at level k over the loopless `cols`, and E_0 = 0.  chi of the
    first m columns is the least k with E_k >= m.  `cols` is an (m, n)
    integer array of field elements, one row per column, or a list of m
    column tuples.

    Levels stop at the first that survives all of `cols` (E_k = len(cols)),
    or at level `top`; each checks its subspace count against the budget
    before any table is read."""
    words = None
    while deaths[-1] < len(cols) and len(deaths) - 1 != top:
        k = len(deaths)
        if k > n:
            raise ConsistencyError("no avoiding subspace at full dual level")
        count = gaussian_binomial(n, k, field.q)
        if count > DEFAULT_LEVEL_BUDGET:
            raise BudgetExceeded(f"{count} candidate subspaces at level {k} exceed"
                                 f" budget {DEFAULT_LEVEL_BUDGET}")
        if words is None:
            words = _syndrome_words(field, n, cols)
        deaths.append(int(_death_indices(words, len(cols), field.q, n, k).max()))
    return deaths
