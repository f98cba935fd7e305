import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import matrix_power
from leavittk.matrices import IntMatrix, SmithDecomposition, smith_normal_form


def test_shape_and_entries():
    m = IntMatrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.entries == (1, 2, 3, 4, 5, 6)
    assert m[1, 2] == 6


def test_non_integral_entries_rejected():
    # entries go through operator.index: a float is refused, not truncated
    for entries in ([[2.5, 1.9]], [[1.0]], [[1, "2"]]):
        with pytest.raises(TypeError):
            IntMatrix(entries)
    assert IntMatrix([[True, 3]]).tolists() == [[1, 3]]
    assert type(IntMatrix([[True]])[0, 0]) is int
    # shapes go through operator.index too
    for bad in (2.0, Fraction(2)):
        for make in (lambda: IntMatrix.zero(bad, 2),
                     lambda: IntMatrix.zero(2, bad),
                     lambda: IntMatrix.identity(bad),
                     lambda: IntMatrix.identity_below_zero(3, bad)):
            with pytest.raises(TypeError):
                make()
    assert IntMatrix.identity(True) == IntMatrix([[1]])


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


def test_matmul_and_power():
    a = IntMatrix([[1, 1], [0, 1]])
    assert (a @ a).tolists() == [[1, 2], [0, 1]]
    assert matrix_power(a, 5).tolists() == [[1, 5], [0, 1]]
    assert matrix_power(a, 0) == IntMatrix.identity(2)


@pytest.mark.parametrize("call, message", (
    (lambda: IntMatrix([[1, 2]]) + IntMatrix([[1], [2]]), "shape mismatch"),
    (lambda: IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]]),
     "shape mismatch in product"),
    (lambda: IntMatrix([[1, 2]]).determinant(),
     "determinant needs a square matrix"),
), ids=("add", "matmul", "determinant"))
def test_shape_mismatch_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_determinant_fixtures():
    assert IntMatrix([[2, 4], [6, 8]]).determinant() == -8
    assert IntMatrix([[1, 2], [2, 4]]).determinant() == 0
    assert IntMatrix.identity(3).determinant() == 1
    assert IntMatrix([[-2]]).determinant() == -2
    assert IntMatrix([]).determinant() == 1
    # zero pivot columns: no row below can be swapped up, so Bareiss stops
    assert IntMatrix([[0, 1], [0, 2]]).determinant() == 0
    assert IntMatrix([[1, 2, 3], [2, 4, 5], [0, 0, 1]]).determinant() == 0


def test_determinant_matches_permanent_expansion():
    # Independent 3x3 rule-of-Sarrus oracle.
    rng = random.Random(7)
    for _ in range(50):
        e = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        sarrus = (e[0][0] * e[1][1] * e[2][2] + e[0][1] * e[1][2] * e[2][0]
                  + e[0][2] * e[1][0] * e[2][1] - e[0][2] * e[1][1] * e[2][0]
                  - e[0][0] * e[1][2] * e[2][1] - e[0][1] * e[1][0] * e[2][2])
        assert IntMatrix(e).determinant() == sarrus


def fraction_determinant(rows):
    """Determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def test_determinant_matches_fraction_elimination():
    # small entries make many of these singular, with zero pivots on the way
    rng = random.Random(26)
    singular = 0
    for _ in range(1500):
        n = rng.randint(1, 6)
        e = [[rng.choice((0, 1, -1, 2, 3)) for _ in range(n)]
             for _ in range(n)]
        det = IntMatrix(e).determinant()
        assert det == fraction_determinant(e)
        singular += det == 0
    assert singular > 100


def test_snf_basic_fixture():
    # |det| = 8 forces d1*d2 = 8 and the entry gcd forces d1 = 2.
    dec = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert [dec.D[i, i] for i in range(2)] == [2, 4]
    assert dec.verify()


def test_snf_identity_and_zero():
    dec = smith_normal_form(IntMatrix.identity(3))
    assert dec.D == IntMatrix.identity(3)
    assert dec.verify()

    zero = IntMatrix.zero(2, 3)
    dec = smith_normal_form(zero)
    assert dec.D == zero
    assert dec.U == IntMatrix.identity(2)
    assert dec.V == IntMatrix.identity(3)
    assert dec.verify()


def certificate(matrix, U, D, V=None):
    n = len(matrix[0])
    return SmithDecomposition(U=IntMatrix(U), D=IntMatrix(D),
                              V=IntMatrix(V) if V else IntMatrix.identity(n),
                              matrix=IntMatrix(matrix))


def test_verify_rejects_each_broken_condition():
    identity = [[1, 0], [0, 1]]
    assert certificate([[1, 0], [0, 2]], identity, [[1, 0], [0, 2]]).verify()
    broken = {
        "U M V != D": certificate([[1, 0], [0, 2]], identity,
                                  [[1, 0], [0, 4]]),
        "U not unimodular": certificate([[1, 0], [0, 0]], [[1, 0], [0, 2]],
                                        [[1, 0], [0, 0]]),
        "V not unimodular": certificate([[1, 0], [0, 0]], identity,
                                        [[1, 0], [0, 0]], [[1, 0], [0, 2]]),
        "off-diagonal entry": certificate([[1, 1], [0, 1]], identity,
                                          [[1, 1], [0, 1]]),
        "negative diagonal": certificate([[-1]], [[1]], [[-1]]),
        "zero before nonzero": certificate([[0, 0], [0, 1]], identity,
                                           [[0, 0], [0, 1]]),
        "broken divisibility": certificate([[2, 0], [0, 3]], identity,
                                           [[2, 0], [0, 3]]),
    }
    assert [name for name, s in broken.items() if s.verify()] == []


def test_snf_empty_shapes():
    for shape in [(0, 0), (0, 3), (2, 0)]:
        m = IntMatrix.zero(*shape)
        dec = smith_normal_form(m)
        assert dec.verify()
        assert dec.rank == 0


def test_snf_deterministic():
    m = IntMatrix([[3, 1, -4], [2, -3, 1], [0, 5, 9]])
    a = smith_normal_form(m)
    b = smith_normal_form(m)
    assert (a.U, a.D, a.V) == (b.U, b.D, b.V)


def test_snf_known_divisibility_example():
    m = IntMatrix([[12, 6, 4], [3, 9, 6], [2, 16, 14]])
    dec = smith_normal_form(m)
    assert dec.verify()
    ds = dec.invariant_factors
    # Product of the d_i equals |det|.
    det = abs(m.determinant())
    prod = 1
    for d in ds:
        prod *= d
    assert prod == det
    # Hand-computed: the first pivot leaves a clean row and column but
    # does not divide the rest, so the loop repairs the chain first.
    for entries, factors in (
            ([[2, 0], [0, 3]], (1, 6)),
            ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], (2, 2, 60)),
            ([[9, 0, 0], [0, 6, 0], [0, 0, 4]], (1, 6, 36)),
            ([[6, 4], [4, 6]], (2, 10))):
        dec = smith_normal_form(IntMatrix(entries))
        assert dec.verify()
        assert dec.invariant_factors == factors


@st.composite
def int_matrices(draw, max_dim=4, max_entry=9):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(st.lists(
        st.lists(st.integers(-max_entry, max_entry), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return IntMatrix(entries)


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_snf_certificate_property(m):
    assert smith_normal_form(m).verify()


@settings(max_examples=60, deadline=None)
@given(int_matrices(max_dim=3, max_entry=5))
def test_rank_bounded_by_dims(m):
    r = smith_normal_form(m).rank
    assert 0 <= r <= min(m.rows, m.cols)


def _snf_corpus():
    """250 seeded matrices up to 7x7: entries up to 10^30 in magnitude,
    some rows and columns zeroed, and a few shapes with no rows or no
    columns."""
    rng = random.Random(20161)
    corpus = [IntMatrix.zero(0, 0), IntMatrix.zero(0, 4), IntMatrix.zero(3, 0)]
    while len(corpus) < 250:
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        bound = 10 ** rng.choice((1, 2, 6, 30))
        e = [[rng.randint(-bound, bound) for _ in range(cols)]
             for _ in range(rows)]
        for _ in range(rng.randint(0, 2)):
            e[rng.randrange(rows)] = [0] * cols
        for _ in range(rng.randint(0, 2)):
            j = rng.randrange(cols)
            for row in e:
                row[j] = 0
        corpus.append(IntMatrix(e))
    return corpus


def test_snf_output_pinned():
    # D is unique, so its digest over the corpus has not moved since the
    # corpus was made.  The U, D, V digest was recorded when the
    # divisibility-chain repair moved into the pivot loop, which changed
    # U and V on purpose; it guards the certificates against later
    # refactors that keep the pivot rule.
    def update(h, part):
        # hex(): the certificates outgrow the decimal str() limit.
        h.update(f"{part.rows} {part.cols}:".encode())
        h.update(" ".join(map(hex, part.entries)).encode() + b";")

    d_digest, udv_digest = hashlib.sha256(), hashlib.sha256()
    for m in _snf_corpus():
        dec = smith_normal_form(m)
        assert dec.verify()
        update(d_digest, dec.D)
        for part in (dec.U, dec.D, dec.V):
            update(udv_digest, part)
    assert d_digest.hexdigest() == (
        "d004a23e37d62e1454811ae9c3f3e8986139df4e696312530a510fd0128e5475")
    assert udv_digest.hexdigest() == (
        "7c63b8fd397eeadbc0dedd23c572a1c44ea2d441a9a7d448f7c0f2ad490bdb73")
