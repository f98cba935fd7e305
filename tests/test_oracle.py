"""The enumeration oracle against the literal definitions of kernel and
cokernel torsion, on every instance small enough to walk (Z/m)^cols and
(Z/m)^rows in full."""

import random
from math import gcd, prod

import pytest

from helpers import call_within, literal_torsion_counts
from leavittk import groups
from leavittk.groups import Modulus, brute_force_mod_oracle
from leavittk.matrices import IntMatrix

WALK_SIZE = 4096  # largest m**rows and m**cols walked by the reference
MODULI = (2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 25, 27, 36, 64, 72)


def torsion_count(group, q: int) -> int:
    """Order of the q-torsion of a finite group: gcd(d, q) per Z/d."""
    return prod(gcd(d, q) for d in group.torsion)


def matches_definitions(matrix: IntMatrix, m: int):
    modulus = Modulus.of(m)
    qs = [p ** j for p, e in modulus.factorization for j in range(e + 1)]
    kernel, cokernel = brute_force_mod_oracle(matrix, modulus)
    for q, (killed, lifted) in literal_torsion_counts(matrix, m, qs).items():
        assert (torsion_count(kernel, q), torsion_count(cokernel, q)) \
            == (killed, lifted), (matrix, m, q)


def small_shapes(m: int):
    return [(r, c) for r in range(7) for c in range(7)
            if m ** r <= WALK_SIZE and m ** c <= WALK_SIZE]


@pytest.fixture(autouse=True)
def no_elimination(monkeypatch):
    """The oracle must share no code with either elimination route: not
    the Smith form, not the pivot phases over Z/m, and not the builder
    that turns their pivot exponents into groups."""
    def boom(*args, **kwargs):
        raise AssertionError("the oracle called an elimination route")

    for name in ("_pivot_phase", "kernel_cokernel_mod", "smith_normal_form"):
        monkeypatch.setattr(groups, name, boom)
    monkeypatch.setattr(groups.FinAbGroup, "from_primary_parts", boom)


def test_random_matrices():
    rng = random.Random(40)
    for m in MODULI:
        for rows, cols in small_shapes(m):
            if rows and cols:
                matches_definitions(IntMatrix(
                    [[rng.choice((0, rng.randint(-3 * m, 3 * m)))
                      for _ in range(cols)] for _ in range(rows)]), m)


def test_diagonal_pivots_of_every_valuation():
    # each entry p^k * unit with 0 <= k <= e + 1, so some vanish mod m
    rng = random.Random(41)
    for m in MODULI:
        modulus = Modulus.of(m)
        for rows, cols in small_shapes(m):
            if not (rows and cols):
                continue
            for _ in range(2):
                entries = []
                for _ in range(min(rows, cols)):
                    p, e = rng.choice(modulus.factorization)
                    entries.append(p ** rng.randint(0, e + 1)
                                   * rng.choice((1, -1, 5, 7)))
                matrix = IntMatrix([[entries[i] if i == j else 0
                                     for j in range(cols)]
                                    for i in range(rows)])
                matches_definitions(matrix, m)


def test_empty_shapes():
    for m in MODULI:
        for rows, cols in small_shapes(m):
            if not (rows and cols):
                matches_definitions(IntMatrix.zero(rows, cols), m)


def test_counts_hold_for_every_q(monkeypatch):
    # The classifier asks only for q = p^j dividing m; record the
    # oracle's two counting callbacks and check them for every q in
    # 1..m, including those where gcd(q, m) and q differ.
    callbacks = []
    classify = groups._classify_by_annihilator_counts

    def recording(modulus, count_killed):
        callbacks.append(count_killed)
        return classify(modulus, count_killed)

    monkeypatch.setattr(groups, "_classify_by_annihilator_counts", recording)
    rng = random.Random(42)
    for m in (4, 6, 9, 12, 18):
        for rows, cols in small_shapes(m):
            if not (rows and cols) or m ** max(rows, cols) > 1000:
                continue
            matrix = IntMatrix([[rng.randint(0, m - 1) for _ in range(cols)]
                                for _ in range(rows)])
            callbacks.clear()
            brute_force_mod_oracle(matrix, Modulus.of(m))
            kernel_count, cokernel_count = callbacks
            qs = range(1, m + 1)
            for q, pair in literal_torsion_counts(matrix, m, qs).items():
                assert (kernel_count(q), cokernel_count(q)) == pair, \
                    (matrix, m, q)


@pytest.mark.parametrize("count", [lambda q: 0, lambda q: 0 if q > 1 else 1],
                         ids=["always-zero", "zero-above-one"])
def test_zero_count_raises(count):
    # No true torsion count is 0; a wrong one must fail the classifier's
    # check at once instead of looping on c % p == 0.
    got = call_within(2, lambda: groups._classify_by_annihilator_counts(
        Modulus.of(12), count))
    assert isinstance(got, AssertionError)
