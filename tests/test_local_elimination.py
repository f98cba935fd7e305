"""The local route (elimination over Z/p^e) against the Z route (the
certified Smith form) and, where it is small enough, the enumeration
oracle."""

import random

from helpers import (ENGINE_QUIVERS, dense_quiver, random_ladder_quiver,
                     random_no_source_quiver)
from leavittk.groups import (FinAbGroup, Modulus, brute_force_mod_oracle,
                             cokernel_mod, kernel_cokernel,
                             kernel_cokernel_mod, kernel_mod,
                             local_smith_exponents)
from leavittk.ktheory import leavitt_matrix
from leavittk.matrices import IntMatrix, smith_normal_form

MODULI = (2, 2 ** 7, 49, 72, 360, 10 ** 18 + 3)
ORACLE_SIZE = 1000  # largest m**rows and m**cols the oracle is run on


def agree(matrix: IntMatrix, m: int):
    modulus = Modulus.of(m)
    local = kernel_cokernel_mod(matrix, modulus)
    assert local == kernel_cokernel(smith_normal_form(matrix), modulus), \
        (matrix, m)
    if max(m ** matrix.rows, m ** matrix.cols) <= ORACLE_SIZE:
        assert local == brute_force_mod_oracle(matrix, modulus), (matrix, m)


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int):
    if rows == 0:
        return IntMatrix.zero(0, cols)
    return IntMatrix([[rng.choice((0, rng.randint(-bound, bound)))
                       for _ in range(cols)] for _ in range(rows)])


def test_random_matrices_with_large_entries_and_empty_shapes():
    rng = random.Random(20)
    for _ in range(150):
        matrix = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5),
                               rng.choice((3, 10 ** 6, 10 ** 30)))
        for m in MODULI:
            agree(matrix, m)


def test_random_small_matrices_against_oracle():
    rng = random.Random(21)
    for _ in range(150):
        matrix = random_matrix(rng, rng.randint(0, 3), rng.randint(0, 3), 40)
        agree(matrix, rng.choice((2, 4, 8, 9, 12, 27, 49, 72)))


def test_structured_valuations():
    # pivots of every valuation, so the elimination runs all its phases
    rng = random.Random(22)
    for _ in range(60):
        n = rng.randint(1, 6)
        diag = IntMatrix([[2 ** rng.randint(0, 8) * 3 ** rng.randint(0, 3)
                           if i == j else 0 for j in range(n)]
                          for i in range(n)])
        left = random_matrix(rng, n, n, 3)
        right = random_matrix(rng, n, n, 3)
        mixed = left @ diag @ right + diag
        for m in (2 ** 7, 72, 360):
            agree(diag, m)
            agree(mixed, m)


def test_tier1_quivers():
    rng = random.Random(23)
    quivers = list(ENGINE_QUIVERS.values())
    quivers += [random_no_source_quiver(rng, max_vertices=4, max_arrows=9)
                for _ in range(60)]
    for q in quivers:
        for m in MODULI:
            agree(leavitt_matrix(q), m)


def test_ladder_and_dense_quivers():
    rng = random.Random(24)
    quivers = [random_ladder_quiver(rng, v, apv, sinks)
               for v, apv, sinks in ((10, 3, 0), (12, 3, 2), (20, 3, 0),
                                     (40, 5, 4), (40, 3, 0))]
    quivers += [dense_quiver(rng, v, 40) for v in (3, 8, 20)]
    for q in quivers:
        matrix = leavitt_matrix(q)
        dec = smith_normal_form(matrix)
        for m in MODULI:
            modulus = Modulus.of(m)
            assert kernel_cokernel_mod(matrix, modulus) \
                == kernel_cokernel(dec, modulus), (q.v, m)


def test_local_exponents_fixtures():
    m = IntMatrix([[4, 0, 0], [0, 6, 0], [0, 0, 0]])
    assert local_smith_exponents(m, 2, 3) == (1, 2)
    assert local_smith_exponents(m, 2, 2) == (1,)
    assert local_smith_exponents(m, 3, 1) == (0,)
    assert local_smith_exponents(m, 5, 2) == (0, 0)
    assert local_smith_exponents(IntMatrix.zero(0, 3), 2, 1) == ()
    assert local_smith_exponents(IntMatrix([[8]]), 2, 3) == ()


def test_zero_by_three_map():
    zero_by_three = IntMatrix.zero(0, 3)
    assert (zero_by_three.rows, zero_by_three.cols) == (0, 3)
    for m in (2, 12, 25):
        modulus = Modulus.of(m)
        want = (FinAbGroup.from_cyclic_orders([m] * 3), FinAbGroup.trivial())
        assert (kernel_mod(zero_by_three, modulus),
                cokernel_mod(zero_by_three, modulus)) == want
        assert kernel_cokernel(smith_normal_form(zero_by_three), modulus) \
            == want
        assert brute_force_mod_oracle(zero_by_three, modulus) == want


def test_lower_powers_by_tensoring():
    # the groups over Z/l^nu are those over Z/l^E tensored with Z/l^nu for
    # every nu <= E, which lets divisibility_report eliminate once per l
    rng = random.Random(25)
    entries = (0, 1, 2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 125, 243)
    for _ in range(200):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        matrix = IntMatrix.zero(0, cols) if rows == 0 else IntMatrix(
            [[rng.choice(entries) * rng.choice((1, -1, 7)) for _ in range(cols)]
             for _ in range(rows)])
        for l in (2, 3, 5):
            for top in range(1, 6):
                over_top = kernel_cokernel_mod(matrix,
                                               Modulus(l ** top, ((l, top),)))
                for nu in range(1, top + 1):
                    assert tuple(g.tensor_with_cyclic(l ** nu)
                                 for g in over_top) \
                        == kernel_cokernel_mod(matrix, Modulus.of(l ** nu)), \
                        (matrix, l, top, nu)
