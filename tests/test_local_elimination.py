"""The local route (elimination over Z/p^e) against the Z route (the
certified Smith form) and, where it is small enough, the enumeration
oracle."""

import random
from functools import reduce
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ENGINE_QUIVERS, dense_quiver, random_ladder_quiver,
                     random_no_source_quiver)
from leavittk.cli import parse_records
from leavittk.groups import (_ORACLE_BOUND, FinAbGroup, Modulus,
                             brute_force_mod_oracle,
                             cokernel_mod, kernel_cokernel,
                             kernel_cokernel_mod, kernel_mod)
from leavittk.ktheory import leavitt_matrix
from leavittk.matrices import IntMatrix, smith_normal_form
from leavittk.quiver import parse_quiver
from test_cli import run_cli

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
    # over Z/p^e each Smith exponent k adds Z/p^k to both groups, and
    # each unused column (row) a full Z/p^e to the kernel (cokernel)
    m = IntMatrix([[4, 0, 0], [0, 6, 0], [0, 0, 0]])
    for matrix, p, e, exponents in [
            (m, 2, 3, (1, 2)), (m, 2, 2, (1,)), (m, 3, 1, (0,)),
            (m, 5, 2, (0, 0)), (IntMatrix.zero(0, 3), 2, 1, ()),
            (IntMatrix([[8]]), 2, 3, ())]:
        kernel, cokernel = (FinAbGroup.from_cyclic_orders(
            [p ** k for k in exponents] + [p ** e] * (n - len(exponents)))
            for n in (matrix.cols, matrix.rows))
        assert kernel_cokernel_mod(matrix, Modulus.of(p ** e)) \
            == (kernel, cokernel), (matrix, p, e)


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
    # the groups over Z/l^nu are those over Z/l^E, or over Z/M for M a
    # product of such top powers, tensored with Z/l^nu for every nu <= E,
    # which lets divisibility_report eliminate once for all its primes
    rng = random.Random(25)
    pick = random.Random(26)  # the product's primes, apart from the matrices
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
        tops = tuple((l, pick.randint(1, 4)) for l in (2, 3, 5)
                     if pick.random() < 0.7) or ((7, 2),)
        over_product = kernel_cokernel_mod(
            matrix, Modulus(prod(l ** e for l, e in tops), tops))
        for l, top in tops:
            for nu in range(1, top + 1):
                assert tuple(g.tensor_with_cyclic(l ** nu)
                             for g in over_product) \
                    == kernel_cokernel_mod(matrix, Modulus.of(l ** nu)), \
                    (matrix, tops, l, nu)


def per_prime_assembly(matrix: IntMatrix, modulus: Modulus) -> tuple:
    """(kernel, cokernel) as the direct sum, over the prime powers p^e of
    m, of the groups over Z/p^e (Chinese remainders): one full local
    elimination per prime power, the route that the shared unit phase
    replaces."""
    local = [kernel_cokernel_mod(matrix, Modulus.of(p ** e))
             for p, e in modulus.factorization]
    return tuple(reduce(FinAbGroup.direct_sum, groups)
                 for groups in zip(*local))


PROPERTY_ENTRIES = (0, 1, -1, 2, -2, 3, 4, 6, 8, 9, 12, 27)


@st.composite
def unit_rich_matrices(draw):
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    if rows == 0:
        return IntMatrix.zero(0, cols)
    return IntMatrix(draw(st.lists(
        st.lists(st.sampled_from(PROPERTY_ENTRIES), min_size=cols,
                 max_size=cols), min_size=rows, max_size=rows)))


@settings(max_examples=150, deadline=None)
@given(unit_rich_matrices(), st.sampled_from((4, 6, 12, 27, 360, 1470)))
def test_shared_unit_phase_matches_every_route(matrix, m):
    modulus = Modulus.of(m)
    local = kernel_cokernel_mod(matrix, modulus)
    assert local == per_prime_assembly(matrix, modulus)
    assert local == kernel_cokernel(smith_normal_form(matrix), modulus)
    if max(m ** matrix.rows, m ** matrix.cols) <= _ORACLE_BOUND:
        assert local == brute_force_mod_oracle(matrix, modulus)


def test_cli_on_a_300_vertex_ladder(tmp_path):
    """`kmod --mod 360` on ladder(300), one cycle arrow plus 3 arrows to
    vertices drawn from random.Random(300) per vertex: the shared unit
    phase against one full local elimination per prime power."""
    rng, n = random.Random(300), 300
    path = tmp_path / "big.q"
    path.write_text("\n".join(
        ["vertices " + " ".join(f"v{i}" for i in range(n))]
        + [f"arrow c{i} v{i} v{(i + 1) % n}" for i in range(n)]
        + [f"arrow e{i}_{k} v{i} v{rng.randrange(n)}"
           for i in range(n) for k in range(3)]) + "\n")
    code, out, err = run_cli(["kmod", str(path), "--mod", "360",
                              "--format", "records"])
    assert (code, err) == (0, "")
    records = dict(parse_records(out))
    matrix = leavitt_matrix(parse_quiver(path.read_text()))
    kernel, cokernel = per_prime_assembly(matrix, Modulus.of(360))
    assert (records["K_{0}"], records["K_{1}"]) == (str(cokernel), str(kernel))
