import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import call_within, random_no_source_quiver
from leavittk.groups import (FinAbGroup, Modulus, SizeLimitError,
                             _proven_prime, brute_force_mod_oracle,
                             cokernel_int, cokernel_mod, factorize,
                             kernel_cokernel, kernel_cokernel_mod,
                             kernel_mod, kernel_rank_int)
from leavittk.ktheory import leavitt_matrix
from leavittk.matrices import IntMatrix, smith_normal_form

BIG_PRIME = 10 ** 18 + 3


def G(*orders):
    return FinAbGroup.from_cyclic_orders(orders)


class TestFinAbGroup:
    def test_normal_form_merges_coprime(self):
        assert G(2, 3) == G(6)
        assert G(2, 3).torsion == (6,)

    def test_chain_preserved(self):
        assert G(2, 4).torsion == (2, 4)
        assert G(12, 60).torsion == (12, 60)
        assert G(0, 30, 4).torsion == (2, 60)
        assert G(0, 30, 4).free_rank == 1

    def test_units_dropped(self):
        assert G(1, 1).is_trivial
        assert G(1, 5) == G(5)

    def test_invalid_normal_forms_rejected(self):
        with pytest.raises(ValueError):
            FinAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FinAbGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FinAbGroup(-1)

    def test_order_and_exponent(self):
        assert G(2, 4).order() == 8
        assert G(2, 4).exponent() == 4
        assert G(0).order() is None
        assert G().order() == 1

    def test_rendering(self):
        assert str(G()) == "0"
        assert str(G(2, 4)) == "Z/2 (+) Z/4"
        assert str(G(0, 5)) == "Z (+) Z/5"

    def test_large_coprime_orders_merge_without_factoring(self):
        big = (10 ** 9 + 7) * (10 ** 9 + 9)
        got = call_within(2, lambda: FinAbGroup(0, (big,)).direct_sum(
            FinAbGroup(0, (2,))))
        assert got == FinAbGroup(0, (2 * big,))

    def test_merge_matches_primary_parts(self):
        rng = random.Random(6)
        for _ in range(200):
            orders = [rng.choice([0, 1, rng.randint(2, 5000)])
                      for _ in range(rng.randint(0, 6))]
            parts: dict = {}
            for d in orders:
                for p, e in factorize(d) if d else ():
                    parts.setdefault(p, []).append(e)
            assert FinAbGroup.from_cyclic_orders(orders) == \
                FinAbGroup.from_primary_parts(orders.count(0), parts), orders

    def test_direct_sum_fixtures(self):
        assert G(2).direct_sum(G(3)) == G(6)
        assert G(2).direct_sum(G(4)).torsion == (2, 4)
        sum_ = G(0).direct_sum(G(5))
        assert sum_.free_rank == 1 and sum_.torsion == (5,)

    def test_direct_sum_monoid_laws(self):
        rng = random.Random(3)
        pool = [G(), G(2), G(4), G(6), G(0, 2), G(3, 9), G(0, 0)]
        for _ in range(100):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert a.direct_sum(b) == b.direct_sum(a)
            assert a.direct_sum(b).direct_sum(c) \
                == a.direct_sum(b.direct_sum(c))
            assert a.direct_sum(G()) == a

    def test_tensor_and_torsion(self):
        assert G(0).tensor_with_cyclic(4) == G(4)
        assert G(6).tensor_with_cyclic(4) == G(2)


class TestModulus:
    def test_factorization(self):
        assert Modulus.of(12).factorization == ((2, 2), (3, 1))
        assert Modulus.of(8).is_prime_power
        assert not Modulus.of(12).is_prime_power

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            Modulus.of(1)

    def test_factorize(self):
        assert factorize(1) == ()
        assert factorize(360) == ((2, 3), (3, 2), (5, 1))


class TestFloatsRefused:
    """Exact entry points raise TypeError on a float, as IntMatrix does,
    instead of truncating it or failing later elsewhere."""

    def test_modulus(self):
        with pytest.raises(TypeError):
            Modulus.of(12.0)
        m = Modulus.of(12)
        assert type(m.m) is int and m.factorization == ((2, 2), (3, 1))
        # the raw constructor checks its fields too
        for m, factorization in ((4.0, ((2, 2),)), ("4", ((2, 2),)),
                                 (4, ((2.0, 2),)), (4, ((2, 2.0),)),
                                 (4, ((2, Fraction(2)),))):
            with pytest.raises(TypeError):
                Modulus(m, factorization)

    @pytest.mark.parametrize("m, factorization, message", (
        (1, (), "modulus must be >= 2, got 1"),
        (4, ((2, 2), (3, 0)), r"increasing p >= 2 and e >= 1, got 3\^0"),
        (4, ((1, 10 ** 18), (2, 2)), r"increasing p >= 2 and e >= 1, got 1\^"),
        (4, ((2, 1), (2, 1)), r"increasing p >= 2 and e >= 1, got 2\^1"),
        (12, ((2, 2),), "does not multiply to 12"),
        (12, ((2, 2), (3, 1), (5, 1)), "does not multiply to 12"),
        (4, ((2, 10 ** 18),), "does not multiply to 4"),
        (4, (), "does not multiply to 4"),
    ), ids=("m=1", "e=0", "p=1", "repeated-p", "short", "long", "huge-e",
            "empty"))
    def test_modulus_constructor_checks_factorization(self, m, factorization,
                                                      message):
        # a wrong factorization gives wrong groups: with 12 read as 2^2,
        # the map [[-3]] would give 0, 0 instead of Z/3, Z/3
        with pytest.raises(ValueError, match=message):
            Modulus(m, factorization)
        assert Modulus(12, ((2, 2), (3, 1))) == Modulus.of(12)

    def test_factorize(self):
        for n in (360.0, 2.5):
            with pytest.raises(TypeError):
                factorize(n)

    def test_from_cyclic_orders(self):
        for orders in ([2.5], [4, 2.0], [0.0]):
            with pytest.raises(TypeError):
                FinAbGroup.from_cyclic_orders(orders)
        with pytest.raises(TypeError):
            FinAbGroup.cyclic(2.5)
        with pytest.raises(TypeError):
            G(4).tensor_with_cyclic(2.0)
        assert G(-4, 0, 6) == FinAbGroup(free_rank=1, torsion=(2, 12))

    def test_constructor_torsion(self):
        with pytest.raises(TypeError):
            FinAbGroup(free_rank=0, torsion=(2.0, 4.0))
        assert str(FinAbGroup(free_rank=0, torsion=(2, 4))) == "Z/2 (+) Z/4"

    def test_constructor_free_rank(self):
        with pytest.raises(TypeError):
            FinAbGroup.free(1.5)
        with pytest.raises(TypeError):
            FinAbGroup(free_rank=2.0)
        assert str(FinAbGroup.free(2)) == "Z (+) Z"


class TestFactorize:
    @pytest.mark.parametrize("n", (0, -6))
    def test_refuses_nonpositive(self, n):
        with pytest.raises(ValueError, match="factorize needs n >= 1"):
            factorize(n)

    def test_stops_at_proven_prime_cofactor(self):
        assert factorize(BIG_PRIME) == ((BIG_PRIME, 1),)
        assert factorize(4 * 9 * BIG_PRIME) == ((2, 2), (3, 2), (BIG_PRIME, 1))
        assert factorize(7919 * BIG_PRIME) == ((7919, 1), (BIG_PRIME, 1))

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_strong_pseudoprimes_are_factored(self, n):
        # composites that pass Miller-Rabin for several of the bases
        factors = factorize(n)
        assert len(factors) == 3
        product = 1
        for p, e in factors:
            product *= p ** e
        assert product == n

    @pytest.mark.parametrize("m", [
        999983 * 999979,  # two primes just below the trial-division limit
        999983 ** 2, 10 ** 12, 999999999989, 2 * 999983 * 999979,
        (10 ** 9 + 7) * 2 ** 20])
    def test_modulus_factors_within_limit(self, m):
        factors = Modulus.of(m).factorization
        product = 1
        for p, e in factors:
            assert _proven_prime(p)
            product *= p ** e
        assert product == m

    @pytest.mark.parametrize("m", [(10 ** 9 + 7) * (10 ** 9 + 9),
                                   1000003 ** 2, 3317044064679887385961981])
    def test_modulus_trial_division_is_bounded(self, m):
        start = time.perf_counter()
        got = call_within(2, lambda: Modulus.of(m))
        assert isinstance(got, ValueError) and "not proven prime" in str(got)
        assert time.perf_counter() - start < 2

    def test_unfactorable_raises_size_limit(self):
        n = (10 ** 9 + 7) * (10 ** 9 + 9)
        got = call_within(2, lambda: factorize(n))
        assert isinstance(got, SizeLimitError)
        assert str(got) == (f"cannot factor {n}: no prime factor below "
                            f"1000000, and the cofactor {n} is not proven "
                            "prime")

    def test_no_proof_claimed_at_or_above_bound(self):
        # strong pseudoprime to bases 2..37, caught by base 41
        assert not _proven_prime(318665857834031151167461)
        # strong pseudoprime to every base 2..41: the bound itself
        assert not _proven_prime(3317044064679887385961981)
        # a prime above the bound is left to trial division
        assert not _proven_prime(2 ** 89 - 1)
        assert _proven_prime(BIG_PRIME) and _proven_prime(2 ** 61 - 1)


class TestIntegralKernels:
    def test_cokernel_fixtures(self):
        assert cokernel_int(IntMatrix([[-1]])).is_trivial
        assert cokernel_int(IntMatrix([[0]])) == G(0)
        assert cokernel_int(IntMatrix([[2, 0], [0, 3]])) == G(6)

    def test_kernel_rank_fixtures(self):
        assert kernel_rank_int(IntMatrix.identity(3)) == 0
        assert kernel_rank_int(IntMatrix.zero(2, 3)) == 3
        assert kernel_rank_int(IntMatrix([[1, 1]])) == 1

    def test_large_invariant_factor_is_not_factorized(self):
        """The normal form is read off the Smith chain, so an invariant
        factor with two prime factors near 1e9 costs no trial division."""
        d = (10 ** 9 + 7) * (10 ** 9 + 9) * (10 ** 6 + 3)
        got = call_within(2, lambda: (
            cokernel_int(IntMatrix([[d]])),
            kernel_cokernel(smith_normal_form(IntMatrix([[6 * d, 0, 0]])),
                            Modulus.of(12))))
        assert got == (FinAbGroup(0, (d,)), (G(6, 12, 12), G(6)))


class TestModularKernels:
    def test_cyclic_map_fixtures(self):
        jac = IntMatrix([[-2], [-1]])
        assert cokernel_mod(jac, Modulus.of(8)) == G(8)
        assert kernel_mod(jac, Modulus.of(8)).is_trivial
        assert cokernel_mod(IntMatrix([[-1]]), Modulus.of(8)).is_trivial
        assert cokernel_mod(IntMatrix([[0]]), Modulus.of(9)) == G(9)
        assert kernel_mod(IntMatrix([[-6]]), Modulus.of(4)) == G(2)
        assert kernel_mod(IntMatrix([[0]]), Modulus.of(9)) == G(9)

    def test_oracle_fixtures(self):
        k, c = brute_force_mod_oracle(IntMatrix([[2]]), Modulus.of(4))
        assert k == G(2) and c == G(2)
        k, c = brute_force_mod_oracle(IntMatrix.identity(2), Modulus.of(3))
        assert k.is_trivial and c.is_trivial
        k, c = brute_force_mod_oracle(IntMatrix([[0, 0]]), Modulus.of(2))
        assert k == G(2, 2) and c == G(2)

    def test_oracle_size_guard(self):
        with pytest.raises(SizeLimitError):
            brute_force_mod_oracle(IntMatrix.zero(1, 9), Modulus.of(9))

    def test_oracle_size_guard_sums_the_prime_powers(self):
        # each (p^e)^2 is below the bound, only their sum is above it
        parts = (2 ** 9, 3 ** 6, 5 ** 4)
        squares = [q ** 2 for q in parts]
        assert max(squares) < 10 ** 6 < sum(squares) == 1_184_210
        with pytest.raises(SizeLimitError, match="1184210"):
            brute_force_mod_oracle(IntMatrix.identity(2),
                                   Modulus.of(2 ** 9 * 3 ** 6 * 5 ** 4))

    def test_permutation_and_negation_invariance(self):
        rng = random.Random(11)
        for _ in range(40):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            m = IntMatrix([[rng.randint(-5, 5) for _ in range(cols)]
                           for _ in range(rows)])
            mod = Modulus.of(rng.choice([2, 3, 4, 8, 9]))
            rp = list(range(rows))
            cp = list(range(cols))
            rng.shuffle(rp)
            rng.shuffle(cp)
            shuffled = m.permuted(rp, cp)
            assert cokernel_mod(m, mod) == cokernel_mod(shuffled, mod)
            assert kernel_mod(m, mod) == kernel_mod(shuffled, mod)
            assert cokernel_mod(m, mod) == cokernel_mod(-m, mod)
            assert kernel_mod(m, mod) == kernel_mod(-m, mod)

    def test_orders_multiply(self):
        rng = random.Random(5)
        for _ in range(25):
            rows = rng.randint(1, 2)
            cols = rng.randint(1, 3)
            m = IntMatrix([[rng.randint(-4, 4) for _ in range(cols)]
                           for _ in range(rows)])
            mod = Modulus.of(rng.choice([2, 3, 4, 5, 8, 9]))
            image = set()
            for x in itertools.product(range(mod.m), repeat=cols):
                image.add(tuple(sum(c * xi for c, xi in zip(m.row(i), x)) % mod.m
                                for i in range(rows)))
            assert kernel_mod(m, mod).order() * len(image) == mod.m ** cols
            assert cokernel_mod(m, mod).order() * len(image) == mod.m ** rows


def test_oracle_reaches_composite_moduli():
    """360^3 exceeds 10^6, but the oracle closes the image only mod 8, 9
    and 5, so it answers on every 3-vertex K-map at m = 360."""
    rng = random.Random(45)
    quivers = [q for q in (random_no_source_quiver(rng, 3, 8)
                           for _ in range(90)) if q.v == 3]
    assert sum(q.num_sinks == 0 for q in quivers) >= 10
    for m in (12, 360):
        mod = Modulus.of(m)
        for q in quivers:
            matrix = leavitt_matrix(q)
            oracle = brute_force_mod_oracle(matrix, mod)
            assert oracle == kernel_cokernel(smith_normal_form(matrix), mod) \
                == kernel_cokernel_mod(matrix, mod), (q, m)


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    entries = draw(st.lists(
        st.lists(st.integers(-5, 5), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return IntMatrix(entries)


@settings(max_examples=120, deadline=None)
@given(small_matrices(), st.sampled_from([2, 3, 4, 5, 8, 9, 16]))
@example(IntMatrix([]), 4)
@example(IntMatrix.zero(0, 3), 9)
@example(IntMatrix([[]]), 9)
@example(IntMatrix([[], [], []]), 16)
def test_mod_kernels_match_oracle(m, mod_value):
    mod = Modulus.of(mod_value)
    oracle_kernel, oracle_cokernel = brute_force_mod_oracle(m, mod)
    assert kernel_mod(m, mod) == oracle_kernel
    assert cokernel_mod(m, mod) == oracle_cokernel
    assert kernel_cokernel(smith_normal_form(m), mod) \
        == (oracle_kernel, oracle_cokernel)
