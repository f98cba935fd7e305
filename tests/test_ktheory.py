import random
import warnings
from fractions import Fraction

import pytest

from helpers import call_within, jacobson_quiver, random_ladder_quiver, \
    random_no_source_quiver, rose, toeplitz_quiver, unfactorable_dense_quiver
from leavittk import groups, ktheory
from leavittk.groups import (FinAbGroup, Modulus, SizeLimitError,
                             _pivot_phase as pivot_phase,
                             brute_force_mod_oracle, kernel_cokernel_mod)
from leavittk.matrices import IntMatrix, smith_normal_form
from leavittk.ktheory import (DegreeData, KGroupTable, SplitCheckResult,
                              corner_les, divisibility_report,
                              leavitt_matrix, les_table_for_quiver,
                              mod_l_ktheory, moore_splitting_check,
                              suslin_coefficients)
from leavittk.quiver import SourcesPresentError, parse_quiver, \
    reduced_incidence


def G(*orders):
    return FinAbGroup.from_cyclic_orders(orders)


class TestLeavittMatrix:
    def test_jacobson_column(self):
        for n in range(4):
            m = leavitt_matrix(jacobson_quiver(n))
            assert m.tolists() == [[-(n + 1)], [-n]]

    def test_roses(self):
        for n in range(4):
            assert leavitt_matrix(rose(n + 1)).tolists() == [[-n]]

    def test_sources_rejected(self):
        q = parse_quiver("vertices a b\narrow x a b\narrow l b b")
        with pytest.raises(SourcesPresentError):
            leavitt_matrix(q)

    def test_size_bound_is_inclusive(self, monkeypatch):
        """A 2 x 1 map is built at a bound of 2 cells, a 2 x 2 one is not."""
        monkeypatch.setattr(ktheory, "_KMAP_BOUND", 2)
        assert leavitt_matrix(jacobson_quiver(1)).tolists() == [[-2], [-1]]
        two_cycle = parse_quiver("vertices u w\narrow a u w\narrow b w u")
        with pytest.raises(SizeLimitError, match="K-map of 2 x 2 would "
                                                 "exceed 2 cells"):
            leavitt_matrix(two_cycle)

    def test_matches_block_construction(self):
        rng = random.Random(8)
        quivers = [random_no_source_quiver(rng, max_vertices=5, max_arrows=12)
                   for _ in range(40)]
        quivers += [random_ladder_quiver(rng, 30, 3, sinks) for sinks in (0, 5)]
        for q in quivers:
            assert leavitt_matrix(q) == \
                IntMatrix.identity_below_zero(q.v, q.v - q.num_sinks) \
                - reduced_incidence(q).transpose()


class TestModLTables:
    def test_rose_two_petals_everything_vanishes(self):
        table = mod_l_ktheory(rose(2), Modulus.of(8), -2, 5)
        assert all(table.group_at(n).is_trivial for n in table.degrees())

    def test_rose_one_petal_laurent(self):
        table = mod_l_ktheory(rose(1), Modulus.of(9))
        for n in table.degrees():
            if n < 0:
                assert table.group_at(n).is_trivial
            else:
                assert table.group_at(n) == G(9)

    def test_rose_moore_modulus(self):
        for lnu in (4, 9, 5, 8):
            table = mod_l_ktheory(rose(lnu + 1), Modulus.of(lnu))
            for n in table.degrees():
                assert table.group_at(n) == (G(lnu) if n >= 0 else G())

    def test_jacobson_collapse(self):
        table = mod_l_ktheory(jacobson_quiver(2), Modulus.of(5))
        for n in table.degrees():
            if n < 0:
                assert table.group_at(n).is_trivial
            elif n % 2 == 0:
                assert table.group_at(n) == G(5)
            else:
                assert table.group_at(n).is_trivial

    def test_lookups_outside_window_raise(self):
        table = mod_l_ktheory(rose(1), Modulus.of(3), -1, 2)
        assert table.degrees() == (-1, 0, 1, 2)
        for n in (-2, 3):
            with pytest.raises(KeyError):
                table.group_at(n)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            mod_l_ktheory(rose(2), Modulus.of(3), 2, 1)

    @pytest.mark.parametrize("window", [(0, 2.5), (0.0, 2), (-1, 1.0)])
    @pytest.mark.parametrize("entry", [
        lambda lo, hi: mod_l_ktheory(rose(3), Modulus.of(4), lo, hi),
        lambda lo, hi: corner_les({n: DegreeData(phi=IntMatrix([[2]]))
                                   for n in range(-2, 4)}, lo, hi),
        lambda lo, hi: suslin_coefficients(Modulus.of(4), IntMatrix([[3]]),
                                           lo, hi),
        lambda lo, hi: moore_splitting_check(2, Modulus.of(4), lo, hi),
    ], ids=["mod_l_ktheory", "corner_les", "suslin_coefficients",
            "moore_splitting_check"])
    def test_float_window_refused(self, entry, window):
        # a float end would build a table whose degrees() fails later
        with pytest.raises(TypeError):
            entry(*window)

    @pytest.mark.parametrize("degree", [0.7, 1.0, Fraction(1)],
                             ids=["float", "integral-float", "fraction"])
    def test_non_int_degree_refused(self, degree):
        # 0.7 % 2 is odd, so a lookup that skipped the check would answer
        table = mod_l_ktheory(rose(1), Modulus.of(4), 0, 2)
        with pytest.raises(TypeError):
            table.group_at(degree)
        assert table.group_at(True) == table.group_at(1) == table.odd

    def test_non_int_table_window_refused(self):
        table = mod_l_ktheory(rose(1), Modulus.of(4), 0, 2)
        with pytest.raises(TypeError):
            KGroupTable(modulus=table.modulus, even=table.even,
                        odd=table.odd, window=(0, 2.5))

    def test_composite_modulus_is_silent(self):
        """A composite modulus warns nowhere, table, splitting check or
        LES: its caveat is the table's `modulus.is_prime_power`."""
        m = Modulus.of(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = mod_l_ktheory(rose(3), m)
            split = moore_splitting_check(12, m)
            entries = les_table_for_quiver(rose(3), m)
        assert table.modulus.is_prime_power is False
        assert (table.even, table.odd) == (G(2), G(2))
        assert split.equal and split.factors == (4, 3)
        assert (split.left.even, split.right.odd) == (G(6), G(6))
        assert [e.resolved for e in entries if e.degree >= 0] == [G(2)] * 8

    def test_parity_periodicity(self):
        rng = random.Random(9)
        for _ in range(25):
            q = random_no_source_quiver(rng, max_vertices=4, max_arrows=7)
            table = mod_l_ktheory(q, Modulus.of(rng.choice([2, 3, 4, 5, 8, 9])))
            evens = {table.group_at(n) for n in table.degrees()
                     if n >= 0 and n % 2 == 0}
            odds = {table.group_at(n) for n in table.degrees()
                    if n >= 0 and n % 2 == 1}
            assert len(evens) == 1 and len(odds) == 1

    def test_relabeling_invariance(self):
        rng = random.Random(10)
        for _ in range(15):
            q = random_no_source_quiver(rng, max_vertices=3, max_arrows=6)
            vmap = {v: f"x{i}" for i, v in enumerate(sorted(q.vertices,
                                                            key=lambda _: rng.random()))}
            relabeled = parse_quiver(
                "vertices " + " ".join(vmap[v] for v in q.vertices) + "\n"
                + "\n".join(f"arrow r{i} {vmap[a.source]} {vmap[a.target]}"
                            for i, a in enumerate(q.arrows)))
            mod = Modulus.of(rng.choice([2, 3, 4, 8, 9]))
            t1 = mod_l_ktheory(q, mod, 0, 1)
            t2 = mod_l_ktheory(relabeled, mod, 0, 1)
            assert t1.group_at(0) == t2.group_at(0)
            assert t1.group_at(1) == t2.group_at(1)

    def test_jacobson_family_all_prime_powers(self):
        prime_powers = [m for m in range(2, 33)
                        if len(Modulus.of(m).factorization) == 1]
        for n in range(7):
            q = jacobson_quiver(n)
            for m in prime_powers:
                table = mod_l_ktheory(q, Modulus.of(m), 0, 3)
                assert table.group_at(0) == G(m)
                assert table.group_at(1).is_trivial
                assert table.group_at(2) == G(m)
                assert table.group_at(3).is_trivial

    def test_matches_oracle_on_random_quivers(self):
        rng = random.Random(11)
        for _ in range(30):
            q = random_no_source_quiver(rng, max_vertices=4, max_arrows=8,
                                        also_sink_free=True)
            mod = Modulus.of(rng.choice([2, 3, 4, 5, 7, 8, 9]))
            kernel, cokernel = brute_force_mod_oracle(leavitt_matrix(q), mod)
            table = mod_l_ktheory(q, mod, 0, 1)
            assert table.group_at(0) == cokernel
            assert table.group_at(1) == kernel


class TestCornerLes:
    def _theory(self, phi_entry, modulus=None):
        data = DegreeData(phi=IntMatrix([[phi_entry]]), modulus=modulus)
        return {n: data for n in range(-1, 4)}

    def test_unimodular_map_kills_everything(self):
        entries = corner_les(self._theory(2), 0, 3)
        for e in entries:
            assert e.sub.is_trivial and e.quotient.is_trivial
            assert e.resolved == G()

    def test_identity_map_leaves_free_parts(self):
        entries = corner_les(self._theory(1), 0, 3)
        for e in entries:
            assert e.sub == G(0)
            assert e.quotient == G(0)
            assert e.resolved is None  # extension not forced by order alone

    def test_rose_shape(self):
        mod = Modulus.of(8)
        theory = suslin_coefficients(mod, IntMatrix([[3]]), -2, 5)
        entries = corner_les(theory, -2, 5)
        table = mod_l_ktheory(rose(3), mod, -2, 5)
        for e in entries:
            assert e.resolved == table.group_at(e.degree)

    def test_coprime_cyclic_resolution(self):
        data0 = DegreeData(phi=IntMatrix([[3]]), modulus=Modulus.of(2))
        data1 = DegreeData(phi=IntMatrix([[4]]), modulus=Modulus.of(3))
        theory = {0: data0, 1: data1}
        entry = corner_les(theory, 1, 1)[0]
        # sub = coker(1-4 mod 3) = Z/3, quotient = ker(1-3 mod 2) = Z/2
        assert entry.sub == G(3)
        assert entry.quotient == G(2)
        assert entry.resolved == G(6)

    def test_periodic_lookup(self):
        data = DegreeData(phi=IntMatrix([[2]]), modulus=Modulus.of(4))
        # window 0..1 reads degree -1, which the data does not hold
        with pytest.raises(KeyError):
            corner_les({0: data}, 0, 1)

    def test_widest_window_runs(self):
        entries = call_within(2, lambda: les_table_for_quiver(
            rose(3), Modulus.of(4), 0, 9999))
        assert isinstance(entries, list) and len(entries) == 10 ** 4
        assert entries[-1].degree == 9999

    @pytest.mark.parametrize("n_max", [10 ** 4, 10 ** 8])
    def test_wide_window_raises(self, n_max):
        mod = Modulus.of(4)
        for call in (lambda: les_table_for_quiver(rose(3), mod, 0, n_max),
                     lambda: suslin_coefficients(mod, IntMatrix([[3]]), 0,
                                                 n_max),
                     lambda: corner_les(self._theory(2), 0, n_max)):
            assert isinstance(call_within(2, call), SizeLimitError)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            DegreeData(phi=IntMatrix([[1, 0]]))

    def test_map_matrix_is_leavitt_matrix(self):
        # the LES builds the K-map from phi on its own, as a second route
        rng = random.Random(12)
        for i in range(500):
            q = random_no_source_quiver(rng, max_vertices=5, max_arrows=10,
                                        also_sink_free=i % 2 == 0)
            data = DegreeData(phi=reduced_incidence(q).transpose())
            assert data.map_matrix() == leavitt_matrix(q), q

    @pytest.mark.parametrize("petals", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
    def test_reproduces_rose_tables(self, petals, m):
        mod = Modulus.of(m)
        entries = les_table_for_quiver(rose(petals), mod)
        table = mod_l_ktheory(rose(petals), mod)
        for e in entries:
            assert e.resolved is not None
            assert e.resolved == table.group_at(e.degree)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9])
    def test_reproduces_jacobson_tables(self, n, m):
        mod = Modulus.of(m)
        q = jacobson_quiver(n)
        entries = les_table_for_quiver(q, mod)
        table = mod_l_ktheory(q, mod)
        for e in entries:
            assert e.resolved is not None
            assert e.resolved == table.group_at(e.degree)


class TestMooreSplitting:
    def test_moore_fixtures(self):
        assert moore_splitting_check(6, Modulus.of(4)).equal
        assert moore_splitting_check(8, Modulus.of(8)).equal
        assert moore_splitting_check(15, Modulus.of(8)).equal

    @pytest.mark.parametrize("petals", (2.0, Fraction(2)),
                             ids=("float", "fraction"))
    def test_non_int_petals_refused(self, petals):
        with pytest.raises(TypeError):
            ktheory.rose_quiver(petals)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            moore_splitting_check(1, Modulus.of(4))

    def test_large_n_rejected(self):
        with pytest.raises(SizeLimitError, match="n <= 100000, got 100001"):
            moore_splitting_check(10 ** 5 + 1, Modulus.of(4))

    def test_bound_is_inclusive(self):
        res = moore_splitting_check(10 ** 5, Modulus.of(4), 0, 1)
        assert res.factors == (32, 3125) and res.equal

    def test_reports_both_sides(self):
        res = moore_splitting_check(6, Modulus.of(4))
        assert res.factors == (2, 3)
        assert res.left.group_at(0) == G(2)
        assert res.right.group_at(0) == G(2)

    @pytest.mark.parametrize("window", [(-3, -1), (1, 1)])
    def test_window_without_both_parities(self, window):
        """The parity read compares only the degrees in the window: none
        in a negative one, only the odd groups in (1, 1)."""
        for n in (2, 6, 12, 30):
            for m in (2, 4, 9, 12):
                res = moore_splitting_check(n, Modulus.of(m), *window)
                assert res.equal
                assert res.left.window == res.right.window == window

    @pytest.mark.parametrize("window,equal", [
        ((0, 0), True), ((0, 1), False), ((3, 100), False), ((-3, -1), True)])
    def test_verdict_reads_every_degree_of_the_window(self, window, equal):
        """Tables that differ only in `odd` agree exactly on the windows
        that hold no odd nonnegative degree.  moore_splitting_check is
        always EQUAL (by CRT), so the tables are built by hand."""
        m = Modulus.of(4)
        left = KGroupTable(modulus=m, even=G(2), odd=G(2), window=window)
        right = KGroupTable(modulus=m, even=G(2), odd=G(4), window=window)
        res = SplitCheckResult(n=6, modulus=m, factors=(2, 3), left=left,
                               right=right)
        assert res.equal is equal

    def test_range(self):
        for n in range(2, 30):
            for m in (2, 3, 4, 5, 8, 9, 16, 25):
                assert moore_splitting_check(n, Modulus.of(m), 0, 1).equal


class TestDivisibilityReport:
    def test_rejects_non_prime_powers(self):
        for bad in ((6, 1), (1, 1), (2, 0)):
            with pytest.raises(ValueError):
                divisibility_report(rose(3), [(5, 1), bad])

    @pytest.mark.parametrize("bad", [(2.0, 1), (2, 1.0), (7.0, 1)])
    def test_float_prime_power_refused(self, bad):
        with pytest.raises(TypeError):
            divisibility_report(rose(3), [(5, 1), bad])

    @pytest.mark.parametrize("nu", [14285, 10 ** 7])
    def test_power_past_digit_bound_refused_unbuilt(self, nu):
        got = call_within(2, lambda: divisibility_report(rose(2), [(2, nu)]))
        assert isinstance(got, SizeLimitError)

    @pytest.mark.parametrize("bad", [(6, 1), (2, 0), (2, 14285)])
    def test_every_power_checked_before_the_map(self, monkeypatch, bad):
        """A bad l^nu anywhere in the list raises before `leavitt_matrix`
        runs even once."""
        calls = []
        leavitt_matrix = ktheory.leavitt_matrix

        def counting(q):
            calls.append(q)
            return leavitt_matrix(q)

        monkeypatch.setattr(ktheory, "leavitt_matrix", counting)
        with pytest.raises(ValueError):  # SizeLimitError is one too
            divisibility_report(rose(3), [(5, 1), bad])
        assert calls == []
        divisibility_report(rose(3), [(5, 1)])
        assert len(calls) == 1

    def test_power_at_digit_bound_runs(self):
        # 2^14284 has 4300 digits, the most Python converts to text
        entry = divisibility_report(rose(2), [(2, 14284)]).entries[0]
        assert entry.modulus.m == 2 ** 14284

    def test_unprovable_prime_refused_without_factoring(self):
        got = call_within(2, lambda: divisibility_report(
            rose(2), [(10 ** 25 + 13, 1)]))
        assert type(got) is ValueError
        assert str(got).endswith("(l must be proven prime, so below 3.3e24)")

    def test_unfactorable_determinant_refused_before_elimination(
            self, monkeypatch):
        def boom(*args):
            raise AssertionError("eliminated before factoring")

        monkeypatch.setattr(ktheory, "kernel_cokernel_mod", boom)
        got = call_within(2, lambda: divisibility_report(
            unfactorable_dense_quiver(), [(2, 1)]))
        assert isinstance(got, SizeLimitError)
        assert "cannot factor 368029041531894267421" in str(got)

    def test_determinant_bound_is_inclusive(self, monkeypatch):
        """At a bound of 2 rows the determinant of a sink-free 2 x 2 map
        is taken and that of a 3 x 3 one is not; a map with a sink has
        no determinant, so its rows are not bounded."""
        monkeypatch.setattr(ktheory, "_DET_BOUND", 2)
        two_cycle = parse_quiver("vertices u w\narrow a u w\narrow b w u")
        assert divisibility_report(two_cycle, [(2, 1)]).determinant == 0
        three_cycle = parse_quiver(
            "vertices u v w\narrow a u v\narrow b v w\narrow c w u")
        with pytest.raises(SizeLimitError, match="determinant of a 3 x 3 "
                                                 "K-map would exceed 2 rows"):
            divisibility_report(three_cycle, [(2, 1)])
        sinked = parse_quiver(
            "vertices s u w\narrow a u w\narrow b w u\narrow c u s")
        assert divisibility_report(sinked, [(2, 1)]).determinant is None

    def test_rose_three_petals(self):
        q = rose(3)
        report = divisibility_report(q, [(5, 1), (2, 1)])
        assert report.sink_free
        assert report.determinant == -2
        assert report.determinant_primes == (2,)
        five, two = report.entries
        assert five.vanishes
        assert "uniquely 5^1-divisible" in five.conclusions[0]
        assert not two.vanishes
        assert any("even" in c for c in two.conclusions)
        assert any("odd" in c for c in two.conclusions)

    def test_rose_one_petal_everything_nonzero(self):
        report = divisibility_report(rose(1), [(3, 1)])
        assert report.determinant == 0
        entry = report.entries[0]
        assert not entry.vanishes
        assert len(entry.conclusions) == 2

    def test_divisibility_iff_det_coprime(self):
        for n in range(0, 12):
            q = rose(n + 1)
            for l in (2, 3, 5, 7, 11, 13):
                entry = divisibility_report(q, [(l, 1)]).entries[0]
                assert entry.vanishes == (n % l != 0)

    def test_sinked_quiver_has_no_det(self):
        report = divisibility_report(toeplitz_quiver(), [(3, 1)])
        assert not report.sink_free
        assert report.determinant is None

    def test_jacobson_never_divisible(self):
        report = divisibility_report(jacobson_quiver(1), [(7, 2)])
        entry = report.entries[0]
        assert not entry.vanishes
        assert entry.conclusions == (
            "for every even n >= 0, at least one of IK_n(L_Q), "
            "IK_{n-1}(L_Q) is nonzero",)


class TestOneReductionPerMatrix:
    """Each matrix is reduced once per call: one unit phase over Z/m,
    then, per prime power p^e of m, the phases over Z/p^e on what the
    unit phase left."""

    @pytest.fixture
    def phases(self, monkeypatch):
        calls = []  # (modulus, p^k, rows in, pivots)

        def counting(rows, m, pk):
            rows_in = len(rows)
            pivots = pivot_phase(rows, m, pk)
            calls.append((m, pk, rows_in, pivots))
            return pivots

        monkeypatch.setattr(groups, "_pivot_phase", counting)
        return calls

    @pytest.fixture
    def mod_calls(self, monkeypatch):
        calls = []

        def counting(matrix, modulus):
            calls.append((matrix, modulus.m))
            return kernel_cokernel_mod(matrix, modulus)

        monkeypatch.setattr(ktheory, "kernel_cokernel_mod", counting)
        return calls

    @pytest.fixture
    def snf_calls(self, monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(matrix)
            return smith_normal_form(matrix)

        monkeypatch.setattr(ktheory, "smith_normal_form", counting)
        return calls

    def test_table(self, mod_calls, phases, snf_calls):
        q = jacobson_quiver(2)  # [[-3], [-2]]: the unit phase clears it
        mod_l_ktheory(q, Modulus.of(8))
        assert mod_calls == [(leavitt_matrix(q), 8)]
        assert phases == [(8, 1, 2, 1)]
        phases.clear()
        # [[-4]]: the unit phase is phase 0, then one phase per k >= 1
        mod_l_ktheory(rose(5), Modulus.of(8))
        assert phases == [(8, 1, 1, 0), (8, 2, 1, 0), (8, 4, 1, 1)]
        assert snf_calls == []

    def test_table_one_elimination_per_prime(self, mod_calls, phases):
        for q in (jacobson_quiver(2),
                  random_ladder_quiver(random.Random(5), 12, 3)):
            mod_calls.clear()
            phases.clear()
            mod_l_ktheory(q, Modulus.of(360))
            matrix = leavitt_matrix(q)
            assert mod_calls == [(matrix, 360)]
            (m, pk, rows_in, units), rest = phases[0], phases[1:]
            assert (m, pk, rows_in) == (360, 1, matrix.rows)
            # every prime power sees only the rows the unit phase left,
            # and runs each of its phases once, in ascending p^k
            for q_e in (8, 9, 5):
                own = [(pk, rows_in) for m, pk, rows_in, _ in rest
                       if m == q_e]
                assert [pk for pk, _ in own] == sorted({pk for pk, _ in own})
                assert all(rows_in <= matrix.rows - units
                           for _, rows_in in own)
            assert {m for m, *_ in rest} <= {8, 9, 5}
        assert units == 11  # the random quiver: the unit phase did the work

    def test_divisibility_report_three_primes(self, mod_calls, phases,
                                              snf_calls):
        q = rose(3)
        divisibility_report(q, [(2, 1), (3, 1), (5, 2)])
        assert mod_calls == [(leavitt_matrix(q), 2 * 3 * 25)]
        assert [(m, pk) for m, pk, _, _ in phases if m == 150] == [(150, 1)]
        assert snf_calls == []

    def test_divisibility_report_powers_share_pivots(self, mod_calls):
        # rose(5) and rose(9) have pivots 4 and 8, which vanish mod 2
        for q in (jacobson_quiver(3), rose(5), rose(9)):
            mod_calls.clear()
            report = divisibility_report(q, [(2, 1), (2, 3), (2, 2)])
            assert mod_calls == [(leavitt_matrix(q), 8)]
            for e in report.entries:
                assert e.table == mod_l_ktheory(q, e.modulus, 0, 2)

    def test_les_once_per_distinct_degree_data(self, mod_calls, phases,
                                               snf_calls):
        for q in (toeplitz_quiver(), jacobson_quiver(1), rose(3)):
            mod_calls.clear()
            phases.clear()
            les_table_for_quiver(q, Modulus.of(4))
            # one zero presentation for the odd and negative degrees, one
            # stabilized map for the even ones
            assert len(mod_calls) == 2
            assert (leavitt_matrix(q), 4) in mod_calls
            assert [pk for _, pk, _, _ in phases].count(1) == 2
        assert snf_calls == []

    def test_corner_les_integral_data(self, mod_calls, snf_calls):
        data = DegreeData(phi=IntMatrix([[3]]))
        theory = {n: data for n in range(-1, 6)}
        entries = corner_les(theory, 0, 5)
        assert len(snf_calls) == 1 and mod_calls == []
        assert all(e.sub == G(2) and e.quotient.is_trivial for e in entries)
