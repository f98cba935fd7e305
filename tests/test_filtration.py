import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import ENGINE_QUIVERS, call_within, ck_rewrite, cycle_text, \
    is_normal, jacobson_quiver, path_count_matrix, random_no_source_quiver, \
    rose, toeplitz_quiver
from leavittk import cli, filtration, quiver
from leavittk.algebra import LeavittAlgebra, Monomial, _paths_by_target, \
    _sort_key
from leavittk.filtration import (block_profile, expected_inclusion_matrix,
                                 expected_phi_matrix, filtration_span_dim,
                                 inclusion_k0_matrix, phi_k0_matrix,
                                 stabilized_block_difference)
from leavittk.groups import SizeLimitError
from leavittk.ktheory import leavitt_matrix
from leavittk.matrices import IntMatrix
from leavittk.quiver import SourcesPresentError, parse_quiver

DATA = Path(__file__).parent / "data"

FIXTURE_QUIVERS = [
    toeplitz_quiver(),
    jacobson_quiver(1),
    jacobson_quiver(2),
    rose(1),
    rose(2),
    rose(3),
    rose(4),
]


class TestBlockProfile:
    def test_toeplitz_level_two(self):
        prof = block_profile(toeplitz_quiver(), 2)
        labels = [(b.level, b.vertex, b.size) for b in prof.blocks]
        assert labels == [(0, "2", 1), (1, "2", 1), (2, "2", 1), (2, "1", 1)]
        assert prof.sum_of_squares == 4

    def test_rose_single_block(self):
        for n in range(4):
            prof = block_profile(rose(n + 1), 1)
            assert [(b.level, b.size) for b in prof.blocks] == [(1, n + 1)]
            assert prof.sum_of_squares == (n + 1) ** 2

    def test_level_zero_is_vertices(self):
        rng = random.Random(0)
        for _ in range(10):
            q = random_no_source_quiver(rng)
            prof = block_profile(q, 0)
            assert prof.count == q.v
            assert all(b.size == 1 for b in prof.blocks)

    def test_block_count_formula(self):
        rng = random.Random(1)
        quivers = FIXTURE_QUIVERS + [random_no_source_quiver(rng)
                                     for _ in range(10)]
        for q in quivers:
            for n in range(4):
                prof = block_profile(q, n)
                assert prof.count \
                    == (n + 1) * q.num_sinks + (q.v - q.num_sinks)

    def test_sources_rejected(self):
        q = parse_quiver("vertices a b\narrow x a b\narrow l b b")
        with pytest.raises(SourcesPresentError):
            block_profile(q, 1)

    @staticmethod
    def _seeded_quivers() -> list:
        rng = random.Random(20)
        quivers = [random_no_source_quiver(rng, also_sink_free=i % 2 == 1)
                   for i in range(40)]
        assert any(q.num_sinks for q in quivers)
        assert any(not q.num_sinks for q in quivers)
        return quivers

    def test_sizes_are_path_count_column_sums(self):
        """The matrix-power reference: block (m, w) has the column sum of
        A^m at w."""
        for q in self._seeded_quivers():
            for n in range(7):
                sums = [[sum(col) for col in
                         zip(*path_count_matrix(q, m).tolists())]
                        for m in range(n + 1)]
                prof = block_profile(q, n)
                assert [b.size for b in prof.blocks] \
                    == [sums[b.level][q.index(b.vertex)] for b in prof.blocks]

    def test_no_matrix_products(self, monkeypatch):
        quivers = self._seeded_quivers()
        calls = []
        matmul, incidence = IntMatrix.__matmul__, quiver.incidence_matrix

        def counting_matmul(a, b):
            calls.append("matmul")
            return matmul(a, b)

        def counting_incidence(q):
            calls.append("incidence")
            return incidence(q)

        monkeypatch.setattr(IntMatrix, "__matmul__", counting_matmul)
        monkeypatch.setattr(quiver, "incidence_matrix", counting_incidence)
        for q in quivers:
            block_profile(q, 6)
        assert calls == []
        path_count_matrix(quivers[0], 2)
        assert "matmul" in calls and "incidence" in calls


class TestSpanDimension:
    def test_toeplitz(self):
        assert filtration_span_dim(toeplitz_quiver(), 2) == 4

    def test_rose_two_petals(self):
        assert filtration_span_dim(rose(2), 1) == 4

    def test_level_zero(self):
        for q in FIXTURE_QUIVERS:
            assert filtration_span_dim(q, 0) == q.v

    @pytest.mark.parametrize("q", FIXTURE_QUIVERS, ids=lambda q: "-".join(q.vertices)
                             + f"-{len(q.arrows)}")
    def test_matches_block_sizes(self, q):
        for n in range(4):
            assert filtration_span_dim(q, n) == block_profile(q, n).sum_of_squares

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            filtration_span_dim(rose(4), 4)


DATA_QUIVERS = {p.name: parse_quiver(p.read_text())
                for p in sorted(DATA.glob("*.q"))}


class TestLevelBound:
    """A level past the work bound is refused before any per-level loop."""

    @pytest.mark.parametrize("name", DATA_QUIVERS)
    def test_huge_level_refused(self, name):
        q = DATA_QUIVERS[name]
        for fn in (block_profile, filtration_span_dim, inclusion_k0_matrix,
                   phi_k0_matrix, stabilized_block_difference):
            got = call_within(2, lambda: fn(q, 10 ** 8))
            assert isinstance(got, SizeLimitError), fn.__name__

    @pytest.mark.parametrize("fn", (block_profile, filtration_span_dim,
                                    inclusion_k0_matrix, phi_k0_matrix))
    def test_negative_level_refused(self, fn):
        with pytest.raises(ValueError,
                           match="filtration level must be nonnegative"):
            fn(toeplitz_quiver(), -1)

    def test_long_paths_refused(self):
        # one path of every length: the path table alone would hold about
        # 1.8e9 arrows
        got = call_within(2, lambda: filtration_span_dim(rose(1), 59999))
        assert isinstance(got, SizeLimitError)

    def test_long_cycle_at_level_twenty(self, tmp_path, capsys):
        """240 vertices in one cycle: inside the work bound at level 20,
        so the request must finish, not hang."""
        path = tmp_path / "cycle240.q"
        path.write_text(cycle_text(240))
        code = call_within(5, lambda: cli.main(
            ["filtration", str(path), "--level", "20", "--format", "records"]))
        assert code == 0
        records = dict(cli.parse_records(capsys.readouterr().out))
        assert records["symbolic_dimension"] == "240"
        assert [records[k] for k in ("dimension_match", "inclusion_match",
                                     "phi_match")] == ["OK", "OK", "OK"]

    @pytest.mark.parametrize("name", DATA_QUIVERS)
    def test_low_levels_run(self, name):
        q = DATA_QUIVERS[name]
        for n in range(6):
            assert block_profile(q, n).level == n
            assert inclusion_k0_matrix(q, n) == expected_inclusion_matrix(q, n)
            assert phi_k0_matrix(q, n) == expected_phi_matrix(q, n)


def _count_builds(monkeypatch) -> dict:
    """Patch LeavittAlgebra.__init__ and filtration._profiles to count
    calls: algebra "builds" and runs of the path-count vector that block
    profiles are read from ("count_runs")."""
    counts = {"builds": 0, "count_runs": 0}
    init, profiles = LeavittAlgebra.__init__, filtration._profiles

    def counting_init(self, quiver):
        counts["builds"] += 1
        init(self, quiver)

    def counting_profiles(q, *levels):
        counts["count_runs"] += 1
        return profiles(q, *levels)

    monkeypatch.setattr(LeavittAlgebra, "__init__", counting_init)
    monkeypatch.setattr(filtration, "_profiles", counting_profiles)
    return counts


def _every_spanning_monomial(labels, by_target) -> list:
    """The spanning set of the blocks `labels`, every monomial built."""
    return [Monomial(left, right) for m, w in labels
            for left in by_target[m].get(w, ())
            for right in by_target[m].get(w, ())]


def _stage_two(name: str) -> tuple:
    """The algebra of a data quiver, its stage-2 block labels, the whole
    stage-2 spanning set, and the normal count and non-normal list that
    `_spanning_monomials` gives for it: exactly the set's normal and
    non-normal parts."""
    q = DATA_QUIVERS[name]
    alg = LeavittAlgebra(q)
    by_target = _paths_by_target(alg, 2, filtration._SPAN_LIMIT)
    labels = filtration._block_labels(q, 2)
    monomials = _every_spanning_monomial(labels, by_target)
    count, rest = filtration._spanning_monomials(alg, labels, by_target)
    assert rest == [m for m in monomials if not is_normal(alg, m)]
    assert count == len(monomials) - len(rest)
    return alg, labels, monomials, count, rest


class TestShortestLeadPivots:
    """Leads are shortest terms, so a spanning set's rows never collide;
    rows that do collide must still be reduced, not counted.  The normal
    spanning monomials enter as implicit pivots: counted, and passed to
    `_span_rank` as block labels."""

    @pytest.mark.parametrize("name", DATA_QUIVERS)
    def test_dependent_set_loses_exactly_one(self, name):
        """Stage 2 plus the one-step rewrite summands s't'* and s'a(t'a)*
        of its first non-normal monomial s'g(t'g)*: those summands and
        that monomial satisfy one linear relation."""
        alg, labels, monomials, count, rest = _stage_two(name)
        rewrite = next(filter(None, (ck_rewrite(alg, m) for m in monomials)))
        extra = [m for _, m in rewrite if m not in monomials]
        dependent = monomials + extra
        assert len(dependent) > len(monomials)
        assert count + call_within(5, lambda: filtration._span_rank(
            alg, labels, rest + extra)) == len(dependent) - 1

    @pytest.mark.parametrize("name", DATA_QUIVERS)
    def test_summand_first_rescales_a_lead(self, name):
        """Stage 2 after the lead s't'* of its first non-normal monomial
        s'g(t'g)*: the rewrite summand with every common special-arrow
        suffix stripped.  That monomial's row reduces against s't'* to
        the terms that remain, whose lead has coefficient -1.  Where that
        lead is no pivot yet, the row becomes one as it stands, lead -1,
        and later rows that collide with it are scaled by -1: on
        jacobson2 and the roses of two and three petals (a rose of one
        petal leaves no such term, and toeplitz's sink-level monomials
        come first).  The set spans what stage 2 spans."""
        alg, labels, monomials, count, rest = _stage_two(name)
        mon = next(m for m in monomials if not is_normal(alg, m))
        row = alg._normalize([(mon, 1)])
        lead = min(row, key=_sort_key)
        assert row.pop(lead) == 1 and lead not in monomials
        if len(alg._out[lead.left.target]) > 1:
            assert row[min(row, key=_sort_key)] == -1
        assert count + call_within(5, lambda: filtration._span_rank(
            alg, labels, [lead] + rest)) == len(monomials)

    @pytest.mark.parametrize("name", DATA_QUIVERS)
    def test_collision_reduces_against_the_pivot_row(self, name):
        """The non-normal monomials of stage 2, the first one twice.  The
        second copy's lead collides with the first copy's pivot and its
        row reduces to zero against the first copy's row."""
        alg, _, _, _, sources = _stage_two(name)
        assert sources
        assert call_within(5, lambda: filtration._span_rank(
            alg, [], sources + sources[:1])) == len(sources)

    @pytest.mark.parametrize("name", DATA_QUIVERS)
    def test_repeated_set_keeps_its_rank(self, name):
        """Stage 2 twice: every monomial explicit, and on top of the
        implicit pivots, where each explicit normal one reduces to 0."""
        alg, labels, monomials, count, _ = _stage_two(name)
        assert call_within(5, lambda: filtration._span_rank(
            alg, [], monomials + monomials)) == len(monomials)
        assert count + call_within(5, lambda: filtration._span_rank(
            alg, labels, monomials + monomials)) == len(monomials)


def _fraction_rank(rows) -> int:
    """Rank over Q of sparse rows, by Gaussian elimination on Fractions
    with each row's longest term as its pivot column."""
    pivots: dict = {}
    for row in rows:
        row = {k: Fraction(c) for k, c in row.items()}
        while row:
            col = max(row, key=_sort_key)
            if col not in pivots:
                pivots[col] = {k: c / row[col] for k, c in row.items()}
                break
            factor = row[col]
            for k, c in pivots[col].items():
                row[k] = row.get(k, 0) - factor * c
                if not row[k]:
                    del row[k]
    return len(pivots)


class TestSpanRankAgainstFractions:
    """`_span_rank` against the rank over Q of the same normal-form rows,
    on seeded lists of stage 0-3 spanning monomials with repeats and the
    one-step rewrite summands of their non-normal members: leads collide,
    and rows with lead -1 become pivots.  Each row scaled by a seeded
    factor among `scales`, which leaves the rank alone, gives leads
    other than 1 and -1."""

    @pytest.mark.parametrize("scales", [(1,), (-3, -1, 2, 5)])
    @pytest.mark.parametrize("name", sorted(ENGINE_QUIVERS))
    def test_rank_matches(self, name, scales, monkeypatch):
        rng = random.Random(sorted(ENGINE_QUIVERS).index(name))
        alg = LeavittAlgebra(ENGINE_QUIVERS[name])
        by_target = _paths_by_target(alg, 3, filtration._SPAN_LIMIT)
        pool = [m for n in range(4) for m in _every_spanning_monomial(
            filtration._block_labels(alg.quiver, n), by_target)]
        normalize = LeavittAlgebra._normalize

        def scaled_normalize(self, terms, implicit=None):
            k = rng.choice(scales)
            return {m: k * c for m, c in normalize(self, terms,
                                                   implicit).items()}

        monkeypatch.setattr(LeavittAlgebra, "_normalize", scaled_normalize)
        for _ in range(20):
            mons = rng.sample(pool, min(len(pool), 30))
            mons += [m for mon in mons for _, m in ck_rewrite(alg, mon) or ()]
            mons += rng.choices(mons, k=4)
            rng.shuffle(mons)
            want = _fraction_rank(normalize(alg, [(m, 1)]) for m in mons)
            assert want < len(mons)
            assert call_within(5, lambda: filtration._span_rank(
                alg, [], mons)) == want, mons


class TestBlockCounting:
    """The normal spanning monomials are counted, not built."""

    def test_jacobson2_level_four_rewrites_only_non_normal(self, monkeypatch):
        rewritten = []
        normalize = LeavittAlgebra._normalize

        def counting_normalize(self, terms, implicit=None):
            terms = list(terms)
            rewritten.extend(m for m, _ in terms)
            return normalize(self, terms, implicit)

        monkeypatch.setattr(LeavittAlgebra, "_normalize", counting_normalize)
        assert filtration_span_dim(jacobson_quiver(2), 4) == 13942
        assert len(rewritten) == 729

    def test_block_counted_rank_equals_explicit_rank(self):
        """The engine quivers and seeded random quivers, some with sinks:
        counting the normal part and passing every spanning monomial give
        one rank."""
        rng = random.Random(4)
        quivers = [random_no_source_quiver(rng) for _ in range(40)]
        assert any(q.num_sinks for q in quivers)
        for q in list(ENGINE_QUIVERS.values()) + quivers:
            alg = LeavittAlgebra(q)
            by_target = _paths_by_target(alg, 3, filtration._SPAN_LIMIT)
            for n in range(4):
                labels = filtration._block_labels(q, n)
                everything = _every_spanning_monomial(labels, by_target)
                count, rest = filtration._spanning_monomials(
                    alg, labels, by_target)
                rank = filtration._span_rank(alg, [], everything)
                assert count + filtration._span_rank(alg, labels, rest) \
                    == rank == filtration_span_dim(q, n)


def _without(row: dict, implicit: dict) -> dict:
    """`row` less its terms s.t* with |s| = |t| = m ending at a w in
    implicit[m]."""
    return {k: c for k, c in row.items()
            if len(k.left.arrows) != len(k.right.arrows)
            or k.left.target not in implicit.get(len(k.left.arrows), ())}


class TestImplicitPivotsInRewrite:
    """`_normalize` given the implicit pivots builds no term among them,
    and leaves every other term of the normal form as it is."""

    @staticmethod
    def _quivers() -> list:
        rng = random.Random(21)
        with_sinks = [q for q in (random_no_source_quiver(rng, 4, 8)
                                  for _ in range(80)) if q.num_sinks]
        assert len(with_sinks) >= 20
        return list(ENGINE_QUIVERS.values()) + with_sinks[:20]

    def test_dropped_terms_are_exactly_the_implicit_ones(self):
        """Every non-normal spanning monomial of levels 0-3, against the
        stage's own pivots and against every equal-length monomial of
        length at most 3, which also drops the stripped monomial."""
        dropped = stripped = 0
        for q in self._quivers():
            alg = LeavittAlgebra(q)
            by_target = _paths_by_target(alg, 3, filtration._SPAN_LIMIT)
            everything = {m: set(alg.vertices) for m in range(4)}
            for n in range(4):
                labels = filtration._block_labels(q, n)
                stage: dict = {}
                for m, w in labels:
                    stage.setdefault(m, set()).add(w)
                _, rest = filtration._spanning_monomials(
                    alg, labels, by_target)
                for mon in rest:
                    full = alg._normalize([(mon, 1)])
                    for implicit in (stage, everything):
                        row = alg._normalize([(mon, 1)], implicit)
                        assert row == _without(full, implicit)
                    dropped += len(full) - len(_without(full, stage))
                    stripped += min(full, key=_sort_key) \
                        not in alg._normalize([(mon, 1)], everything)
        assert dropped and stripped

    def test_unequal_lengths_and_summed_terms(self):
        """Every non-normal pair of paths of lengths at most 3 into one
        vertex, unequal lengths included, one at a time and all at once
        with random coefficients, against every equal-length monomial of
        length at most 2."""
        rng = random.Random(22)
        for q in self._quivers():
            alg = LeavittAlgebra(q)
            by_target = _paths_by_target(alg, 3, filtration._SPAN_LIMIT)
            implicit = {m: set(alg.vertices) for m in range(3)}
            pool: dict = {}
            for level in by_target:
                for w, paths in level.items():
                    pool.setdefault(w, []).extend(paths)
            terms = [(Monomial(s, t), rng.choice((1, -1, 2, 3)))
                     for paths in pool.values() for s in paths for t in paths
                     if not is_normal(alg, Monomial(s, t))]
            assert any(len(m.left) != len(m.right) for m, _ in terms)
            for term in terms:
                assert alg._normalize([term], implicit) \
                    == _without(alg._normalize([term]), implicit)
            assert alg._normalize(terms, implicit) \
                == _without(alg._normalize(terms), implicit)


class TestBuildsOncePerCall:
    def test_filtration_span_dim(self, monkeypatch):
        q = jacobson_quiver(2)
        want = block_profile(q, 3).sum_of_squares
        counts = _count_builds(monkeypatch)
        assert filtration_span_dim(q, 3) == want
        assert counts == {"builds": 1, "count_runs": 0}

    def test_filtration_command(self, monkeypatch, capsys):
        counts = _count_builds(monkeypatch)
        tables = []
        paths = filtration._paths_by_target

        def counting_paths(alg, max_len, limit):
            tables.append(max_len)
            return paths(alg, max_len, limit)

        monkeypatch.setattr(filtration, "_paths_by_target", counting_paths)
        assert cli.main(["filtration", str(DATA / "jacobson2.q"),
                         "--level", "3"]) == 0
        assert "dimension match: OK" in capsys.readouterr().out
        assert counts == {"builds": 1, "count_runs": 1}
        assert tables == [3]

    def test_stabilized_block_difference(self, monkeypatch):
        counts = _count_builds(monkeypatch)
        q = jacobson_quiver(2)
        assert stabilized_block_difference(q, 3) == leavitt_matrix(q)
        assert counts == {"builds": 1, "count_runs": 1}


class TestTransitionMatrices:
    def test_toeplitz_inclusion_level_one(self):
        m = inclusion_k0_matrix(toeplitz_quiver(), 1)
        assert m.tolists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]

    def test_rose_inclusion_counts_petals(self):
        for n in range(4):
            for level in range(3):
                assert inclusion_k0_matrix(rose(n + 1), level).tolists() \
                    == [[n + 1]]

    def test_toeplitz_phi_level_one(self):
        m = phi_k0_matrix(toeplitz_quiver(), 1)
        assert m.tolists() == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_rose_phi_identity(self):
        for n in range(4):
            for level in range(3):
                assert phi_k0_matrix(rose(n + 1), level) == IntMatrix([[1]])

    @pytest.mark.parametrize("q", FIXTURE_QUIVERS, ids=lambda q: "-".join(q.vertices)
                             + f"-{len(q.arrows)}")
    def test_match_expected_forms(self, q):
        for n in range(3):
            assert inclusion_k0_matrix(q, n) == expected_inclusion_matrix(q, n)
            assert phi_k0_matrix(q, n) == expected_phi_matrix(q, n)

    def test_random_quivers_match(self):
        rng = random.Random(2)
        for _ in range(10):
            q = random_no_source_quiver(rng, max_arrows=4)
            for n in range(3):
                assert inclusion_k0_matrix(q, n) == expected_inclusion_matrix(q, n)
                assert phi_k0_matrix(q, n) == expected_phi_matrix(q, n)

    def test_failed_splitting_raises(self, monkeypatch):
        """Without junction rewrites s.s* no longer equals the sum of its
        one-arrow extensions, and the engine check says so."""
        class NoJunctions(LeavittAlgebra):
            def __init__(self, q):
                super().__init__(q)
                self._junction = {}

        monkeypatch.setattr(filtration, "LeavittAlgebra", NoJunctions)
        with pytest.raises(AssertionError,
                           match="idempotent splitting failed symbolically"):
            inclusion_k0_matrix(DATA_QUIVERS["rose2.q"], 1)

    def test_wrong_corner_image_raises(self, monkeypatch):
        """An endomorphism that fixes u disagrees with the predicted
        image (a s)(a s)*, and the engine check says so."""
        monkeypatch.setattr(filtration, "corner_phi", lambda a, corner: a)
        with pytest.raises(AssertionError, match="corner endomorphism mismatch"):
            phi_k0_matrix(DATA_QUIVERS["rose2.q"], 1)


class TestStabilizedDifference:
    def test_stabilized_difference_equals_leavitt_matrix(self):
        rng = random.Random(3)
        quivers = FIXTURE_QUIVERS + [random_no_source_quiver(rng, max_arrows=4)
                                     for _ in range(8)]
        for q in quivers:
            expected = leavitt_matrix(q)
            for n in range(3):
                assert stabilized_block_difference(q, n) == expected
