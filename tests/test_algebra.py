import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import (ENGINE_QUIVERS, call_within, ck_rewrite,
                     enumerate_basis, is_normal, jacobson_quiver,
                     random_no_source_quiver, rewrite_in_order, rose,
                     toeplitz_quiver)
from leavittk.algebra import (LeavittAlgebra, Monomial, Path, corner_data,
                              corner_phi, random_degree_zero_element,
                              render_element, verify_corner_axioms)
from leavittk.element_syntax import ElementSyntaxError, parse_element
from leavittk.groups import SizeLimitError
from leavittk.quiver import Quiver, parse_quiver


def l1_algebra():
    return LeavittAlgebra(rose(2))


def l0_algebra():
    return LeavittAlgebra(rose(1))


def toeplitz_algebra():
    return LeavittAlgebra(toeplitz_quiver())


class TestProducts:
    def test_ck1_same_arrow(self):
        alg = l1_algebra()
        x = alg.arrow("a1")
        assert x.star() * x == alg.one()

    def test_ck1_different_arrows(self):
        alg = l1_algebra()
        x, y = alg.arrow("a1"), alg.arrow("a2")
        assert (y.star() * x).is_zero

    def test_ck2_direct(self):
        alg = l1_algebra()
        x, y = alg.arrow("a1"), alg.arrow("a2")
        assert x * x.star() == alg.one() - y * y.star()

    def test_toeplitz_isometry_sum(self):
        alg = toeplitz_algebra()
        t = alg.arrow("a1") + alg.arrow("b1")
        assert t.star() * t == alg.one()

    def test_uncomposable_is_zero(self):
        alg = toeplitz_algebra()
        # b1 ends at the sink, so nothing composes after it.
        assert (alg.arrow("b1") * alg.arrow("b1")).is_zero
        assert (alg.vertex("1") * alg.vertex("2")).is_zero

    def test_algebra_mismatch_rejected(self):
        a = l1_algebra().one()
        b = toeplitz_algebra().one()
        with pytest.raises(ValueError):
            a * b

    def test_product_term_bound(self):
        """A 2^14-term power of x + y times x + y would expand to 2^15
        raw terms, past the 20,000-term product bound."""
        alg = l1_algebra()
        s = alg.arrow("a1") + alg.arrow("a2")
        power = s
        for _ in range(13):
            power = power * s
        assert len(power.terms()) == 2 ** 14
        with pytest.raises(SizeLimitError, match="20000 terms"):
            power * s


class TestConstruction:
    def test_long_cycle_builds_in_one_pass(self):
        # 20,000 vertices: a scan of every arrow per vertex would take
        # 4e8 steps, one pass over the arrows takes 2e4
        n = 20000
        q = Quiver.build([f"v{i}" for i in range(n)],
                         [(f"a{i}", f"v{i}", f"v{(i + 1) % n}")
                          for i in range(n)])
        alg = call_within(5, lambda: LeavittAlgebra(q))
        assert isinstance(alg, LeavittAlgebra)
        assert list(alg._out) == list(alg._in) == list(q.vertices)
        for i in (0, 1, 9999, n - 1):
            assert alg._out[f"v{i}"] == (f"a{i}",)
            assert alg._in[f"v{i}"] == (f"a{(i - 1) % n}",)
            assert alg.special[f"v{i}"] == f"a{i}"

    def test_arrows_sorted_per_vertex(self):
        q = Quiver.build(["u", "w"], [("c", "u", "w"), ("a", "u", "u"),
                                      ("b", "w", "u")])
        alg = LeavittAlgebra(q)
        assert alg._out == {"u": ("a", "c"), "w": ("b",)}
        assert alg._in == {"u": ("a", "b"), "w": ("c",)}
        assert alg.special == {"u": "a", "w": "b"}

    @pytest.mark.parametrize("call, message", (
        (lambda alg: alg.empty_path("z"), "unknown vertex 'z'"),
        (lambda alg: alg.path([]), "use empty_path for trivial paths"),
        (lambda alg: alg.path(["b1", "a1"]),
         "arrows 'b1' and 'a1' do not compose"),
        (lambda alg: alg.arrow("z"), "unknown arrow 'z'"),
    ), ids=("empty_path", "path-empty", "path-gap", "arrow"))
    def test_refuses_bad_input(self, call, message):
        with pytest.raises(ValueError) as err:
            call(toeplitz_algebra())
        assert str(err.value) == message

    def test_element_is_never_a_scalar(self):
        # __eq__ returns NotImplemented for a non-Element, so == is False
        alg = toeplitz_algebra()
        assert (alg.arrow("a1") == 3) is False
        assert alg.arrow("a1") != 3


class TestNormalForm:
    def test_one_junction_step(self):
        alg = LeavittAlgebra(rose(3))
        g, a, b = (alg.arrow(n) for n in ("a1", "a2", "a3"))
        assert g * g.star() == alg.one() - a * a.star() - b * b.star()

    def test_orthogonal_idempotents(self):
        alg = toeplitz_algebra()
        assert (alg.vertex("1") * alg.vertex("2")).is_zero
        assert alg.vertex("1") * alg.vertex("1") == alg.vertex("1")

    def test_nested_junctions(self):
        alg = l1_algebra()
        x, y = alg.arrow("a1"), alg.arrow("a2")
        value = x * x * x.star() * x.star()
        expected = alg.one() - y * y.star() - x * y * y.star() * x.star()
        assert value == expected
        assert render_element(value) == "1 - a2 a2* - a1 a2 a2* a1*"

    def test_unit_is_identity(self):
        rng = random.Random(0)
        for alg_quiver in ENGINE_QUIVERS.values():
            alg = LeavittAlgebra(alg_quiver)
            one = alg.one()
            for _ in range(10):
                a = random_degree_zero_element(alg, rng)
                assert one * a == a
                assert a * one == a

    def test_ck_relations_annihilate(self):
        for q in ENGINE_QUIVERS.values():
            alg = LeavittAlgebra(q)
            arrows = [a.name for a in q.arrows]
            for a in arrows:
                for b in arrows:
                    got = alg.arrow(a).star() * alg.arrow(b)
                    if a == b:
                        assert got == alg.vertex(alg._tgt[a])
                    else:
                        assert got.is_zero
            for v in q.vertices:
                out = alg._out[v]
                if not out:
                    continue
                acc = alg.zero()
                for a in out:
                    acc = acc + alg.arrow(a) * alg.arrow(a).star()
                assert acc == alg.vertex(v)


class TestStarAndGrading:
    def test_star_fixtures(self):
        alg = l1_algebra()
        x, y = alg.arrow("a1"), alg.arrow("a2")
        assert (x * y.star()).star() == y * x.star()

    def test_star_antihomomorphism(self):
        rng = random.Random(1)
        for q in ENGINE_QUIVERS.values():
            alg = LeavittAlgebra(q)
            for _ in range(15):
                a = random_degree_zero_element(alg, rng)
                b = random_degree_zero_element(alg, rng)
                assert (a * b).star() == b.star() * a.star()
                assert a.star().star() == a

    def test_grading_fixtures(self):
        alg = l1_algebra()
        x, y = alg.arrow("a1"), alg.arrow("a2")
        assert list((x * y.star()).degree_components()) == [0]
        parts = (x + y.star()).degree_components()
        assert set(parts) == {-1, 1}
        assert parts[1] == x and parts[-1] == y.star()

    def test_components_sum_back(self):
        rng = random.Random(2)
        alg = LeavittAlgebra(jacobson_quiver(1))
        for _ in range(10):
            a = random_degree_zero_element(alg, rng) \
                + alg.arrow("a1") * rng.randint(1, 3)
            total = alg.zero()
            for part in a.degree_components().values():
                total = total + part
            assert total == a

    def test_graded_product_law(self):
        rng = random.Random(3)
        for q in ENGINE_QUIVERS.values():
            alg = LeavittAlgebra(q)
            arrows = [a.name for a in q.arrows]
            for _ in range(10):
                a = random_degree_zero_element(alg, rng) \
                    + alg.arrow(rng.choice(arrows))
                b = random_degree_zero_element(alg, rng) \
                    + alg.arrow(rng.choice(arrows)).star()
                pa = a.degree_components()
                pb = b.degree_components()
                prod_parts = (a * b).degree_components()
                degrees = {d1 + d2 for d1 in pa for d2 in pb}
                for d in degrees | set(prod_parts):
                    acc = alg.zero()
                    for d1, ca in pa.items():
                        for d2, cb in pb.items():
                            if d1 + d2 == d:
                                acc = acc + ca * cb
                    assert acc == prod_parts.get(d, alg.zero())


class TestAssociativityAndConfluence:
    def test_associativity_random_triples(self):
        rng = random.Random(4)
        for q in ENGINE_QUIVERS.values():
            alg = LeavittAlgebra(q)
            for _ in range(30):
                a = random_degree_zero_element(alg, rng, max_len=3)
                b = random_degree_zero_element(alg, rng, max_len=3)
                c = random_degree_zero_element(alg, rng, max_len=3)
                assert (a * b) * c == a * (b * c)

    def test_confluence_different_rewrite_orders(self):
        rng = random.Random(5)
        for q in ENGINE_QUIVERS.values():
            alg = LeavittAlgebra(q)
            for _ in range(40):
                raw = _random_raw_terms(alg, rng)
                want = alg._normalize(list(raw))
                for pick in (lambda pending: 0,
                             lambda pending: len(pending) - 1,
                             lambda pending: rng.randrange(len(pending))):
                    assert rewrite_in_order(alg, raw, pick) == want


def _random_raw_terms(alg, rng):
    """Random, deliberately non-normal (monomial, coeff) pairs."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        w = rng.choice(alg.vertices)
        d = rng.randint(0, 2)
        left, right = (_backward_path(alg, rng, w, d) for _ in range(2))
        # Append the special junction pair where possible to force rewrites.
        if alg._out.get(w):
            g = alg.special[w]
            if alg._src[g] == left.target:
                left = alg.path(list(left.arrows) + [g]) if left.arrows \
                    else alg.path([g])
                right = alg.path(list(right.arrows) + [g]) if right.arrows \
                    else alg.path([g])
        terms.append((Monomial(left, right), Fraction(rng.randint(1, 3))))
    return terms


def _backward_path(alg, rng, w, length):
    """A random path of `length` arrows into w, built backwards."""
    arrows, v = [], w
    for _ in range(length):
        a = rng.choice(alg._in[v])
        arrows.append(a)
        v = alg._src[a]
    arrows.reverse()
    return alg.path(arrows) if arrows else alg.empty_path(w)


def _chain_terms(alg, rng):
    """Random (monomial, coeff) terms, many ending in a chain of common
    arrows, mostly special ones, so that rewrites nest; coefficients
    include 0 and proper fractions."""
    coeffs = [0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2)]
    terms = []
    for _ in range(rng.randint(1, 4)):
        w = rng.choice(alg.vertices)
        left = _backward_path(alg, rng, w, rng.randint(0, 2))
        right = _backward_path(alg, rng, w, rng.randint(0, 2))
        chain = []
        for _ in range(rng.randint(0, 4)):
            if not alg._out[w]:
                break
            a = alg.special[w] if rng.random() < 0.7 \
                else rng.choice(alg._out[w])
            chain.append(a)
            w = alg._tgt[a]
        left = Path(left.source, w, left.arrows + tuple(chain))
        right = Path(right.source, w, right.arrows + tuple(chain))
        terms.append((Monomial(left, right), rng.choice(coeffs)))
    return terms


def _strip_prefix_product(m1, m2):
    """(s1.t1*)(s2.t2*) before rewriting, by stripping one path off the
    front of the other; None means zero."""
    def strip(prefix, whole):
        k = len(prefix.arrows)
        if prefix.source != whole.source or whole.arrows[:k] != prefix.arrows:
            return None
        return Path(prefix.target, whole.target, whole.arrows[k:])

    def concat(p, q):
        assert p.target == q.source
        return Path(p.source, q.target, p.arrows + q.arrows)

    rest = strip(m1.right, m2.left)
    if rest is not None:
        return Monomial(concat(m1.left, rest), m2.right)
    rest = strip(m2.left, m1.right)
    if rest is not None:
        return Monomial(m1.left, concat(m2.right, rest))
    return None


def _reference_quivers():
    rng = random.Random(21)
    sinky = [random_no_source_quiver(rng, max_vertices=4, max_arrows=7)
             for _ in range(12)]
    assert sum(1 for q in sinky if q.num_sinks) >= 3
    return list(ENGINE_QUIVERS.values()) + sinky


class TestRewritingReference:
    """The one-walk rewriting and the tuple-level products against
    step-by-step references."""

    def test_normalize_equals_rewriting_step_by_step(self):
        rng = random.Random(22)
        seen_zero = seen_fraction = nested = 0
        for q in _reference_quivers():
            alg = LeavittAlgebra(q)
            for _ in range(60):
                raw = _chain_terms(alg, rng)
                seen_zero += any(c == 0 for _, c in raw)
                seen_fraction += any(isinstance(c, Fraction) for _, c in raw)
                want = rewrite_in_order(alg, raw, lambda p: len(p) - 1)
                got = alg._normalize(list(raw))
                assert got == want
                assert all(is_normal(alg, m) and c for m, c in got.items())
                steps = [ck_rewrite(alg, m) for m, _ in raw]
                nested += any(step and ck_rewrite(alg, step[0][1])
                              for step in steps)
        assert seen_zero and seen_fraction and nested

    def test_mul_monomials_equals_strip_prefix(self):
        rng = random.Random(23)
        zero = nonzero = empty = 0
        for q in _reference_quivers():
            alg = LeavittAlgebra(q)
            for _ in range(80):
                m1 = m2 = _chain_terms(alg, rng)[0][0]
                if rng.random() < 0.5:
                    m2 = _chain_terms(alg, rng)[0][0]
                elif rng.random() < 0.5:
                    # s2 a prefix of t1: the product extends t2
                    r = m1.right
                    k = rng.randint(0, len(r.arrows))
                    head = Path(r.source, alg._tgt[r.arrows[k - 1]]
                                if k else r.source, r.arrows[:k])
                    m2 = Monomial(head, head)
                got = alg._mul_monomials(m1, m2)
                assert got == _strip_prefix_product(m1, m2)
                if got is None:
                    zero += 1
                else:
                    nonzero += 1
                    assert type(got) is Monomial
                    assert all(type(p) is Path for p in got)
                empty += not m1.right.arrows or not m2.left.arrows
        assert zero and nonzero and empty


class TestCornerData:
    def test_rose_two_petals(self):
        alg = l1_algebra()
        corner = corner_data(alg)
        assert corner.designated == (("w", "a1"),)
        assert corner.t_plus == alg.arrow("a1")
        assert corner.e == alg.arrow("a1") * alg.arrow("a1").star()
        assert corner.t_minus * corner.t_plus == alg.one()

    def test_toeplitz(self):
        alg = toeplitz_algebra()
        corner = corner_data(alg)
        assert corner.t_plus == alg.arrow("a1") + alg.arrow("b1")
        assert corner.t_minus == corner.t_plus.star()
        assert corner.t_minus * corner.t_plus == alg.one()

    def test_one_petal_unit_corner(self):
        alg = l0_algebra()
        corner = corner_data(alg)
        assert corner.t_plus == alg.arrow("a1")
        assert corner.e == alg.one()

    def test_sources_rejected(self):
        alg = LeavittAlgebra(parse_quiver("vertices a b\narrow x a b\narrow l b b"))
        with pytest.raises(ValueError):
            corner_data(alg)

    def test_accepts_bare_quivers(self):
        alg = LeavittAlgebra(rose(2))
        assert corner_data(alg).t_plus == alg.arrow("a1")
        assert verify_corner_axioms(alg, samples=3).passed
        assert len(enumerate_basis(alg, 1)) == 8


class TestCornerPhi:
    def test_phi_of_one_is_e(self):
        for q in ENGINE_QUIVERS.values():
            alg = LeavittAlgebra(q)
            corner = corner_data(alg)
            assert corner_phi(alg.one(), corner) == corner.e

    def test_toeplitz_vertex_image(self):
        alg = toeplitz_algebra()
        corner = corner_data(alg)
        a = alg.arrow("a1")
        assert corner_phi(alg.vertex("1"), corner) == a * a.star()

    def test_preserves_degree_zero(self):
        rng = random.Random(6)
        alg = LeavittAlgebra(jacobson_quiver(2))
        corner = corner_data(alg)
        for _ in range(10):
            a = random_degree_zero_element(alg, rng)
            assert corner_phi(a, corner).is_homogeneous(0)

    def test_warns_off_degree(self):
        alg = l1_algebra()
        corner = corner_data(alg)
        with pytest.warns(UserWarning):
            corner_phi(alg.arrow("a1"), corner)


class TestCornerAxioms:
    @pytest.mark.parametrize("name", sorted(ENGINE_QUIVERS))
    def test_engine_quivers(self, name):
        report = verify_corner_axioms(LeavittAlgebra(ENGINE_QUIVERS[name]),
                                      samples=25)
        assert report.passed, report.failures


class TestEnumerateBasis:
    def test_loop_algebra(self):
        alg = l0_algebra()
        mons = enumerate_basis(alg, 2)
        rendered = sorted(alg.render_monomial(m) for m in mons)
        assert len(mons) == 5
        assert rendered == sorted(["1", "a1", "a1 a1", "a1*", "a1* a1*"])

    def test_single_vertex_no_arrows(self):
        alg = LeavittAlgebra(parse_quiver("vertices w"))
        mons = enumerate_basis(alg, 3)
        assert len(mons) == 1
        assert mons[0].left.arrows == () and mons[0].left.source == "w"

    def test_rose_two_petals_depth_one(self):
        alg = l1_algebra()
        mons = enumerate_basis(alg, 1)
        assert len(mons) == 8
        names = {alg.render_monomial(m) for m in mons}
        assert "a1 a1*" not in names  # the special junction is excluded
        assert "a2 a2*" in names

    def test_guard(self):
        alg = LeavittAlgebra(rose(4))
        with pytest.raises(SizeLimitError):
            enumerate_basis(alg, 5)

    def test_deterministic_order(self):
        alg = toeplitz_algebra()
        assert enumerate_basis(alg, 2) == enumerate_basis(alg, 2)


class TestRationalRing:
    """Integral rationals are kept as int, and an int coefficient and an
    equal Fraction make the same element."""

    def test_integral_fraction_becomes_int(self):
        c = l1_algebra().coerce(Fraction(4, 2))
        assert type(c) is int and c == 2

    def test_proper_fraction_stays(self):
        c = l1_algebra().coerce(Fraction(1, 2))
        assert type(c) is Fraction and c == Fraction(1, 2)

    def test_float_refused(self):
        # a float is not rounded to a nearby rational: 0.1 would enter as
        # 3602879701896397/36028797018963968
        alg = l1_algebra()
        x = alg.arrow("a1")
        mon = next(iter(x.terms()))[0]
        for c in (0.1, 2.0):
            with pytest.raises(TypeError):
                alg.coerce(c)
            with pytest.raises(TypeError):
                x * c
            with pytest.raises(TypeError):
                alg.element([(mon, c)])
        assert type(alg.coerce(3)) is int and alg.coerce(-3) == -3

    def test_int_and_fraction_coefficients_agree(self):
        alg = l1_algebra()
        x = alg.arrow("a1")
        as_int, as_fraction = x * 2, x * Fraction(2, 3) * 3
        mon = next(iter(x.terms()))[0]
        assert type(as_int.coefficient(mon)) is int
        assert type(as_fraction.coefficient(mon)) is int
        assert as_int == as_fraction
        assert hash(as_int) == hash(as_fraction)
        assert render_element(as_int) == render_element(as_fraction) \
            == "2 a1"


_SCALES = (1, -1, 2, Fraction(1, 6), Fraction(-5, 4), Fraction(9, 3),
           Fraction(3, 7))


def _fraction_raw_terms(alg, rng):
    """Random raw (monomial, Fraction) terms, with 0 and integral
    fractions among the coefficients."""
    return [(mon, Fraction(c) * rng.choice(_SCALES))
            for mon, c in _chain_terms(alg, rng)]


def _reference(alg, raw) -> dict:
    """Normal form of raw Fraction terms, computed on Fraction dicts."""
    return alg._normalize(raw)


def _nonzero(terms: dict) -> dict:
    return {m: c for m, c in terms.items() if c}


def _ref_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return _nonzero(out)


def _ref_mul(alg, f: dict, g: dict) -> dict:
    raw = [(prod, c1 * c2) for m1, c1 in f.items() for m2, c2 in g.items()
           if (prod := alg._mul_monomials(m1, m2)) is not None]
    return alg._normalize(raw)


def _agrees(element, ref: dict):
    """element's coefficients are ref's, an int exactly when integral,
    and its numerators and denominator are in lowest terms."""
    got = dict(element.terms())
    assert got == ref
    for c in got.values():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)
    den, nums = element._den, list(element._terms.values())
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in nums)
    assert gcd(den, *nums) == 1
    if element.is_zero:
        assert den == 1


class TestFractionFreeAgainstFractions:
    """Int numerators over one denominator give, coefficient by
    coefficient, what the same operations give on Fraction dicts."""

    @pytest.mark.parametrize("name", sorted(ENGINE_QUIVERS))
    def test_operations_match_fraction_dicts(self, name):
        alg = LeavittAlgebra(ENGINE_QUIVERS[name])
        rng = random.Random(24)
        for _ in range(40):
            raw_a = _fraction_raw_terms(alg, rng)
            raw_b = _fraction_raw_terms(alg, rng)
            a, b = alg.element(raw_a), alg.element(raw_b)
            fa, fb = _reference(alg, raw_a), _reference(alg, raw_b)
            _agrees(a, fa)
            _agrees(b, fb)
            _agrees(a + b, _ref_add(fa, fb))
            _agrees(a - b, _ref_add(fa, {m: -c for m, c in fb.items()}))
            _agrees(-a, {m: -c for m, c in fa.items()})
            _agrees(a * b, _ref_mul(alg, fa, fb))
            for k in (0, 3, -2, Fraction(2, 3), Fraction(-7, 2),
                      Fraction(4, 2)):
                _agrees(a * k, _nonzero({m: c * k for m, c in fa.items()}))
                _agrees(k * a, _nonzero({m: c * k for m, c in fa.items()}))
            _agrees(a.star(), {Monomial(m.right, m.left): c
                               for m, c in fa.items()})
            parts = a.degree_components()
            assert sorted(parts) == sorted({m.degree for m in fa})
            for d, part in parts.items():
                _agrees(part, {m: c for m, c in fa.items() if m.degree == d})

    @pytest.mark.parametrize("name", sorted(ENGINE_QUIVERS))
    def test_routes_to_one_value_compare_and_hash_alike(self, name):
        alg = LeavittAlgebra(ENGINE_QUIVERS[name])
        rng = random.Random(25)
        for _ in range(30):
            a = alg.element(_fraction_raw_terms(alg, rng))
            b = alg.element(_fraction_raw_terms(alg, rng))
            c = alg.element(_fraction_raw_terms(alg, rng))
            for x, y in (((a + b) * c, a * c + b * c),
                         (a * Fraction(2, 3) * Fraction(3, 2), a),
                         (a * Fraction(6, 2), a * 3),
                         (a - a + b, b),
                         ((a * b).star(), b.star() * a.star()),
                         (alg.element(dict(a.terms()).items()), a),
                         (sum(a.degree_components().values(), alg.zero()),
                          a)):
                assert x == y
                assert hash(x) == hash(y)
                assert x._den == y._den and x._terms == y._terms


class TestElementSyntax:
    def test_rewriting_fixtures(self):
        alg = l1_algebra()
        assert render_element(parse_element(alg, "a1* . a1")) == "1"
        assert render_element(parse_element(alg, "a1 . a1*")) == "1 - a2 a2*"
        toep = toeplitz_algebra()
        assert render_element(parse_element(toep, "(a1* + b1*).(a1 + b1)")) == "1"

    def test_scalars_and_signs(self):
        alg = l1_algebra()
        x = alg.arrow("a1")
        assert parse_element(alg, "2/3 a1 - a1") == x * Fraction(-1, 3)
        assert parse_element(alg, "-a1 + 2 a1") == x
        assert parse_element(alg, "3") == alg.one() * 3

    def test_idempotent_tokens(self):
        toep = toeplitz_algebra()
        assert parse_element(toep, "e(1)") == toep.vertex("1")
        assert parse_element(toep, "e(1) + e(2)") == toep.one()

    def test_star_binding(self):
        alg = l1_algebra()
        x, y = alg.arrow("a1"), alg.arrow("a2")
        assert parse_element(alg, "(a1 a2)*") == (x * y).star()

    def test_errors_carry_position(self):
        alg = l1_algebra()
        with pytest.raises(ElementSyntaxError) as err:
            parse_element(alg, "a1 + @")
        assert err.value.position == 5
        with pytest.raises(ElementSyntaxError):
            parse_element(alg, "zz")
        with pytest.raises(ElementSyntaxError):
            parse_element(alg, "a1 +")
        with pytest.raises(ElementSyntaxError):
            parse_element(alg, "2*")
        with pytest.raises(ElementSyntaxError):
            parse_element(alg, "e(nope)")
