"""Acceptance suite: one test per criterion, exact tolerances, with a
PASS/FAIL line per criterion (visible under `pytest -s`)."""

import io
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from helpers import (ENGINE_QUIVERS, jacobson_quiver, random_no_source_quiver,
                     rewrite_in_order, rose)
from leavittk.cli import main as cli_main
from leavittk.cli import parse_records
from leavittk.quiver import render_quiver
from leavittk.algebra import (LeavittAlgebra, Monomial,
                              random_degree_zero_element, verify_corner_axioms)
from leavittk.filtration import (block_profile, expected_inclusion_matrix,
                                 expected_phi_matrix, filtration_span_dim,
                                 inclusion_k0_matrix, phi_k0_matrix)
from leavittk.groups import (FinAbGroup, Modulus, brute_force_mod_oracle)
from leavittk.ktheory import (divisibility_report, leavitt_matrix,
                              les_table_for_quiver, mod_l_ktheory,
                              moore_splitting_check)
from leavittk.matrices import IntMatrix, smith_normal_form


def G(*orders):
    return FinAbGroup.from_cyclic_orders(orders)


def _report(number, description, fn):
    try:
        fn()
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {description}", file=sys.stderr)
        raise
    print(f"criterion {number:2d}: PASS  {description}")


ENGINE_FAMILY = [ENGINE_QUIVERS[k] for k in
                 ("toeplitz", "jacobson1", "jacobson2",
                  "rose1", "rose2", "rose3", "rose4")]


def run_cli(args):
    stdout, stderr = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr
    try:
        code = cli_main(args)
    finally:
        sys.stdout, sys.stderr = old
    return code, stdout.getvalue(), stderr.getvalue()


def test_criterion_1_jacobson_tables():
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            for n in range(4):
                path = str(Path(tmp) / f"jacobson{n}.q")
                Path(path).write_text(render_quiver(jacobson_quiver(n)))
                for m in (2, 3, 4, 5, 8, 9):
                    start = time.monotonic()
                    code, out, _ = run_cli(["kmod", path, "--mod", str(m),
                                            "--format", "records"])
                    assert time.monotonic() - start < 1.0
                    assert code == 0
                    table = dict(parse_records(out))
                    for deg in range(-2, 8):
                        expected = f"Z/{m}" if deg >= 0 and deg % 2 == 0 else "0"
                        assert table[f"K_{{{deg}}}"] == expected

    _report(1, "Jacobson family via kmod: Z/m even, 0 odd/negative "
               "(n in 0..3, m in {2,3,4,5,8,9}), each run under 1 s", run)


def test_criterion_2_leavitt_family():
    def run():
        for m in (2, 3, 4, 5, 8, 9, 16, 25):
            mod = Modulus.of(m)
            one = mod_l_ktheory(rose(1), mod)
            for deg in one.degrees():
                assert one.group_at(deg) == (G(m) if deg >= 0 else G())
            two = mod_l_ktheory(rose(2), mod)
            assert all(two.group_at(deg).is_trivial for deg in two.degrees())
            moore = mod_l_ktheory(rose(m + 1), mod)
            for deg in moore.degrees():
                assert moore.group_at(deg) == (G(m) if deg >= 0 else G())

    _report(2, "Leavitt family: 1 petal Z/m, 2 petals 0, "
               "l^nu+1 petals Z/l^nu", run)


def test_criterion_3_oracle_equivalence():
    def run():
        rng = random.Random(2024)
        start = time.monotonic()
        for _ in range(200):
            q = random_no_source_quiver(rng, max_vertices=5, max_arrows=10,
                                        also_sink_free=True)
            matrix = leavitt_matrix(q)
            for m in (2, 3, 4, 5, 7, 8, 9):
                mod = Modulus.of(m)
                kernel, cokernel = brute_force_mod_oracle(matrix, mod)
                table = mod_l_ktheory(q, mod, 0, 1)
                assert table.group_at(0) == cokernel
                assert table.group_at(1) == kernel
        assert time.monotonic() - start < 60.0

    _report(3, "200 random quivers x 7 moduli: tables match the "
               "enumeration oracle, under 60 s", run)


def test_criterion_4_snf_certificates():
    def run():
        rng = random.Random(99)
        for _ in range(500):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                           for _ in range(rows)])
            assert smith_normal_form(m).verify()

    _report(4, "500 random Smith decompositions verify "
               "(UMV = D, unimodular, divisibility chain)", run)


def test_criterion_5_moore_splitting():
    def run():
        for n in range(2, 61):
            for m in (2, 3, 4, 5, 8, 9, 16, 25):
                assert moore_splitting_check(n, Modulus.of(m)).equal

    _report(5, "splitting check n in [2,60], m in {2,3,4,5,8,9,16,25}", run)


def test_criterion_6_divisibility_exactly_when_coprime():
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            for n in range(0, 21):
                path = str(Path(tmp) / f"rose{n}.q")
                Path(path).write_text(render_quiver(rose(n + 1)))
                for l in (2, 3, 5, 7, 11, 13):
                    entry = divisibility_report(rose(n + 1), [(l, 1)]).entries[0]
                    code, out, _ = run_cli(["analyze", path,
                                            "--primes", str(l)])
                    assert code == 0
                    concluded = f"uniquely {l}^1-divisible" in out
                    assert concluded == (n % l != 0)
                    assert entry.vanishes == concluded

    _report(6, "roses via analyze: uniquely l-divisible exactly when l "
               "does not divide n (n <= 20, primes <= 13)", run)


def test_criterion_7_rewriting_property_suite():
    def run():
        start = time.monotonic()
        rng = random.Random(7)
        for q in ENGINE_FAMILY:
            alg = LeavittAlgebra(q)
            # associativity on 100 random triples
            for _ in range(100):
                a = random_degree_zero_element(alg, rng, max_len=3)
                b = random_degree_zero_element(alg, rng, max_len=3)
                c = random_degree_zero_element(alg, rng, max_len=3)
                assert (a * b) * c == a * (b * c)
            # confluence: 200 random raw expressions, three rewrite orders
            for _ in range(200):
                raw = _raw_terms(alg, rng)
                want = alg._normalize(list(raw))
                for pick in (lambda p: 0, lambda p: len(p) - 1,
                             lambda p: rng.randrange(len(p))):
                    assert rewrite_in_order(alg, raw, pick) == want
            # CK relations annihilate
            names = [a.name for a in q.arrows]
            for x in names:
                for y in names:
                    got = alg.arrow(x).star() * alg.arrow(y)
                    expected = alg.vertex(alg._tgt[x]) if x == y else alg.zero()
                    assert got == expected
            for v in q.vertices:
                if alg._out[v]:
                    acc = alg.zero()
                    for a in alg._out[v]:
                        acc = acc + alg.arrow(a) * alg.arrow(a).star()
                    assert acc == alg.vertex(v)
            # star is an involutive anti-automorphism
            for _ in range(25):
                a = random_degree_zero_element(alg, rng)
                b = random_degree_zero_element(alg, rng)
                assert (a * b).star() == b.star() * a.star()
                assert a.star().star() == a
            # graded product law
            for _ in range(25):
                a = random_degree_zero_element(alg, rng) \
                    + alg.arrow(rng.choice(names))
                b = random_degree_zero_element(alg, rng) \
                    + alg.arrow(rng.choice(names)).star()
                pa, pb = a.degree_components(), b.degree_components()
                parts = (a * b).degree_components()
                for d in {x + y for x in pa for y in pb} | set(parts):
                    acc = alg.zero()
                    for d1, ca in pa.items():
                        for d2, cb in pb.items():
                            if d1 + d2 == d:
                                acc = acc + ca * cb
                    assert acc == parts.get(d, alg.zero())
        assert time.monotonic() - start < 30.0

    _report(7, "engine properties: associativity, confluence, CK "
               "annihilation, star, graded law, under 30 s", run)


def _raw_terms(alg, rng):
    terms = []
    for _ in range(rng.randint(1, 3)):
        w = rng.choice(alg.vertices)
        d = rng.randint(0, 2)
        sides = []
        for _ in range(2):
            arrows = []
            v = w
            for _ in range(d):
                a = rng.choice(alg._in[v])
                arrows.append(a)
                v = alg._src[a]
            arrows.reverse()
            sides.append(alg.path(arrows) if arrows else alg.empty_path(w))
        left, right = sides
        if alg._out.get(w):
            g = alg.special[w]
            if alg._src[g] == left.target:
                left = alg.path(list(left.arrows) + [g]) if left.arrows \
                    else alg.path([g])
                right = alg.path(list(right.arrows) + [g]) if right.arrows \
                    else alg.path([g])
        terms.append((Monomial(left, right), Fraction(rng.randint(1, 3))))
    return terms


def test_criterion_8_corner_axioms():
    def run():
        for q in ENGINE_FAMILY:
            report = verify_corner_axioms(LeavittAlgebra(q), samples=25)
            assert report.passed, report.failures

    _report(8, "corner-skew axioms hold on every test quiver "
               "(25 samples each)", run)


def test_criterion_9_filtration():
    def run():
        start = time.monotonic()
        rng = random.Random(31)
        quivers = list(ENGINE_FAMILY)
        quivers += [random_no_source_quiver(rng, max_vertices=3, max_arrows=5)
                    for _ in range(20)]
        for q in quivers:
            for n in range(4):
                profile = block_profile(q, n)
                assert profile.count \
                    == (n + 1) * q.num_sinks + (q.v - q.num_sinks)
                assert filtration_span_dim(q, n) == profile.sum_of_squares
                assert inclusion_k0_matrix(q, n) \
                    == expected_inclusion_matrix(q, n)
                assert phi_k0_matrix(q, n) == expected_phi_matrix(q, n)
        assert time.monotonic() - start < 120.0

    _report(9, "filtration: dimensions, block counts, inclusion and "
               "corner matrices on 27 quivers, levels <= 3, under 120 s", run)


def test_criterion_10_les_consistency():
    def run():
        quivers = [rose(p) for p in range(1, 6)] \
            + [jacobson_quiver(n) for n in range(4)]
        for q in quivers:
            for m in (2, 3, 4, 5, 8, 9):
                mod = Modulus.of(m)
                table = mod_l_ktheory(q, mod)
                for entry in les_table_for_quiver(q, mod):
                    assert entry.resolved is not None
                    assert entry.resolved == table.group_at(entry.degree)

    _report(10, "corner LES with cyclic coefficients reproduces every "
                "table on roses and Jacobson quivers", run)
