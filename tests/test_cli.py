import io
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import call_within, cycle_text, unfactorable_dense_quiver
from leavittk import cli, groups, ktheory
from leavittk.cli import main, parse_records
from leavittk.ktheory import DEFAULT_WINDOW

DATA = Path(__file__).parent / "data"
BIG_PRIME = 10 ** 18 + 3


def run_cli(args):
    stdout, stderr = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr
    try:
        code = main(args)
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, stdout.getvalue(), stderr.getvalue()


def quiver_path(name: str) -> str:
    return str(DATA / name)


@pytest.fixture(scope="module")
def long_cycle(tmp_path_factory) -> str:
    """The path of a 20,000-vertex cycle's quiver file."""
    path = tmp_path_factory.mktemp("cycle") / "cycle.q"
    path.write_text(cycle_text(20000))
    return str(path)


class TestKmod:
    def test_rose2_vanishes(self):
        code, out, err = run_cli(["kmod", quiver_path("rose2.q"), "--mod", "8"])
        assert code == 0 and err == ""
        lines = [l for l in out.splitlines() if l.startswith("K_")]
        assert len(lines) == 10
        assert all(l.endswith("= 0") for l in lines)

    def test_rose1_laurent(self):
        code, out, _ = run_cli(["kmod", quiver_path("rose1.q"), "--mod", "9"])
        assert code == 0
        assert "K_{-1}(L_Q; Z/9) = 0" in out
        assert "K_{0}(L_Q; Z/9) = Z/9" in out
        assert "K_{7}(L_Q; Z/9) = Z/9" in out

    def test_jacobson_collapse(self):
        code, out, _ = run_cli(["kmod", quiver_path("jacobson2.q"), "--mod", "5"])
        assert code == 0
        assert "K_{0}(L_Q; Z/5) = Z/5" in out
        assert "K_{1}(L_Q; Z/5) = 0" in out

    def test_hypothesis_banner(self):
        _, out, _ = run_cli(["kmod", quiver_path("rose1.q"), "--mod", "9"])
        assert out.splitlines()[0].startswith("# hypothesis: base field k")

    def test_composite_modulus_label(self):
        """The caveat is a line of the table; nothing goes to stderr."""
        code, out, err = run_cli(["kmod", quiver_path("rose3.q"),
                                  "--mod", "6"])
        assert (code, err) == (0, "")
        assert "not a prime power" in out

    def test_window_flags(self):
        _, out, _ = run_cli(["kmod", quiver_path("rose1.q"), "--mod", "4",
                             "--from", "0", "--to", "1"])
        lines = [l for l in out.splitlines() if l.startswith("K_")]
        assert len(lines) == 2

    def test_deterministic(self):
        args = ["kmod", quiver_path("jacobson2.q"), "--mod", "8"]
        assert run_cli(args) == run_cli(args)


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.q"
        bad.write_text("arrow a x y\n")
        code, out, err = run_cli(["kmod", str(bad), "--mod", "4"])
        assert code == 1
        assert out == ""
        assert "undeclared endpoint" in err

    def test_equals_sign_in_vertex_id(self, tmp_path):
        """A records key holds the vertex id, and `=` would end it early."""
        bad = tmp_path / "equals.q"
        bad.write_text("vertices a=b c\narrow x c c\narrow y c a=b\n")
        code, out, err = run_cli(["filtration", str(bad), "--level", "1",
                                  "--format", "records"])
        assert code == 1 and out == ""
        assert "'=' in vertex id 'a=b'" in err

    def test_missing_file(self):
        code, out, err = run_cli(["kmod", "no-such-file.q", "--mod", "4"])
        assert code == 1 and out == ""

    def test_sources_exit_two(self, tmp_path):
        src = tmp_path / "sourced.q"
        src.write_text("vertices a b\narrow x a b\narrow l b b\n")
        code, out, err = run_cli(["kmod", str(src), "--mod", "4"])
        assert code == 2
        assert out == ""
        assert "sources" in err

    def test_bad_modulus_exit_three(self):
        for bad in ("1", "0", "x"):
            code, out, err = run_cli(["kmod", quiver_path("rose1.q"),
                                      "--mod", bad])
            assert code == 3
            assert out == ""

    def test_bad_prime_exit_three(self):
        code, _, _ = run_cli(["analyze", quiver_path("rose3.q"),
                              "--primes", "4"])
        assert code == 3

    def test_expression_error_exit_one(self):
        code, out, err = run_cli(["algebra", quiver_path("rose2.q"),
                                  "--eval", "x +"])
        assert code == 1
        assert out == ""
        assert "position" in err

    def test_division_by_zero_exit_one(self):
        code, out, err = run_cli(["algebra", quiver_path("rose2.q"),
                                  "--eval", "1/0"])
        assert code == 1
        assert out == ""
        assert "position 1: division by zero" in err

    def test_work_bound_exit_four(self):
        code, out, err = run_cli(["filtration", quiver_path("rose3.q"),
                                  "--level", "9"])
        assert code == 4
        assert out == ""
        assert "work bound exceeded" in err

    @pytest.mark.parametrize("name,level", [
        ("toeplitz.q", 4000)] + [(p.name, 10 ** 8) for p in DATA.glob("*.q")])
    def test_filtration_level_bound_exit_four(self, name, level):
        got = call_within(2, lambda: run_cli(
            ["filtration", quiver_path(name), "--level", str(level)]))
        assert got is not None
        code, out, err = got
        assert code == 4 and out == ""
        assert err == f"work bound exceeded: filtration level {level} would " \
                      f"exceed 60000 matrix cells or path arrows\n"

    @pytest.mark.parametrize("args,code,message", [
        (["analyze", "rose3.q", "--primes", ","], 3, "no primes given"),
        (["filtration", "rose2.q", "--level", "-1"], 1,
         "level must be nonnegative"),
        (["filtration", "rose3.q", "--level", "10"], 4,
         "work bound exceeded: path enumeration would exceed 60000 paths")])
    def test_documented_error_exits(self, args, code, message):
        """The level-10 stage of rose3 passes the level check but not the
        path table's own bound."""
        argv = [args[0], quiver_path(args[1])] + args[2:]
        got = call_within(5, lambda: run_cli(argv))
        assert got == (code, "", message + "\n")

    def test_undecodable_quiver_exit_one(self, tmp_path):
        path = tmp_path / "latin1.q"
        path.write_bytes(b"vertices caf\xe9\narrow a caf\xe9 caf\xe9\n")
        code, out, err = run_cli(["kmod", str(path), "--mod", "4"])
        assert code == 1 and out == ""
        assert err.startswith(f"cannot read {path}: 'utf-8' codec")

    @pytest.mark.parametrize("text,message", [
        ("\u00b2", "position 0: unknown arrow '\u00b2'"),
        ("1/\u00b2", "position 1: expected digits after '/'"),
        ("9" * 5000, "position 0: a number of 5000 digits is too long"),
        ("(" * 101 + "x" + ")" * 101,
         "position 100: more than 100 nested parentheses"),
        ("(x", "position 2: expected ')'"),
        ("x )", "position 2: trailing input"),
        ("e(+)", "position 2: expected a vertex id"),
        ("\u0663/\u0660", "position 1: division by zero"),
        ("2 /3", "position 2: unexpected character '/'"),
        ("1/" + "9" * 5000, "position 2: a number of 5000 digits is too long"),
        ("_", "position 0: unknown arrow '_'")])
    def test_bad_expression_exit_one(self, text, message):
        code, out, err = run_cli(["algebra", quiver_path("rose2.q"),
                                  "--eval", text])
        assert (code, out, err) == (1, "", message + "\n")

    def test_kmap_bound_exit_four(self, long_cycle):
        """A 20,000-vertex cycle would need a 20,000 x 20,000 K-map; it is
        refused before any row is allocated."""
        for args in (["kmod", long_cycle, "--mod", "4"],
                     ["analyze", long_cycle, "--primes", "2"]):
            got = call_within(2, lambda: run_cli(args))
            assert got == (4, "", "work bound exceeded: K-map of 20000 x "
                                  "20000 would exceed 100000000 cells\n")

    def test_product_bound_exit_four(self):
        text = "(x+y)" * 20
        got = call_within(2, lambda: run_cli(
            ["algebra", quiver_path("rose2.q"), "--eval", text]))
        assert got == (4, "", "work bound exceeded: product would exceed "
                              "20000 terms\n")

    def test_prime_power_digit_bound_exit_four(self):
        got = call_within(2, lambda: run_cli(
            ["analyze", quiver_path("rose2.q"), "--primes", "2^20000"]))
        assert got == (4, "", "work bound exceeded: 2^20000 has more than "
                              "4300 digits\n")

    def test_prime_power_below_digit_bound_runs(self):
        code, out, _ = run_cli(["analyze", quiver_path("rose2.q"),
                                "--primes", "2^14000"])
        assert code == 0
        assert f"[modulus 2^14000 = {2 ** 14000}]" in out

    def test_product_below_bound_runs(self):
        code, out, _ = run_cli(["algebra", quiver_path("rose2.q"),
                                "--eval", "(x+y)" * 12])
        assert code == 0
        form = out.splitlines()[0].removeprefix("normal form: ")
        assert len(form.split(" + ")) == 4096

    @pytest.mark.parametrize("args,message", [
        (["algebra", quiver_path("rose2.q"), "--eval", "-x"],
         "argument --eval: expected one argument"),
        (["kmod", quiver_path("rose2.q")],
         "the following arguments are required: --mod"),
        (["kmod", quiver_path("rose2.q"), "--mod", "4", "--from", "x"],
         "argument --from: invalid int value: 'x'"),
        ([], "the following arguments are required: command")])
    def test_usage_error_exit_one(self, args, message):
        code, out, err = run_cli(args)
        assert code == 1 and out == ""
        assert err.startswith("usage: leavittk")
        assert err.endswith(f": error: {message}\n")

    @pytest.mark.parametrize("args", [["--help"], ["kmod", "--help"]])
    def test_help_exit_zero(self, args):
        code, out, err = run_cli(args)
        assert code == 0 and err == ""
        assert out.startswith("usage: leavittk")

    def test_eval_equals_takes_leading_minus(self):
        code, out, _ = run_cli(["algebra", quiver_path("rose2.q"),
                                "--eval=-x"])
        assert (code, out) == (0, "normal form: - x\ndegree 1: - x\n")

    def test_unprintable_coefficient_exit_four(self):
        big = "9" * 3000
        code, out, err = run_cli(["algebra", quiver_path("rose2.q"),
                                  "--eval", f"{big} . {big} x"])
        assert code == 4 and out == ""
        assert err.startswith("cannot print the result: Exceeds the limit")

    @pytest.mark.parametrize("n", [(10 ** 9 + 7) * (10 ** 9 + 9), 10 ** 5 + 1])
    def test_split_bound_exit_four(self, n):
        got = call_within(2, lambda: run_cli(["split", "--n", str(n),
                                              "--mod", "4"]))
        assert got is not None
        code, out, err = got
        assert code == 4 and out == ""
        assert err == f"work bound exceeded: splitting check needs " \
                      f"n <= 100000, got {n}\n"

    @pytest.mark.parametrize("command", [["kmod", quiver_path("rose2.q")],
                                         ["split", "--n", "6"]])
    def test_wide_window_exit_four(self, command):
        got = call_within(2, lambda: run_cli(
            command + ["--mod", "4", "--from", "0", "--to", "100000000"]))
        assert got is not None
        code, out, err = got
        assert code == 4 and out == ""
        assert err == "work bound exceeded: degree window holds at most " \
                      "10000 degrees, got 100000001\n"

    @pytest.mark.parametrize("command,degree_line", [
        (["kmod", quiver_path("rose2.q")], "K_{%d}("),
        (["split", "--n", "6"], "degree %d:")])
    def test_widest_window_runs(self, command, degree_line):
        code, out, _ = run_cli(command + ["--mod", "4", "--from", "0",
                                          "--to", "9999"])
        assert code == 0
        lines = [line for line in out.splitlines() if line[0] in "Kd"]
        assert len(lines) == 10 ** 4
        assert all(line.startswith(degree_line % n)
                   for n, line in enumerate(lines))

    @pytest.mark.parametrize("command", [["kmod", quiver_path("rose1.q")],
                                         ["split", "--n", "6"]])
    def test_empty_window_exit_one(self, command):
        code, out, err = run_cli(command + ["--mod", "4", "--from", "5",
                                            "--to", "2"])
        assert code == 1 and out == ""
        assert err == "empty degree window\n"


class TestAnalyze:
    def test_determinant_bound_exit_four(self, tmp_path):
        """A sink-free K-map of 401 rows is built, and its determinant is
        refused before the elimination starts."""
        path = tmp_path / "cycle401.q"
        path.write_text(cycle_text(401))
        got = call_within(2, lambda: run_cli(["analyze", str(path),
                                              "--primes", "2"]))
        assert got == (4, "", "work bound exceeded: determinant of a 401 x "
                              "401 K-map would exceed 400 rows\n")

    def test_rose3_divisible(self):
        code, out, _ = run_cli(["analyze", quiver_path("rose3.q"),
                                "--primes", "5"])
        assert code == 0
        assert "determinant = -2" in out
        assert "uniquely 5^1-divisible for n >= 0" in out

    def test_unfactorable_determinant_exit_four(self, tmp_path):
        q = unfactorable_dense_quiver()
        path = tmp_path / "dense.q"
        path.write_text("\n".join(
            ["vertices " + " ".join(q.vertices)]
            + [f"arrow {a.name} {a.source} {a.target}" for a in q.arrows]))
        got = call_within(2, lambda: run_cli(["analyze", str(path),
                                              "--primes", "2"]))
        assert got == (4, "", "work bound exceeded: cannot factor "
                       "368029041531894267421: no prime factor below "
                       "1000000, and the cofactor 28309926271684174417 is "
                       "not proven prime\n")

    def test_rose3_prime_two(self):
        _, out, _ = run_cli(["analyze", quiver_path("rose3.q"), "--primes", "2"])
        assert "at least one of IK_n(L_Q), IK_{n-1}(L_Q) is nonzero" in out

    def test_rose1_nonvanishing(self):
        _, out, _ = run_cli(["analyze", quiver_path("rose1.q"), "--primes", "3"])
        assert "uniquely" not in out
        assert out.count("at least one of") == 2

    def test_prime_power_syntax(self):
        code, out, _ = run_cli(["analyze", quiver_path("rose3.q"),
                                "--primes", "5^2,2"])
        assert code == 0
        assert "[modulus 5^2 = 25]" in out

    @pytest.mark.parametrize("token", ["2^", "^2", "2^1^1"])
    def test_malformed_prime_power_exit_three(self, token):
        code, out, err = run_cli(["analyze", quiver_path("rose2.q"),
                                  "--primes", token])
        assert code == 3 and out == ""
        assert err == f"bad prime power {token!r}\n"

    def test_primes_are_not_factored(self, monkeypatch):
        # rose2 has determinant -1, so nothing in analyze has to factor
        def boom(*args, **kwargs):
            raise AssertionError("factorize called")

        monkeypatch.setattr(groups, "factorize", boom)
        monkeypatch.setattr(ktheory, "factorize", boom)
        code, out, err = run_cli(["analyze", quiver_path("rose2.q"),
                                  "--primes", "3,2^2"])
        assert code == 0 and err == "" and "[modulus 2^2 = 4]" in out
        big = "10000000000000000000000013"  # prime, past the proven range
        code, out, err = call_within(2, lambda: run_cli(
            ["analyze", quiver_path("rose2.q"), "--primes", big]))
        assert code == 3 and out == ""
        assert "bad modulus" in err and big in err


@pytest.fixture
def fresh_parser(monkeypatch):
    """Drop the process's parser, so the next call builds it; the list
    this returns grows by one entry per build."""
    builds = []
    build = cli._build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", counting_build)
    return builds


class TestParserReuse:
    """main() builds its parser once per process; no call leaves state
    in it that a later call can see."""

    def test_built_once(self, fresh_parser):
        rose2 = quiver_path("rose2.q")
        requests = [(["kmod", rose2, "--mod", "4"], 0),
                    (["analyze", rose2, "--primes", "3"], 0),
                    (["algebra", rose2, "--eval", "x*"], 0),
                    (["filtration", rose2, "--level", "1"], 0),
                    (["split", "--n", "6", "--mod", "4"], 0),
                    (["kmod", rose2], 1),
                    (["--help"], 0)]
        for args, want in requests:
            assert run_cli(args)[0] == want, args
        assert len(fresh_parser) == 1

    def test_window_flags_do_not_stick(self, fresh_parser):
        rose1 = quiver_path("rose1.q")
        code, out, _ = run_cli(["kmod", rose1, "--mod", "4",
                                "--from", "2", "--to", "3"])
        assert code == 0 and out.count("K_{") == 2
        code, out, _ = run_cli(["kmod", rose1, "--mod", "4"])
        low, high = DEFAULT_WINDOW
        assert code == 0
        assert [l.split("(")[0] for l in out.splitlines() if l[0] == "K"] \
            == [f"K_{{{n}}}" for n in range(low, high + 1)]

    def test_format_does_not_stick(self, fresh_parser):
        args = ["kmod", quiver_path("rose1.q"), "--mod", "4"]
        code, out, _ = run_cli(args + ["--format", "records"])
        assert code == 0 and out.startswith("hypothesis=")
        code, out, _ = run_cli(args)
        assert code == 0 and out.startswith("# hypothesis: ")

    def test_good_request_after_usage_error(self, fresh_parser):
        args = ["analyze", quiver_path("rose3.q"), "--primes", "5"]
        want = run_cli(args)
        assert want[0] == 0 and want[2] == ""
        assert run_cli(["analyze", quiver_path("rose3.q")])[0] == 1
        assert run_cli(args) == want

    def test_usage_goes_to_the_current_stderr(self, fresh_parser):
        for _ in range(2):
            code, out, err = run_cli(["kmod", quiver_path("rose2.q")])
            assert code == 1 and out == ""
            assert err.startswith("usage: leavittk kmod")
            assert err.endswith("required: --mod\n")
            code, out, err = run_cli(["--help"])
            assert code == 0 and err == "" and out.startswith("usage: ")
        assert len(fresh_parser) == 1


class TestAlgebraCommand:
    def test_ck1(self):
        code, out, _ = run_cli(["algebra", quiver_path("rose2.q"),
                                "--eval", "x* . x"])
        assert code == 0
        assert "normal form: 1" in out

    def test_ck2(self):
        _, out, _ = run_cli(["algebra", quiver_path("rose2.q"),
                             "--eval", "x . x*"])
        assert "normal form: 1 - y y*" in out
        assert "degree 0: 1 - y y*" in out

    def test_toeplitz_sum(self):
        _, out, _ = run_cli(["algebra", quiver_path("toeplitz.q"),
                             "--eval", "(a* + b*).(a + b)"])
        assert "normal form: 1" in out

    @pytest.mark.parametrize("text,normal_form", [
        ("\u0663/\u0664 x", "3/4 x"),
        ("x\u3000y", "x y"),
        ("2/3 x . 3/2 x*", "1 - y y*"),
        ("1/2 x . 2/3 x* - 1/3 y y*", "1/3 - 2/3 y y*")])
    def test_normal_forms(self, text, normal_form):
        """Arabic-Indic digits are decimal, an ideographic space separates
        tokens, and scalars multiply through a Cuntz-Krieger rewrite."""
        for fmt, key in (("text", "normal form: "),
                         ("records", "normal_form=")):
            code, out, err = run_cli(["algebra", quiver_path("rose2.q"),
                                      "--eval", text, "--format", fmt])
            assert (code, err) == (0, "")
            assert out.splitlines()[0] == key + normal_form

    def test_long_cycle(self, long_cycle):
        """The algebra of a 20,000-vertex cycle is built in one pass over
        its arrows."""
        got = call_within(2, lambda: run_cli(["algebra", long_cycle,
                                              "--eval", "a0"]))
        assert got == (0, "normal form: a0\ndegree 1: a0\n", "")

    def test_grading_lines(self):
        _, out, _ = run_cli(["algebra", quiver_path("rose2.q"),
                             "--eval", "x + y*"])
        assert "degree -1: y*" in out
        assert "degree 1: x" in out

    @pytest.mark.parametrize("fmt, sum_lines, zero_lines", [
        ("text", ["normal form: 5/6", "degree 0: 5/6"], ["normal form: 0"]),
        ("records", ["normal_form=5/6", "degree_0=5/6"], ["normal_form=0"]),
    ])
    def test_sums_of_scalars_only(self, fmt, sum_lines, zero_lines):
        # a sum whose terms are all scalars stays a Fraction until printed
        for text, want in (("1/2 + 1/3", sum_lines), ("1 - 1", zero_lines)):
            code, out, err = run_cli(["algebra", quiver_path("rose2.q"),
                                      "--eval", text, "--format", fmt])
            assert (code, err) == (0, "")
            assert out.splitlines() == want


class TestFiltrationCommand:
    def test_toeplitz_level_two(self):
        code, out, _ = run_cli(["filtration", quiver_path("toeplitz.q"),
                                "--level", "2"])
        assert code == 0
        assert "4 blocks" in out
        assert "sum of squares = 4" in out
        assert "symbolic dimension = 4" in out
        assert "dimension match: OK" in out
        assert "inclusion matrix equals diag(id, incidence^T): OK" in out
        assert "corner matrix equals zero-over-identity: OK" in out

    def test_rose3_level_one(self):
        _, out, _ = run_cli(["filtration", quiver_path("rose3.q"),
                             "--level", "1"])
        assert "1 blocks" in out
        assert "sum of squares = 9" in out
        assert "symbolic dimension = 9" in out

    def test_level_zero(self):
        _, out, _ = run_cli(["filtration", quiver_path("jacobson2.q"),
                             "--level", "0"])
        assert "2 blocks" in out

    # stage dimensions past the golden transcripts, which stop at level 2
    DIMENSIONS = {("jacobson2.q", 3): 1549, ("jacobson2.q", 4): 13942,
                  ("rose1.q", 3): 1, ("rose1.q", 4): 1,
                  ("rose2.q", 3): 64, ("rose2.q", 4): 256,
                  ("rose3.q", 3): 729, ("rose3.q", 4): 6561,
                  ("toeplitz.q", 3): 5, ("toeplitz.q", 4): 6}

    @pytest.mark.parametrize("name,level", sorted(DIMENSIONS))
    def test_levels_three_and_four(self, name, level):
        args = ["filtration", quiver_path(name), "--level", str(level)]
        code, out, err = run_cli(args + ["--format", "records"])
        assert (code, err) == (0, "")
        records = dict(parse_records(out))
        assert records["symbolic_dimension"] \
            == str(self.DIMENSIONS[name, level])
        assert [records[k] for k in ("dimension_match", "inclusion_match",
                                     "phi_match")] == ["OK"] * 3
        code, out, _ = run_cli(args)
        assert code == 0
        assert {"dimension match: OK",
                "inclusion matrix equals diag(id, incidence^T): OK",
                "corner matrix equals zero-over-identity: OK"} \
            <= set(out.splitlines())


class TestSplitCommand:
    def test_equal_fixture(self):
        code, out, _ = run_cli(["split", "--n", "6", "--mod", "4"])
        assert code == 0
        assert out.strip().endswith("verdict: EQUAL")

    def test_single_factor(self):
        _, out, _ = run_cli(["split", "--n", "8", "--mod", "8"])
        assert "verdict: EQUAL" in out

    def test_trivial_sides(self):
        _, out, _ = run_cli(["split", "--n", "15", "--mod", "8"])
        assert "verdict: EQUAL" in out

    def test_small_n_rejected(self):
        code, out, _ = run_cli(["split", "--n", "1", "--mod", "4"])
        assert code == 1 and out == ""


class TestRecordsFormat:
    def test_round_trip_kmod(self):
        _, out, _ = run_cli(["kmod", quiver_path("jacobson2.q"), "--mod", "5",
                             "--format", "records"])
        records = parse_records(out)
        data = dict(records)
        assert data["modulus"] == "5"
        assert data["K_{0}"] == "Z/5"
        assert data["K_{1}"] == "0"
        # Re-rendering the records reproduces the output byte for byte.
        again = "\n".join(f"{k}={v}" for k, v in records) + "\n"
        assert again == out

    def test_round_trip_split(self):
        _, out, _ = run_cli(["split", "--n", "6", "--mod", "4",
                             "--format", "records"])
        data = dict(parse_records(out))
        assert data["verdict"] == "EQUAL"
        assert data["factors"] == "2 3"

    def test_round_trip_filtration(self):
        _, out, _ = run_cli(["filtration", quiver_path("toeplitz.q"),
                             "--level", "1", "--format", "records"])
        data = dict(parse_records(out))
        assert data["dimension_match"] == "OK"
        assert data["inclusion_match"] == "OK"

    def test_round_trip_analyze(self):
        _, out, _ = run_cli(["analyze", quiver_path("rose3.q"),
                             "--primes", "5,2", "--format", "records"])
        records = parse_records(out)
        data = dict(records)
        assert data["determinant"] == "-2"
        assert "uniquely 5^1-divisible" in data["conclusion(mod 5)"]
        again = "\n".join(f"{k}={v}" for k, v in records) + "\n"
        assert again == out

    @pytest.mark.parametrize("text, records", (
        ("a=1\n\nb=2\n", [("a", "1"), ("b", "2")]),
        ("\n \t\nk=v=w\n\n", [("k", "v=w")]),
        ("", []),
    ))
    def test_blank_lines_skipped(self, text, records):
        assert parse_records(text) == records

    def test_bad_record_line(self):
        with pytest.raises(ValueError):
            parse_records("no separator here\n")


class TestDeterminism:
    INVOCATIONS = [
        ["kmod", "jacobson2.q", "--mod", "8"],
        ["analyze", "rose3.q", "--primes", "2,3,5"],
        ["algebra", "rose2.q", "--eval", "x x x* x* - 1/2 y"],
        ["filtration", "jacobson2.q", "--level", "2"],
        ["split", "--n", "30", "--mod", "16"],
    ]

    @pytest.mark.parametrize("argv", INVOCATIONS, ids=lambda a: a[0])
    def test_byte_identical_reruns(self, argv):
        args = [quiver_path(a) if a.endswith(".q") else a for a in argv]
        first = run_cli(args)
        second = run_cli(args)
        assert first == second
        assert first[0] == 0


class TestSourcesAllowedInAlgebra:
    def test_algebra_engine_accepts_sources(self, tmp_path):
        # The rewriting engine works on any finite quiver; only the
        # K-theory pipelines need source-free input.
        sourced = tmp_path / "sourced.q"
        sourced.write_text("vertices a b\narrow x a b\narrow l b b\n")
        code, out, _ = run_cli(["algebra", str(sourced), "--eval", "x* . x"])
        assert code == 0
        assert "normal form: e(b)" in out
        code, _, err = run_cli(["filtration", str(sourced), "--level", "1"])
        assert code == 2


class TestPrimeModulus:
    """10^18 + 3 is prime; trial division alone ran for minutes on it."""

    def test_kmod_prime_modulus(self):
        start = time.perf_counter()
        code, out, err = run_cli(["kmod", quiver_path("rose2.q"),
                                  "--mod", str(BIG_PRIME)])
        assert time.perf_counter() - start < 2
        assert code == 0 and err == ""
        groups = [l.rsplit(" = ", 1)[1] for l in out.splitlines()
                  if l.startswith("K_")]
        assert len(groups) == 10 and set(groups) == {"0"}

    def test_analyze_prime(self):
        start = time.perf_counter()
        code, out, err = run_cli(["analyze", quiver_path("rose3.q"),
                                  "--primes", str(BIG_PRIME)])
        assert time.perf_counter() - start < 2
        assert code == 0 and err == ""
        assert f"[modulus {BIG_PRIME}^1 = {BIG_PRIME}]" in out
        assert "uniquely" in out


class TestUnfactorableModulus:
    """(10^9 + 7)(10^9 + 9) has no prime factor below the trial-division
    limit, and Miller-Rabin proves it composite: it is rejected with
    exit 3 instead of being trial-divided without bound."""

    TWO_LARGE_PRIMES = str((10 ** 9 + 7) * (10 ** 9 + 9))

    @pytest.mark.parametrize("args", [
        ["kmod", quiver_path("rose2.q"), "--mod", TWO_LARGE_PRIMES],
        ["analyze", quiver_path("rose3.q"), "--primes", TWO_LARGE_PRIMES],
        ["split", "--n", "6", "--mod", TWO_LARGE_PRIMES],
    ])
    def test_exits_bad_modulus(self, args):
        start = time.perf_counter()
        got = call_within(2, lambda: run_cli(args))
        assert time.perf_counter() - start < 2
        code, out, err = got
        assert code == 3 and out == ""
        assert "bad modulus" in err and self.TWO_LARGE_PRIMES in err


EXIT_CODES = {0, 1, 2, 3, 4}
# Arbitrary bytes, and lines that build small quivers with and without
# sources, mixed with a byte that is not UTF-8.
QUIVER_BYTES = st.one_of(st.binary(max_size=80), st.lists(st.sampled_from([
    b"vertices v w\n", b"vertices u\n", b"arrow a v w\n", b"arrow b w v\n",
    b"arrow c w w\n", b"# x\n", b"\xe9", b"\n"]), max_size=8).map(b"".join))


class TestNoTraceback:
    """Whatever the input, cli.main returns a documented exit code."""

    @settings(max_examples=60, deadline=None)
    @given(text=st.text(max_size=30),
           name=st.sampled_from(["rose2.q", "jacobson2.q"]))
    @example(text="\u00b2", name="rose2.q")
    @example(text="1/\u00b2", name="jacobson2.q")
    def test_any_expression(self, text, name):
        # --eval=TEXT, so that argparse takes a leading '-' as the value
        code, _, _ = run_cli(["algebra", quiver_path(name), f"--eval={text}"])
        assert code in EXIT_CODES

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=QUIVER_BYTES)
    @example(data=b"\xff")
    def test_any_quiver_bytes(self, tmp_path, data):
        path = tmp_path / "fuzz.q"
        path.write_bytes(data)
        code, _, _ = run_cli(["kmod", str(path), "--mod", "4"])
        assert code in EXIT_CODES
