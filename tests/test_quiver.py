import random

import pytest

from helpers import jacobson_quiver, path_count_matrix, \
    random_no_source_quiver, rose, toeplitz_quiver
from leavittk.matrices import IntMatrix
from leavittk.quiver import (Arrow, Quiver, QuiverParseError,
                             SourcesPresentError, incidence_matrix,
                             order_sinks_first, parse_quiver,
                             reduced_incidence, render_quiver,
                             require_no_sources)


class TestParsing:
    def test_rose_with_two_loops(self):
        q = parse_quiver("vertices w\narrow a w w\narrow b w w")
        assert q.vertices == ("w",)
        assert [a.name for a in q.arrows] == ["a", "b"]
        assert all(a.source == a.target == "w" for a in q.arrows)

    def test_vertex_only(self):
        q = parse_quiver("vertices w")
        assert q.vertices == ("w",) and q.arrows == ()

    def test_comments_and_blank_lines(self):
        q = parse_quiver("# heading\n\nvertices a b  # trailing\narrow x a b\n")
        assert q.vertices == ("b", "a")
        assert q.arrows[0].name == "x"

    def test_multiple_vertices_lines_keep_order(self):
        q = parse_quiver("vertices b\nvertices a c")
        assert q.vertices == ("b", "a", "c")

    def test_undeclared_endpoint(self):
        with pytest.raises(QuiverParseError) as err:
            parse_quiver("arrow a x y")
        assert "undeclared endpoint" in str(err.value)
        assert err.value.line == 1

    def test_duplicate_vertex(self):
        with pytest.raises(QuiverParseError) as err:
            parse_quiver("vertices a\nvertices a")
        assert err.value.line == 2
        assert "duplicate" in str(err.value)

    def test_duplicate_arrow(self):
        with pytest.raises(QuiverParseError) as err:
            parse_quiver("vertices a\narrow x a a\narrow x a a")
        assert err.value.line == 3

    def test_empty_vertex_set(self):
        with pytest.raises(QuiverParseError) as err:
            parse_quiver("# nothing here\n")
        assert "empty vertex set" in str(err.value)

    def test_equals_sign_in_ids(self):
        """`=` ends a record's key, so no id may contain it."""
        with pytest.raises(QuiverParseError) as err:
            parse_quiver("vertices a=b c\narrow x c c")
        assert err.value.line == 1 and "'=' in vertex id 'a=b'" in str(err.value)
        with pytest.raises(QuiverParseError) as err:
            parse_quiver("vertices c\narrow x=y c c")
        assert err.value.line == 2 and "'=' in arrow id 'x=y'" in str(err.value)

    def test_syntax_errors(self):
        with pytest.raises(QuiverParseError):
            parse_quiver("vertices a\narrow x a")
        with pytest.raises(QuiverParseError):
            parse_quiver("vertexes a")
        with pytest.raises(QuiverParseError):
            parse_quiver("vertices")

    def test_round_trip(self):
        rng = random.Random(0)
        for _ in range(25):
            q = random_no_source_quiver(rng)
            assert parse_quiver(render_quiver(q)) == q


class TestNoSources:
    def test_rose_has_none(self):
        assert require_no_sources(rose(2)) is None

    def test_jacobson_has_none(self):
        assert require_no_sources(jacobson_quiver(1)) is None

    def test_isolated_vertex_is_source(self):
        q = parse_quiver("vertices w")
        with pytest.raises(SourcesPresentError) as err:
            require_no_sources(q)
        assert err.value.sources == ("w",)


class TestOrdering:
    def test_jacobson_sink_first(self):
        q = jacobson_quiver(1)
        assert q.vertices == ("2", "1")
        assert (q.v, q.num_sinks) == (2, 1)

    def test_rose_untouched(self):
        q = rose(3)
        assert q.vertices == ("w",) and q.num_sinks == 0

    def test_stability(self):
        q = parse_quiver(
            "vertices a b c\narrow x b a\narrow y b c\narrow z b b")
        assert q.vertices == ("a", "c", "b")

    def test_idempotent_permutation(self):
        rng = random.Random(1)
        for _ in range(25):
            q = random_no_source_quiver(rng)
            again = Quiver(q.vertices, q.arrows)
            assert again.vertices == q.vertices
            assert again.num_sinks == q.num_sinks


class TestIncidence:
    def test_jacobson(self):
        q = jacobson_quiver(1)
        assert incidence_matrix(q).tolists() == [[0, 0], [2, 2]]
        assert reduced_incidence(q).tolists() == [[2, 2]]

    def test_rose(self):
        for n in range(4):
            q = rose(n + 1)
            assert incidence_matrix(q).tolists() == [[n + 1]]
            assert reduced_incidence(q).tolists() == [[n + 1]]

    def test_toeplitz(self):
        q = toeplitz_quiver()
        assert reduced_incidence(q).tolists() == [[1, 1]]

    def test_isolated_vertex(self):
        q = parse_quiver("vertices w")
        assert incidence_matrix(q).tolists() == [[0]]

    def test_sink_rows_zero_iff_sink(self):
        rng = random.Random(2)
        for _ in range(30):
            q = random_no_source_quiver(rng)
            full = incidence_matrix(q)
            for i, v in enumerate(q.vertices):
                row_zero = all(full[i, j] == 0 for j in range(q.v))
                assert row_zero == all(a.source != v for a in q.arrows)


class TestPathCounts:
    def test_rose_powers(self):
        for m in range(5):
            assert path_count_matrix(rose(3), m).tolists() == [[3 ** m]]

    def test_zero_length_is_identity(self):
        rng = random.Random(3)
        for _ in range(10):
            q = random_no_source_quiver(rng)
            assert path_count_matrix(q, 0) == IntMatrix.identity(q.v)

    def test_toeplitz_length_three(self):
        assert path_count_matrix(toeplitz_quiver(), 3).tolists() == [[0, 0], [1, 1]]

    def test_composition_law(self):
        rng = random.Random(4)
        for _ in range(20):
            q = random_no_source_quiver(rng, max_vertices=5, max_arrows=10)
            a = rng.randint(0, 6)
            b = rng.randint(0, 6)
            assert path_count_matrix(q, a + b) \
                == path_count_matrix(q, a) @ path_count_matrix(q, b)

    def test_enumeration_oracle(self):
        # Count paths explicitly by walking the quiver.
        q = toeplitz_quiver()
        arrows = q.arrows
        for m in range(4):
            paths = [[v] for v in q.vertices]
            for _ in range(m):
                paths = [p + [a.target] for p in paths
                         for a in arrows if a.source == p[-1]]
            counts = path_count_matrix(q, m)
            for i, u in enumerate(q.vertices):
                for j, w in enumerate(q.vertices):
                    expected = sum(1 for p in paths if p[0] == u and p[-1] == w)
                    assert counts[i, j] == expected


def test_programmatic_validation():
    for vertices, arrows, message in (
            ((), (), "quiver needs at least one vertex"),
            (("a", "a"), (), "duplicate vertex ids"),
            (("a",), [("x", "a", "b")], "arrow x: undeclared endpoint"),
            (("a",), [("x", "a", "a"), ("x", "a", "a")],
             "duplicate arrow ids"),
            (("a", "b"), [("x", "a", "b"), ("y", "c", "a"), ("z", "a", "d")],
             "arrow y: undeclared endpoint")):
        with pytest.raises(ValueError) as err:
            Quiver.build(vertices, arrows)
        assert str(err.value) == message


def test_order_sinks_first_passes_through():
    q = parse_quiver("vertices 1 2\narrow a 1 1\narrow b 1 2")
    assert q.vertices == ("2", "1")
    assert order_sinks_first(q) is q


def _quiver_text(vertices, arrows) -> str:
    return "\n".join(["vertices " + " ".join(vertices)]
                     + [f"arrow {n} {s} {t}" for n, s, t in arrows]) + "\n"


@pytest.mark.parametrize("make", (
    lambda vs, arrows: Quiver(tuple(vs), tuple(Arrow(*a) for a in arrows)),
    Quiver.build,
    lambda vs, arrows: parse_quiver(_quiver_text(vs, arrows)),
), ids=("init", "build", "parse"))
def test_sinks_first_at_construction(make):
    """Every way of building a Quiver stores the vertices with no outgoing
    arrow first and the rest after them, each group in declaration order,
    and sets num_sinks itself, so a wrongly ordered quiver cannot be built."""
    rng = random.Random(27)
    for _ in range(60):
        vertices = [f"v{i}" for i in range(rng.randint(1, 7))]
        rng.shuffle(vertices)
        arrows = [(f"e{i}", rng.choice(vertices), rng.choice(vertices))
                  for i in range(rng.randint(0, 9))]
        q = make(vertices, arrows)
        sources = {s for _, s, _ in arrows}
        sinks = [v for v in vertices if v not in sources]
        assert q.vertices == tuple(sinks + [v for v in vertices
                                            if v in sources])
        assert q.num_sinks == q.v_prime == len(sinks)
        assert [q.is_sink(v) for v in q.vertices] \
            == [v in sinks for v in q.vertices]
        assert all(q.index(v) == i for i, v in enumerate(q.vertices))
        with pytest.raises(TypeError):
            Quiver(q.vertices, q.arrows, num_sinks=len(sinks))


# (text, line, message) of malformed quiver files, recorded from the
# two-pass parser that checked arrows only after reading every line; the
# one-pass parser must raise the same error for each.
PARSE_ERRORS = (
    # a duplicate arrow after an undeclared endpoint: the endpoint wins
    ("vertices a\narrow x a b\narrow x a a\n", 2,
     "undeclared endpoint 'b' in arrow 'x'"),
    ("vertices a\narrow x b a\narrow x a a\n", 2,
     "undeclared endpoint 'b' in arrow 'x'"),
    ("vertices a\narrow x a a\narrow y a b\narrow x a a\n", 3,
     "undeclared endpoint 'b' in arrow 'y'"),
    ("vertices a\narrow x a a\narrow x a b\n", 3, "duplicate arrow id 'x'"),
    ("vertices a\narrow x a a\n\narrow x a a\n", 4, "duplicate arrow id 'x'"),
    # an arrow before its vertices line is checked against every line
    ("arrow x a b\nvertices a\n", 1, "undeclared endpoint 'b' in arrow 'x'"),
    ("arrow x a b\n", 1, "undeclared endpoint 'a' in arrow 'x'"),
    ("arrow x a a\narrow x a a\n", 1, "undeclared endpoint 'a' in arrow 'x'"),
    ("arrow y a a\nvertices a b\narrow y b b\narrow z c c\n", 3,
     "duplicate arrow id 'y'"),
    ("vertices a\narrow x a b # comment\nvertices b\narrow z a c\n", 4,
     "undeclared endpoint 'c' in arrow 'z'"),
    # '#' inside a token starts a comment there
    ("vertices a#b c\narrow x a c\n", 2, "undeclared endpoint 'c' in arrow 'x'"),
    ("vertices a b\narrow x a#b b\n", 2,
     "expected 'arrow <id> <source> <target>'"),
    ("vertices a\narrow x#y a a\n", 2,
     "expected 'arrow <id> <source> <target>'"),
    # tabs, CRLF and the other line ends and spaces of str.splitlines/split
    ("vertices\ta b\r\narrow\tx a b\r\narrow y a c\r\n", 3,
     "undeclared endpoint 'c' in arrow 'y'"),
    ("vertices a\rarrow x a b\r", 2, "undeclared endpoint 'b' in arrow 'x'"),
    ("vertices a\x0carrow x a b", 2, "undeclared endpoint 'b' in arrow 'x'"),
    ("vertices a\xa0b\narrow x a b\narrow y b c\n", 3,
     "undeclared endpoint 'c' in arrow 'y'"),
    # '=' in an arrow id after a bad vertices line: the earlier line wins
    ("vertices a=b\narrow x=y a a\n", 1, "'=' in vertex id 'a=b'"),
    ("vertices\narrow x=y a a\n", 1, "expected at least one vertex id"),
    ("vertices a\narrow x=y a a\n", 2, "'=' in arrow id 'x=y'"),
    ("vertices a\narrow x a b=c\n", 2, "undeclared endpoint 'b=c' in arrow 'x'"),
    ("vertices a\nvertices b a\n", 2, "duplicate vertex id 'a'"),
    ("vertices a a\n", 1, "duplicate vertex id 'a'"),
    ("vertices a\narrow x a\n", 2, "expected 'arrow <id> <source> <target>'"),
    ("vertices a\narrow x a a a\n", 2,
     "expected 'arrow <id> <source> <target>'"),
    ("vertices a\nedge x a a\n", 2, "unknown directive 'edge'"),
    ("", 1, "empty vertex set"),
    ("   \n\t\n# nothing\n", 1, "empty vertex set"),
)


@pytest.mark.parametrize("text, line, message", PARSE_ERRORS)
def test_parse_error_precedence(text, line, message):
    with pytest.raises(QuiverParseError) as err:
        parse_quiver(text)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


@pytest.mark.parametrize("text, vertices, arrows", (
    ("arrow x a a\nvertices a\n", ("a",), 1),
    ("vertices a\narrow x a a#\n", ("a",), 1),
    ("vertices a\n#arrow x a b\n  # vertices a\n", ("a",), 0),
))
def test_parse_accepts(text, vertices, arrows):
    q = parse_quiver(text)
    assert (q.vertices, len(q.arrows)) == (vertices, arrows)
    assert all(type(a) is Arrow for a in q.arrows)

