"""Finite quivers: parsing, sink-first vertex ordering, incidence data.

A quiver is a finite directed multigraph.  Vertex and arrow identifiers
are opaque strings.  Vertices are stored sinks-first, and declaration
order holds within the sinks and within the rest, because the K-theory
matrix needs the sinks in front and downstream fixtures depend on the
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import NamedTuple

from .matrices import IntMatrix


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class QuiverParseError(ValueError):
    """Malformed quiver file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Quiver:
    """A validated quiver whose vertex tuple is stably partitioned
    sinks-first: the `num_sinks` vertices with no outgoing arrow, then
    the rest, each group in declaration order.

    >>> Quiver.build(("1", "2"), [("a", "1", "1"), ("b", "1", "2")]).vertices
    ('2', '1')
    """

    vertices: tuple
    arrows: tuple
    num_sinks: int = field(init=False)

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("quiver needs at least one vertex")
        declared = set(self.vertices)
        if len(declared) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if len(set(map(itemgetter(0), self.arrows))) != len(self.arrows):
            raise ValueError("duplicate arrow ids")
        sources = set(map(itemgetter(1), self.arrows))
        if not (declared.issuperset(sources)
                and declared.issuperset(map(itemgetter(2), self.arrows))):
            a = next(a for a in self.arrows
                     if a.source not in declared or a.target not in declared)
            raise ValueError(f"arrow {a.name}: undeclared endpoint")
        sinks = tuple(v for v in self.vertices if v not in sources)
        object.__setattr__(self, "vertices", sinks + tuple(
            v for v in self.vertices if v in sources))
        object.__setattr__(self, "num_sinks", len(sinks))

    @classmethod
    def build(cls, vertices, arrows) -> "Quiver":
        return cls(tuple(vertices),
                   tuple(Arrow(*a) if not isinstance(a, Arrow) else a
                         for a in arrows))

    @property
    def v(self) -> int:
        return len(self.vertices)

    @property
    def v_prime(self) -> int:
        return self.num_sinks

    def index(self, vertex: str) -> int:
        return self.vertices.index(vertex)

    def is_sink(self, v: str) -> bool:
        return self.index(v) < self.num_sinks


class SourcesPresentError(ValueError):
    """The operation needs every vertex to have an incoming arrow."""

    def __init__(self, sources):
        self.sources = tuple(sources)
        super().__init__("quiver has sources: " + ", ".join(self.sources))


def require_no_sources(q: Quiver) -> None:
    """Raise SourcesPresentError, naming in `sources` the vertices with
    no incoming arrow, if there are any.

    >>> require_no_sources(parse_quiver("vertices w\\narrow a w w"))
    >>> require_no_sources(parse_quiver("vertices w v\\narrow a w w"))
    Traceback (most recent call last):
    ...
    leavittk.quiver.SourcesPresentError: quiver has sources: v
    """
    with_incoming = set(map(itemgetter(2), q.arrows))
    sources = tuple(v for v in q.vertices if v not in with_incoming)
    if sources:
        raise SourcesPresentError(sources)


def order_sinks_first(q: Quiver) -> Quiver:
    """Return `q`: every Quiver is stored sinks-first when it is built.

    >>> jq = parse_quiver("vertices 1 2\\narrow a 1 1\\narrow b 1 2")
    >>> order_sinks_first(jq) is jq
    True
    """
    return q


_new_arrow = partial(tuple.__new__, Arrow)


def parse_quiver(text: str) -> Quiver:
    """Parse the line-oriented quiver format.

    `#` starts a comment; `vertices <id>...` declares vertices (several
    lines allowed; the Quiver stores them sinks-first); `arrow <id> <source> <target>` declares one
    arrow.  Tokens are whitespace-separated; there is no escaping.  No
    vertex or arrow id may contain `=`, which separates a record's key
    from its value in the CLI's records format.

    One pass over the lines checks each line and builds its arrow.
    Arrow ids and endpoints are then checked in bulk by the Quiver
    itself; only when that fails are the arrows walked in order, so the
    error names the first offending line.  An arrow may come before the
    `vertices` line that declares its endpoints.
    """
    vertices: list = []
    seen_vertices: set = set()
    arrows: list = []
    arrow_lines: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] == "arrow":
            if len(tokens) != 4:
                raise QuiverParseError(
                    lineno, "expected 'arrow <id> <source> <target>'")
            if "=" in tokens[1]:
                raise QuiverParseError(lineno, f"'=' in arrow id {tokens[1]!r}")
            arrows.append(_new_arrow(tokens[1:]))
            arrow_lines.append(lineno)
        elif tokens[0] == "vertices":
            if len(tokens) < 2:
                raise QuiverParseError(lineno, "expected at least one vertex id")
            for tok in tokens[1:]:
                if "=" in tok:
                    raise QuiverParseError(lineno, f"'=' in vertex id {tok!r}")
                if tok in seen_vertices:
                    raise QuiverParseError(lineno, f"duplicate vertex id {tok!r}")
                seen_vertices.add(tok)
                vertices.append(tok)
        else:
            raise QuiverParseError(lineno, f"unknown directive {tokens[0]!r}")

    try:
        return Quiver(tuple(vertices), tuple(arrows))
    except ValueError:
        pass
    seen_arrows: set = set()
    for lineno, a in zip(arrow_lines, arrows):
        if a.name in seen_arrows:
            raise QuiverParseError(lineno, f"duplicate arrow id {a.name!r}")
        seen_arrows.add(a.name)
        for end in (a.source, a.target):
            if end not in seen_vertices:
                raise QuiverParseError(
                    lineno, f"undeclared endpoint {end!r} in arrow {a.name!r}")
    raise QuiverParseError(1, "empty vertex set")


def render_quiver(q: Quiver) -> str:
    """Canonical text form; parse_quiver(render_quiver(q)) == q."""
    lines = ["vertices " + " ".join(q.vertices)]
    lines += [f"arrow {a.name} {a.source} {a.target}" for a in q.arrows]
    return "\n".join(lines) + "\n"


def incidence_matrix(q: Quiver) -> IntMatrix:
    """v x v matrix counting arrows from vertex i to vertex j.

    Rows belonging to sinks are zero, which is exactly why the sink
    block is deleted by :func:`reduced_incidence`.
    """
    idx = {v: i for i, v in enumerate(q.vertices)}
    counts = [[0] * q.v for _ in range(q.v)]
    for a in q.arrows:
        counts[idx[a.source]][idx[a.target]] += 1
    return IntMatrix._of(tuple(map(tuple, counts)), q.v)


def reduced_incidence(q: Quiver) -> IntMatrix:
    """The incidence matrix with the leading (zero) sink rows removed."""
    full = incidence_matrix(q)
    return IntMatrix._of(tuple(map(full.row, range(q.num_sinks, q.v))), q.v)
