"""Shared quiver builders, a cycle's quiver file, random generators, a
literal walk of a map mod g, a literal-definition torsion counter,
matrix-power path counts, a normal-basis enumeration, a step-by-step
rewriting reference and a time-bounded call for the test suite."""

from __future__ import annotations

import itertools
import random
import signal

from leavittk import Quiver, quiver
from leavittk.algebra import Monomial, Path, _paths_by_target, _sort_key
from leavittk.groups import SizeLimitError
from leavittk.ktheory import rose_quiver
from leavittk.matrices import IntMatrix


def jacobson_quiver(n: int) -> Quiver:
    """Two vertices; n+1 loops at 1 and n+1 arrows from 1 to the sink 2."""
    arrows = [(f"a{i}", "1", "1") for i in range(1, n + 2)]
    arrows += [(f"b{i}", "1", "2") for i in range(1, n + 2)]
    return Quiver.build(("1", "2"), arrows)


def toeplitz_quiver() -> Quiver:
    return jacobson_quiver(0)


def rose(petals: int) -> Quiver:
    return rose_quiver(petals)


def cycle_text(n: int) -> str:
    """The quiver file of one cycle a_i: v_i -> v_(i+1 mod n)."""
    return "vertices " + " ".join(f"v{i}" for i in range(n)) + "\n" \
        + "".join(f"arrow a{i} v{i} v{(i + 1) % n}\n" for i in range(n))


ENGINE_QUIVERS = {
    "toeplitz": toeplitz_quiver(),
    "jacobson1": jacobson_quiver(1),
    "jacobson2": jacobson_quiver(2),
    "rose1": rose(1),
    "rose2": rose(2),
    "rose3": rose(3),
    "rose4": rose(4),
}


def random_no_source_quiver(rng: random.Random, max_vertices: int = 3,
                            max_arrows: int = 5,
                            also_sink_free: bool = False) -> Quiver:
    """Random quiver where every vertex has an incoming arrow (and an
    outgoing one too when also_sink_free is set).  The mandatory arrows
    are added first, so max_arrows only caps the optional extras."""
    v = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(v)]
    arrows = []

    def add(src, tgt):
        arrows.append((f"e{len(arrows)}", src, tgt))

    for tgt in vertices:
        add(rng.choice(vertices), tgt)
    if also_sink_free:
        for src in vertices:
            if all(a[1] != src for a in arrows):
                add(src, rng.choice(vertices))
    while len(arrows) < max_arrows and rng.random() < 0.6:
        add(rng.choice(vertices), rng.choice(vertices))
    return Quiver.build(vertices, arrows)


def random_ladder_quiver(rng: random.Random, v: int, arrows_per_vertex: int,
                         sinks: int = 0) -> Quiver:
    """v vertices, the first `sinks` of them sinks, every vertex with an
    incoming arrow and about `arrows_per_vertex` arrows leaving each
    non-sink, in shuffled declaration order."""
    vertices = [f"v{i}" for i in range(v)]
    nonsinks = vertices[sinks:]
    pairs = [(rng.choice(nonsinks), t) for t in vertices]
    for s in nonsinks:
        if all(src != s for src, _ in pairs):
            pairs.append((s, rng.choice(vertices)))
    while len(pairs) < arrows_per_vertex * len(nonsinks):
        pairs.append((rng.choice(nonsinks), rng.choice(vertices)))
    rng.shuffle(vertices)
    arrows = [(f"e{i}", s, t) for i, (s, t) in enumerate(pairs)]
    return Quiver.build(vertices, arrows)


def dense_quiver(rng: random.Random, v: int, most: int) -> Quiver:
    """Sink-free: 1..most parallel arrows for every ordered vertex pair."""
    vertices = [f"v{i}" for i in range(v)]
    pairs = [(s, t) for s in vertices for t in vertices
             for _ in range(rng.randint(1, most))]
    arrows = [(f"e{i}", s, t) for i, (s, t) in enumerate(pairs)]
    return Quiver.build(vertices, arrows)


def unfactorable_dense_quiver() -> Quiver:
    """20 sink-free vertices v0..v19 with random.Random(95).randint(0, 10)
    arrows a{i}_{j}_{k} from v_i to v_j, pairs in row-major order: 1,974
    arrows and det -368029041531894267421 = -13 * 2072142187 *
    13662154291, whose cofactor after 13 has no prime factor below 10^6
    and is not prime."""
    rng = random.Random(95)
    vertices = [f"v{i}" for i in range(20)]
    arrows = [(f"a{i}_{j}_{k}", f"v{i}", f"v{j}")
              for i in range(20) for j in range(20)
              for k in range(rng.randint(0, 10))]
    return Quiver.build(vertices, arrows)


def literal_map(matrix, g: int) -> dict:
    """x -> matrix.x mod g for every x in (Z/g)^cols, one walk in full."""
    rows = [matrix.row(i) for i in range(matrix.rows)]
    return {x: tuple(sum(a * b for a, b in zip(row, x)) % g for row in rows)
            for x in itertools.product(range(g), repeat=matrix.cols)}


def literal_torsion_counts(matrix, m: int, qs) -> dict:
    """q -> (#{x in ker : q.x = 0}, #{y + im in coker : q.y in im}) for
    the map (Z/m)^cols -> (Z/m)^rows, straight from the definitions: one
    walk over all of (Z/m)^cols for the image and the kernel, then one
    walk over all of (Z/m)^rows per q."""
    values = literal_map(matrix, m)
    image = set(values.values())
    kernel = [x for x, y in values.items() if not any(y)]
    counts = {}
    for q in qs:
        killed = sum(1 for x in kernel if all(q * a % m == 0 for a in x))
        lifted = sum(1 for y in itertools.product(range(m), repeat=matrix.rows)
                     if tuple(q * a % m for a in y) in image)
        assert lifted % len(image) == 0
        counts[q] = (killed, lifted // len(image))
    return counts


def matrix_power(a: IntMatrix, m: int) -> IntMatrix:
    """a^m for a square matrix and m >= 0, by repeated squaring."""
    if a.rows != a.cols or m < 0:
        raise ValueError("matrix power needs a square matrix and m >= 0")
    result = IntMatrix.identity(a.rows)
    while m:
        if m & 1:
            result = result @ a
        a = a @ a
        m >>= 1
    return result


def path_count_matrix(q: Quiver, length: int) -> IntMatrix:
    """Entry (i, j) counts paths of the given length from v_i to v_j: the
    matrix-power reference for the filtration's block sizes."""
    return matrix_power(quiver.incidence_matrix(q), length)


_BASIS_LIMIT = 20000


def enumerate_basis(alg, max_path_len: int) -> list:
    """All normal-form monomials with both sides of length <= max_path_len,
    in `_sort_key` order; SizeLimitError past 20000 candidates."""
    by_target = _paths_by_target(alg, max_path_len, _BASIS_LIMIT)
    out = []
    for w in alg.vertices:
        pool = [p for length in range(max_path_len + 1)
                for p in by_target[length].get(w, ())]
        if len(pool) ** 2 > _BASIS_LIMIT:
            raise SizeLimitError(
                f"basis enumeration would exceed {_BASIS_LIMIT} monomials")
        out.extend(mon for left in pool for right in pool
                   if is_normal(alg, mon := Monomial(left, right)))
    out.sort(key=_sort_key)
    return out


def is_normal(alg, mon) -> bool:
    """Whether `mon` is in normal form: its two sides do not end in one
    special arrow."""
    la, ra = mon.left.arrows, mon.right.arrows
    return not la or not ra or la[-1] != ra[-1] or la[-1] not in alg._junction


def ck_rewrite(alg, mon):
    """One Cuntz-Krieger rewrite of `mon` at its junction, as (sign,
    monomial) pairs, or None when `mon` is normal: s'g.(t'g)*, g special
    at v, is s'.t'* minus s'h.(t'h)* for the other arrows h at v."""
    if is_normal(alg, mon):
        return None
    left, right = mon
    v, others = alg._junction[left.arrows[-1]]
    la, ra = left.arrows[:-1], right.arrows[:-1]
    out = [(1, Monomial(Path(left.source, v, la), Path(right.source, v, ra)))]
    for h, w in others:
        out.append((-1, Monomial(Path(left.source, w, la + (h,)),
                                 Path(right.source, w, ra + (h,)))))
    return out


def rewrite_in_order(alg, terms, pick) -> dict:
    """Normal form of (monomial, coeff) terms, one rewrite per step: the
    pending term at index pick(pending) goes next, into the result when
    normal, else its `ck_rewrite` summands back onto the pending list."""
    pending, done = list(terms), {}
    while pending:
        mon, c = pending.pop(pick(pending))
        step = ck_rewrite(alg, mon)
        if step is None:
            done[mon] = done.get(mon, 0) + c
        else:
            pending.extend((m, c if sign > 0 else -c) for sign, m in step)
    return {m: c for m, c in done.items() if c}


class _Overrun(BaseException):
    """Raised into a bounded call when its time is up; a BaseException,
    so the call's own `except Exception` clauses do not swallow it."""


def call_within(seconds: float, fn):
    """fn() under a one-shot real-time timer: its return value or the
    exception it raised, or None when it ran past `seconds`, in which
    case it is stopped there, so that a hang fails the calling test
    instead of stalling the suite.

    Signals are handled on the main thread between bytecodes, so this
    must be called on the main thread, and it cannot interrupt a single
    long C-level call (say, one huge integer power): such a call is
    stopped only once it returns.
    """
    def overrun(signum, frame):
        raise _Overrun

    previous = signal.signal(signal.SIGALRM, overrun)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, seconds)
            try:
                return fn()
            except Exception as exc:
                return exc
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _Overrun:
            # also when the timer fired after fn() returned, before it
            # was disarmed: the call took its whole limit either way
            return None
    finally:
        signal.signal(signal.SIGALRM, previous)
