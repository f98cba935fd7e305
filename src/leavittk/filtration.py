"""Length filtration of the degree-0 part of a Leavitt path algebra.

Stage n of the filtration is spanned by monomials s.t* whose sides are
paths of a common length m with a common endpoint, where m = n or the
endpoint is a sink (sink-supported monomials cannot be lengthened, so
they must be carried along; see README).  Stage n is a product of
matrix algebras, one block per label:

    (m, w)  for every sink w and 0 <= m <= n, and
    (n, w)  for every non-sink w,

of size p(m, w) = number of length-m paths into w.  The operations
here certify that picture symbolically: the dimension of the stage is
computed from its spanning set, whose normal monomials are counted and
whose other monomials are rewritten and reduced, and the two
K-group-level transition matrices are recovered by decomposing
idempotents with the rewriting engine rather than by trusting the
counting formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LeavittAlgebra, Monomial, _new, _paths_by_target, \
    _sort_key, corner_data, corner_phi
from .groups import SizeLimitError
from .matrices import IntMatrix
from .quiver import Quiver, reduced_incidence, require_no_sources


@dataclass(frozen=True)
class Block:
    level: int
    vertex: str
    size: int


@dataclass(frozen=True)
class BlockProfile:
    level: int
    blocks: tuple  # Block entries sorted by (level, vertex position)

    @property
    def count(self) -> int:
        return len(self.blocks)

    @property
    def sum_of_squares(self) -> int:
        return sum(b.size ** 2 for b in self.blocks)


# The work bound of one filtration stage: at most this many spanning
# monomials, paths or path arrows in the path table, and K0-matrix cells.
_SPAN_LIMIT = 60000


def _check_level(q: Quiver, n: int) -> None:
    """Refuse level n before any per-level work.

    ValueError when n is negative.  SizeLimitError when the stage-n K0
    matrices would pass the bound, with B(n) * B(n+1) cells for
    B(n) = (n+1)v' + v - v' blocks, or the path table would, with at
    least v * n(n+1)/2 arrows: a quiver with no sources has a path of
    every length into every vertex.
    """
    if n < 0:
        raise ValueError("filtration level must be nonnegative")
    cells = ((n + 1) * q.num_sinks + q.v - q.num_sinks) \
        * ((n + 2) * q.num_sinks + q.v - q.num_sinks)
    if max(cells, q.v * n * (n + 1) // 2) > _SPAN_LIMIT:
        raise SizeLimitError(f"filtration level {n} would exceed "
                             f"{_SPAN_LIMIT} matrix cells or path arrows")


def _block_labels(q: Quiver, n: int) -> list:
    """(level, vertex) labels of the stage-n blocks, sorted by level and
    vertex position: every level for a sink, level n for a non-sink."""
    return [(m, w) for m in range(n + 1) for j, w in enumerate(q.vertices)
            if j < q.num_sinks or m == n]


def _profiles(q: Quiver, *levels) -> list:
    """The block profiles of the stages `levels`, after their checks, all
    read off one run of path counts.

    Block (m, w) has size c_m[w], the number of length-m paths into w:
    the column sums of A^m, that is 1^T A^m.  They run as a vector,
    c_0 = 1 and c_{m+1}[t] = sum of c_m[s] over the arrows s -> t, in
    O(E) per length and with no path built.
    """
    require_no_sources(q)
    for n in levels:
        _check_level(q, n)
    j = {w: i for i, w in enumerate(q.vertices)}
    ends = [(j[a.source], j[a.target]) for a in q.arrows]
    counts = [[1] * q.v]
    for _ in range(max(levels)):
        last, nxt = counts[-1], [0] * q.v
        for s, t in ends:
            nxt[t] += last[s]
        counts.append(nxt)
    return [BlockProfile(level=n, blocks=tuple(
        Block(level=m, vertex=w, size=counts[m][j[w]])
        for m, w in _block_labels(q, n))) for n in levels]


def block_profile(q: Quiver, n: int) -> BlockProfile:
    """Matrix-algebra block labels and sizes of stage n.

    The sizes come from a running vector of path counts;
    `path_count_matrix` in tests/helpers.py is the matrix-power
    reference for them.

    >>> from .quiver import parse_quiver
    >>> toep = parse_quiver("vertices 1 2\\narrow a 1 1\\narrow b 1 2")
    >>> [b.size for b in block_profile(toep, 2).blocks]
    [1, 1, 1, 1]
    """
    return _profiles(q, n)[0]


def _spanning_monomials(alg: LeavittAlgebra, labels, by_target) -> tuple:
    """(number of normal monomials, list of non-normal monomials) of the
    spanning set of the blocks `labels`.

    The spanning monomials of block (m, w) are the pairs s.t* of paths
    in P, the length-m paths into w.  Such a pair is non-normal exactly
    when s and t end in one special arrow g, so with P_g the paths of P
    that end in g the block holds |P|^2 - sum_g |P_g|^2 normal monomials.
    Those are counted, not built; the non-normal ones are built in the
    order of the whole set.
    """
    total, monomials = 0, []
    for m, w in labels:
        paths = by_target[m].get(w, ())
        if total + len(paths) ** 2 > _SPAN_LIMIT:
            raise SizeLimitError(
                f"spanning set would exceed {_SPAN_LIMIT} monomials")
        total += len(paths) ** 2
        ending: dict = {}  # special g -> P_g
        for p in paths:
            if p.arrows and p.arrows[-1] in alg._junction:
                ending.setdefault(p.arrows[-1], []).append(p)
        for left in paths:
            if left.arrows:
                monomials.extend(_new(Monomial, (left, right))
                                 for right in ending.get(left.arrows[-1], ()))
    return total - len(monomials), monomials


def _span_rank(alg: LeavittAlgebra, labels, monomials) -> int:
    """Rank over Q of the normal forms of `monomials` modulo the normal
    spanning monomials of the blocks `labels` (the plain rank when
    `labels` is empty), by sparse elimination on leading monomials.

    Those normal monomials are implicit pivots with rows {itself: 1}, so
    a row has no term that is one of them, a normal s.t* with
    |s| = |t| = m ending at w for (m, w) in `labels`: `_normalize` is
    given them and never builds such a term.

    A row's lead is its shortest term, and every pivot is stored as its
    row.  A normal monomial is its own row.  The row of a non-normal
    spanning monomial s'g.(t'g)*, g a special arrow, has as shortest term
    the monomial with the common special-arrow suffix of both sides
    stripped, with coefficient 1.  It is shorter than its block's level
    and ends at a non-sink, so it is no spanning monomial, and the
    special arrows fix the stripped chain, so no two rows share it.
    Every lead is then new and the elimination is triangular: no row is
    reduced.  A lead that does collide (on a repeated or dependent
    input) is still reduced against its pivot's row, as a.row - b.pivot
    with a the pivot's lead coefficient and b the row's.  That scales the
    row by a nonzero integer, which leaves the rank over Q alone and
    every row integral.
    """
    implicit: dict = {}  # length m -> endpoints w of the labels (m, w)
    for m, w in labels:
        implicit.setdefault(m, set()).add(w)
    pivots: dict = {}  # lead -> row
    for mon in monomials:
        row = alg._normalize([(mon, 1)], implicit)
        while row:
            lead = min(row, key=_sort_key) if len(row) > 1 else next(iter(row))
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, b = pivot[lead], row[lead]
            if a != 1:
                row = {k: a * c for k, c in row.items()}
            for k, c in pivot.items():
                s = row.get(k, 0) - b * c
                if not s:
                    row.pop(k, None)
                else:
                    row[k] = s
    return len(pivots)


def _span_dim(alg: LeavittAlgebra, n: int, by_target) -> int:
    """Dimension of stage n: its normal spanning monomials, counted,
    plus the rank their non-normal ones add."""
    labels = _block_labels(alg.quiver, n)
    count, monomials = _spanning_monomials(alg, labels, by_target)
    return count + _span_rank(alg, labels, monomials)


def filtration_span_dim(q: Quiver, n: int) -> int:
    """Dimension of stage n, computed by reducing its spanning set.

    The normal spanning monomials belong to the normal-form basis, so
    they are counted per block.  Every non-normal one is rewritten to
    normal form, and the rank its rational row adds is taken by sparse
    elimination, so this really measures the span and not the count.
    """
    require_no_sources(q)
    _check_level(q, n)
    alg = LeavittAlgebra(q)
    return _span_dim(alg, n, _paths_by_target(alg, n, _SPAN_LIMIT))


def _stage(q: Quiver, n: int) -> tuple:
    """What the stage-n transition matrices share: the quiver, one
    rational algebra, its path table up to length n, and the stage-n and
    stage-(n+1) block profiles, read off one run of path counts, whose
    level checks come before the algebra is built.  `_profiles` refuses
    sources first, so the table holds a path of every length into every
    vertex."""
    src, dst = _profiles(q, n, n + 1)
    alg = LeavittAlgebra(q)
    return q, alg, _paths_by_target(alg, n, _SPAN_LIMIT), src, dst


def _inclusion(q, alg, by_target, src, dst) -> IntMatrix:
    n = src.level
    at = {(b.level, b.vertex): i for i, b in enumerate(dst.blocks)}
    rows = [[0] * src.count for _ in range(dst.count)]
    for col, block in enumerate(src.blocks):
        sigma = by_target[block.level][block.vertex][0]
        u = Monomial(sigma, sigma)
        if q.is_sink(block.vertex):
            rows[at[block.level, block.vertex]][col] += 1
            continue
        exts = [alg.path(sigma.arrows + (a,)) for a in alg._out[block.vertex]]
        if alg.element([(Monomial(e, e), 1) for e in exts]) \
                != alg.element([(u, 1)]):
            raise AssertionError("idempotent splitting failed symbolically")
        for e in exts:
            rows[at[n + 1, e.target]][col] += 1
    return IntMatrix(rows)


def _phi(q, alg, by_target, src, dst) -> IntMatrix:
    corner = corner_data(alg)
    designated = dict(corner.designated)
    at = {(b.level, b.vertex): i for i, b in enumerate(dst.blocks)}
    rows = [[0] * src.count for _ in range(dst.count)]
    for col, block in enumerate(src.blocks):
        sigma = by_target[block.level][block.vertex][0]
        image = alg.path((designated[sigma.source],) + sigma.arrows)
        if corner_phi(alg.element([(Monomial(sigma, sigma), 1)]), corner) \
                != alg.element([(Monomial(image, image), 1)]):
            raise AssertionError("corner endomorphism mismatch")
        rows[at[block.level + 1, block.vertex]][col] += 1
    return IntMatrix(rows)


def inclusion_k0_matrix(q: Quiver, n: int) -> IntMatrix:
    """Transition matrix of stage n inside stage n+1 on idempotent classes.

    Sink-block idempotents are carried along unchanged; the minimal
    idempotent s.s* of a non-sink block splits as the sum of (s a)(s a)*
    over the arrows a leaving its endpoint, and the summands are counted
    by the block they land in.  The splitting identity itself is checked
    by the rewriting engine before anything is counted.
    """
    return _inclusion(*_stage(q, n))


def phi_k0_matrix(q: Quiver, n: int) -> IntMatrix:
    """Effect of the corner endomorphism on stage-n idempotent classes.

    The image of a block's minimal idempotent u = s.s* is predicted as
    (a s)(a s)*, with a the designated arrow into the source of s, and
    counted in block (n+1, endpoint of s).  The rewriting engine
    certifies each prediction: t+ . u . t- must equal it in normal form,
    and normal forms are unique, so a wrong prediction raises.
    """
    return _phi(*_stage(q, n))


def _stage_report(q: Quiver, n: int) -> tuple:
    """(stage-n profile, span dimension, inclusion matrix, phi matrix) of
    one `filtration` request, built on one algebra, path table and profiles."""
    stage = _stage(q, n)
    q, alg, by_target, profile, _ = stage
    return (profile, _span_dim(alg, n, by_target), _inclusion(*stage),
            _phi(*stage))


def expected_inclusion_matrix(q: Quiver, n: int) -> IntMatrix:
    """The combinatorial block form: identity on sink levels, transposed
    reduced incidence on the top level."""
    v, vp = q.v, q.num_sinks
    src_count = (n + 1) * vp + (v - vp)
    dst_count = (n + 2) * vp + (v - vp)
    it = reduced_incidence(q).transpose()
    rows = [[0] * src_count for _ in range(dst_count)]
    for i in range((n + 1) * vp):
        rows[i][i] = 1
    for a in range(v):
        for b in range(v - vp):
            rows[(n + 1) * vp + a][(n + 1) * vp + b] = it[a, b]
    return IntMatrix(rows)


def expected_phi_matrix(q: Quiver, n: int) -> IntMatrix:
    """The combinatorial block form: zero rows on the fresh sink level,
    identity shifted one level up."""
    src_count = (n + 1) * q.num_sinks + (q.v - q.num_sinks)
    return IntMatrix.identity_below_zero(src_count + q.num_sinks, src_count)


def stabilized_block_difference(q: Quiver, n: int) -> IntMatrix:
    """phi minus inclusion, with all sink-level labels deleted.

    What remains is supported on the top-level labels and must equal
    the matrix produced by :func:`leavittk.ktheory.leavitt_matrix`.
    """
    stage = _stage(q, n)
    q, _, _, src, dst = stage
    diff = _phi(*stage) - _inclusion(*stage)
    keep_cols = [i for i, b in enumerate(src.blocks) if not q.is_sink(b.vertex)]
    keep_rows = [i for i, b in enumerate(dst.blocks) if b.level == n + 1]
    return diff.permuted(keep_rows, keep_cols)
