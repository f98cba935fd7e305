"""K-theory pipelines driven by the incidence matrix.

The key object is the v x (v - v') integer matrix obtained by stacking
a zero sink block on top of an identity and subtracting the transposed
reduced incidence matrix.  Its kernel/cokernel over Z/m give the
mod-m K-groups of the quiver's Leavitt path algebra in odd/even
degrees, with everything vanishing in negative degrees.  The tables
computed here are valid over algebraically closed base fields whose
characteristic does not divide the modulus; the CLI repeats that
hypothesis next to every table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from operator import index

from .groups import FinAbGroup, Modulus, SizeLimitError, _proven_prime, \
    factorize, kernel_cokernel, kernel_cokernel_mod
from .matrices import IntMatrix, smith_normal_form
from .quiver import Quiver, reduced_incidence, require_no_sources

DEFAULT_WINDOW = (-2, 7)
_KMAP_BOUND = 10 ** 8
# Bareiss determinants grow as v^3: 3.5 s at v = 400, 8 s at v = 500 on
# a 2-core x86_64 host with Python 3.11.
_DET_BOUND = 400


def leavitt_matrix(q: Quiver) -> IntMatrix:
    """Zero-over-identity block minus the transposed reduced incidence.

    Shape v x (v - v'); the first v' rows (the sinks) carry no identity
    contribution.  Built in one pass over the arrows: column j belongs
    to the non-sink vertex v' + j, and each arrow subtracts 1 in the row
    of its target.  A map of more than 10^8 cells raises SizeLimitError
    before it is allocated.

    >>> from .quiver import parse_quiver
    >>> jac = parse_quiver("vertices 1 2\\narrow a 1 1\\narrow b 1 2")
    >>> leavitt_matrix(jac).tolists()
    [[-1], [0]]
    """
    require_no_sources(q)
    sinks = q.num_sinks
    cols = q.v - sinks
    if q.v * cols > _KMAP_BOUND:
        raise SizeLimitError(f"K-map of {q.v} x {cols} would exceed "
                             f"{_KMAP_BOUND} cells")
    index = {v: i for i, v in enumerate(q.vertices)}
    rows = [[0] * cols for _ in range(q.v)]
    for j in range(cols):
        rows[sinks + j][j] = 1
    for a in q.arrows:
        rows[index[a.target]][index[a.source] - sinks] -= 1
    for i, row in enumerate(rows):  # one form of each row alive at a time
        rows[i] = tuple(row)
    return IntMatrix._of(tuple(rows), cols)


@dataclass(frozen=True)
class KGroupTable:
    """Mod-m K-groups over the degrees window[0]..window[1]: zero in
    negative degrees, `even` (the cokernel) in even nonnegative ones and
    `odd` (the kernel) in odd ones.  A degree outside the window raises
    KeyError, a non-int window end or degree TypeError (a bool is 0 or 1)."""

    modulus: Modulus
    even: FinAbGroup
    odd: FinAbGroup
    window: tuple  # (n_min, n_max)

    def __post_init__(self):
        _check_window(*self.window)

    def degrees(self) -> tuple:
        return tuple(range(self.window[0], self.window[1] + 1))

    def group_at(self, n: int) -> FinAbGroup:
        n = index(n)
        if not self.window[0] <= n <= self.window[1]:
            raise KeyError(n)
        if n < 0:
            return FinAbGroup.trivial()
        return self.odd if n % 2 else self.even


_WINDOW_BOUND = 10 ** 4


def _check_window(n_min: int, n_max: int):
    """TypeError for an end that is not an int (a float included),
    ValueError for an empty window, SizeLimitError for one of more than
    10^4 degrees."""
    if index(n_min) > index(n_max):
        raise ValueError("empty degree window")
    if n_max - n_min >= _WINDOW_BOUND:
        raise SizeLimitError(f"degree window holds at most {_WINDOW_BOUND} "
                             f"degrees, got {n_max - n_min + 1}")


def mod_l_ktheory(q: Quiver, modulus: Modulus,
                  n_min: int = DEFAULT_WINDOW[0],
                  n_max: int = DEFAULT_WINDOW[1]) -> KGroupTable:
    """Degree-indexed table of mod-m K-groups of the path algebra.

    Even nonnegative degrees read off the cokernel, odd ones the
    kernel, negative degrees vanish; both come from one unit-pivot phase
    over Z/m, then a small residual elimination per prime power of m.
    Composite moduli are accepted: the cyclic coefficient input is only
    established for prime powers, so a table whose
    `modulus.is_prime_power` is False is a formal CRT extension.  A
    window of more than 10^4 degrees raises SizeLimitError.
    """
    _check_window(n_min, n_max)
    kernel, cokernel = kernel_cokernel_mod(leavitt_matrix(q), modulus)
    return KGroupTable(modulus=modulus, even=cokernel, odd=kernel,
                       window=(n_min, n_max))


# -- corner-skew long exact sequence ------------------------------------


@dataclass(frozen=True)
class DegreeData:
    """Presentation of one coefficient degree plus the induced map.

    The group is Z (modulus None) or Z/m on phi.cols generators, mapped
    into phi.rows of them.  A square `phi` means a plain endomorphism.
    When the codomain is strictly larger, the identity is embedded below
    a zero block, sinks-first style, before subtracting `phi` -- the
    stabilized shape produced by quivers with sinks, where no square
    endomorphism can reproduce the tables.
    """

    phi: IntMatrix
    modulus: Modulus | None = None

    def __post_init__(self):
        if self.phi.rows < self.phi.cols:
            raise ValueError(
                f"phi is {self.phi.rows}x{self.phi.cols}: the codomain may "
                "not be smaller than the domain")

    def map_matrix(self) -> IntMatrix:
        return IntMatrix.identity_below_zero(self.phi.rows, self.phi.cols) \
            - self.phi


@dataclass(frozen=True)
class LesEntry:
    """One degree of the long exact sequence: the middle group is an
    extension of `quotient` (kernel one degree down) by `sub` (cokernel
    at this degree); `resolved` is set only when the extension is
    forced by orders alone."""

    degree: int
    sub: FinAbGroup
    quotient: FinAbGroup
    resolved: FinAbGroup | None


def _resolve_extension(sub: FinAbGroup, quotient: FinAbGroup) -> FinAbGroup | None:
    if sub.is_trivial:
        return quotient
    if quotient.is_trivial:
        return sub
    if sub.is_cyclic() and quotient.is_cyclic() \
            and gcd(sub.order(), quotient.order()) == 1:
        return sub.direct_sum(quotient)
    return None


def corner_les(theory: dict, n_min: int, n_max: int) -> list:
    """Resolve the long exact sequence of the corner-skew triangle.

    `theory` maps each degree to its DegreeData; it must hold every
    degree from n_min - 1 to n_max, and a missing one raises KeyError.

    Ambiguous extensions are reported with `resolved` unset rather than
    guessed; only order-forced cases are filled in.  Each distinct
    DegreeData is reduced once: over Z/m by local elimination, over Z
    by its Smith form.  A window of more than 10^4 degrees raises
    SizeLimitError.
    """
    _check_window(n_min, n_max)
    read: dict = {}  # DegreeData -> (kernel, cokernel)

    def kernel_cokernel_of(data: DegreeData) -> tuple:
        if data not in read:
            matrix = data.map_matrix()
            read[data] = (
                kernel_cokernel(smith_normal_form(matrix))
                if data.modulus is None
                else kernel_cokernel_mod(matrix, data.modulus))
        return read[data]

    out = []
    for n in range(n_min, n_max + 1):
        sub = kernel_cokernel_of(theory[n])[1]
        quotient = kernel_cokernel_of(theory[n - 1])[0]
        out.append(LesEntry(degree=n, sub=sub, quotient=quotient,
                            resolved=_resolve_extension(sub, quotient)))
    return out


def suslin_coefficients(modulus: Modulus, phi_even: IntMatrix,
                        n_min: int, n_max: int) -> dict:
    """Cyclic coefficients of an algebraically closed field: Z/m in even
    nonnegative degrees, zero elsewhere, with the given even-degree map.
    Returns {degree: DegreeData} for n_min - 1..n_max."""
    _check_window(n_min, n_max)
    even = DegreeData(phi=phi_even, modulus=modulus)
    zero = DegreeData(phi=IntMatrix([]), modulus=modulus)
    return {n: even if n >= 0 and n % 2 == 0 else zero
            for n in range(n_min - 1, n_max + 1)}


def les_table_for_quiver(q: Quiver, modulus: Modulus,
                         n_min: int = DEFAULT_WINDOW[0],
                         n_max: int = DEFAULT_WINDOW[1]) -> list:
    """Corner LES entries with the quiver's own stabilized map data."""
    require_no_sources(q)
    it = reduced_incidence(q).transpose()
    theory = suslin_coefficients(modulus, it, n_min, n_max)
    return corner_les(theory, n_min, n_max)


# -- divisibility analysis ------------------------------------------------


@dataclass(frozen=True)
class DivisibilityEntry:
    prime: int
    power: int
    modulus: Modulus
    table: KGroupTable
    vanishes: bool
    conclusions: tuple


@dataclass(frozen=True)
class DivisibilityReport:
    sink_free: bool
    determinant: int | None
    determinant_primes: tuple | None
    entries: tuple


# Every modulus l^nu of a report stays below this: Python refuses to
# convert an int of more than 4300 digits to text.
_POWER_BOUND = 10 ** 4300


def divisibility_report(q: Quiver, primes) -> DivisibilityReport:
    """Vanishing/divisibility conclusions for each requested prime power.

    A table that vanishes in degrees 0..2 vanishes in every nonnegative
    degree (the groups only depend on parity), which makes the integral
    K-groups uniquely m-divisible; a nonzero group in some parity forces
    one of each adjacent integral pair to be nonzero in that parity.
    Each listed l must be proven prime (so below 3.3e24) and each l^nu
    below 10^4300; a float l or nu raises TypeError.  The matrix is
    eliminated once, over Z/M with M the product of l^E over the
    distinct l, E the largest requested power of l, and each table over
    Z/l^nu tensors those groups with Z/l^nu: a Smith invariant d gives
    Z/gcd(d, M), and gcd(gcd(d, M), l^nu) = gcd(d, l^nu) for nu <= E,
    while an unused row or column gives Z/M (x) Z/l^nu = Z/l^nu.
    A sink-free |det| is factored before any elimination, so one that
    factorize cannot finish raises SizeLimitError at no elimination cost.
    A sink-free K-map of more than 400 rows raises SizeLimitError after
    it is built and before its determinant is taken.
    """
    primes = [(index(l), index(nu)) for l, nu in primes]
    top: dict = {}  # prime -> largest requested exponent
    for l, nu in primes:
        if nu < 1 or not _proven_prime(l):
            raise ValueError(f"{l}^{nu} is not a positive power of a prime "
                             "(l must be proven prime, so below 3.3e24)")
        # l^nu >= 2^(nu * (bits(l) - 1)), so this sizes it unbuilt
        if nu * (l.bit_length() - 1) >= _POWER_BOUND.bit_length() \
                or l ** nu >= _POWER_BOUND:
            raise SizeLimitError(f"{l}^{nu} has more than 4300 digits")
        top[l] = max(nu, top.get(l, 0))
    matrix = leavitt_matrix(q)
    sink_free = q.num_sinks == 0
    det = None
    det_primes = None
    if sink_free:
        if matrix.rows > _DET_BOUND:
            raise SizeLimitError(f"determinant of a {matrix.rows} x "
                                 f"{matrix.cols} K-map would exceed "
                                 f"{_DET_BOUND} rows")
        det = matrix.determinant()
        if det != 0:
            det_primes = tuple(p for p, _ in factorize(abs(det))) if abs(det) > 1 \
                else ()
    factorization = tuple(sorted(top.items()))
    over_top = kernel_cokernel_mod(
        matrix, Modulus(prod(l ** e for l, e in factorization), factorization))
    entries = []
    for l, nu in primes:
        modulus = Modulus(l ** nu, ((l, nu),))
        kernel, cokernel = (g.tensor_with_cyclic(modulus.m) for g in over_top)
        table = KGroupTable(modulus=modulus, even=cokernel, odd=kernel,
                            window=(0, 2))
        nonzero_parities = [parity for parity, group
                            in (("even", cokernel), ("odd", kernel))
                            if not group.is_trivial]
        vanishes = not nonzero_parities
        if vanishes:
            conclusions = (
                f"IK_n(L_Q) uniquely {l}^{nu}-divisible for n >= 0",)
        else:
            conclusions = tuple(
                f"for every {parity} n >= 0, at least one of IK_n(L_Q), "
                f"IK_{{n-1}}(L_Q) is nonzero"
                for parity in nonzero_parities)
        entries.append(DivisibilityEntry(prime=l, power=nu, modulus=modulus,
                                         table=table, vanishes=vanishes,
                                         conclusions=conclusions))
    return DivisibilityReport(sink_free=sink_free, determinant=det,
                              determinant_primes=det_primes,
                              entries=tuple(entries))


@dataclass(frozen=True)
class SplitCheckResult:
    n: int
    modulus: Modulus
    factors: tuple  # prime powers of n
    left: KGroupTable
    right: KGroupTable  # the direct sum of the factors' tables

    @property
    def equal(self) -> bool:
        """Whether the two tables agree in every degree of the window."""
        return all(self.left.group_at(n) == self.right.group_at(n)
                   for n in self.left.degrees())


def rose_quiver(petals: int) -> Quiver:
    """One vertex with the given number of loops."""
    arrows = [(f"a{i}", "w", "w") for i in range(1, index(petals) + 1)]
    return Quiver.build(("w",), arrows)


_SPLIT_BOUND = 10 ** 5


def moore_splitting_check(n: int, modulus: Modulus,
                          n_min: int = DEFAULT_WINDOW[0],
                          n_max: int = DEFAULT_WINDOW[1]) -> SplitCheckResult:
    """Compare the rose on n+1 petals against the direct sum of the
    tables of the roses of its prime-power factors, summed per parity.
    n above 10^5, or a window of more than 10^4 degrees, raises
    SizeLimitError before n is factorized or any rose is built."""
    if n < 2:
        raise ValueError("splitting check needs n >= 2")
    if n > _SPLIT_BOUND:
        raise SizeLimitError(f"splitting check needs n <= {_SPLIT_BOUND}, "
                             f"got {n}")
    _check_window(n_min, n_max)
    factors = tuple(p ** e for p, e in factorize(n))
    left = mod_l_ktheory(rose_quiver(n + 1), modulus, n_min, n_max)
    summands = [mod_l_ktheory(rose_quiver(f + 1), modulus, n_min, n_max)
                for f in factors]
    even = odd = FinAbGroup.trivial()
    for table in summands:
        even, odd = even.direct_sum(table.even), odd.direct_sum(table.odd)
    right = KGroupTable(modulus=modulus, even=even, odd=odd,
                        window=left.window)
    return SplitCheckResult(n=n, modulus=modulus, factors=factors, left=left,
                            right=right)
