"""Finitely generated abelian groups in invariant-factor normal form,
and kernels/cokernels of integer matrices over Z and over Z/m.

Every group is stored in its canonical shape (free rank plus a
divisibility chain of torsion orders), so equality of groups is plain
equality of normal forms; no isomorphism search happens anywhere.
Over Z/m the groups come from one route, `kernel_cokernel_mod`: one
unit-pivot phase over Z/m and then, per prime power p^e of m, the
valuation phases over Z/p^e on what it left.  It is tested against two
references that share none of its code: the certified Smith form over Z
(`kernel_cokernel`) and the enumeration oracle (`brute_force_mod_oracle`),
which counts q-torsion as g^cols or g^rows over |im(M mod g)|, g = gcd(q, m),
by coset closures in (Z/p^j)^rows while sum((p^e)^max(rows, cols)) <= 1e6.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd, prod
from operator import index

from .matrices import IntMatrix, SmithDecomposition, smith_normal_form


# Miller-Rabin with the first 13 primes as bases decides primality
# correctly for every n below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _proven_prime(n: int) -> bool:
    """True only if n is prime; False for composites and for any n at or
    above the bound where the fixed bases are proven."""
    if n < 2 or n >= _MR_BOUND:
        return False
    if n in _MR_BASES:
        return True
    if any(n % b == 0 for b in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class SizeLimitError(ValueError):
    """Raised when an exhaustive computation would be too large."""


# factorize tries no divisor at or above this, so every n below its
# square still factors and no n costs more than ~5e5 divisions.
_TRIAL_LIMIT = 10 ** 6


def factorize(n: int) -> tuple:
    """Prime factorization ((p, e), ...) with strictly increasing primes.

    Trial division below 10^6, which stops as soon as the cofactor left
    is proven prime by deterministic Miller-Rabin (below 3.3e24 only).
    A cofactor left that is not proven prime (so at least 10^12) raises
    SizeLimitError, and a float n raises TypeError.

    >>> factorize(360)
    ((2, 3), (3, 2), (5, 1))
    >>> factorize(2 * (10 ** 18 + 3))
    ((2, 1), (1000000000000000003, 1))
    """
    n = index(n)
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    original = n
    out = []
    p = 2
    prime = _proven_prime(n)
    while not prime and p * p <= n:
        if p >= _TRIAL_LIMIT:
            raise SizeLimitError(
                f"cannot factor {original}: no prime factor below "
                f"{_TRIAL_LIMIT}, and the cofactor {n} is not proven prime")
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
            prime = _proven_prime(n)
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@dataclass(frozen=True)
class Modulus:
    """A coefficient modulus m >= 2 together with its factorization; the
    constructor checks that its prime powers, with increasing primes,
    multiply to m."""

    m: int
    factorization: tuple

    def __post_init__(self):  # index: a float raises TypeError
        left, last, e = index(self.m), 1, 0
        if left < 2:
            raise ValueError(f"modulus must be >= 2, got {left}")
        for p, e in self.factorization:
            if index(p) <= last or index(e) < 1:
                raise ValueError("prime powers need increasing p >= 2 and "
                                 f"e >= 1, got {p}^{e}")
            while e and left % p == 0:  # p >= 2: at most log2(m) steps
                left, e, last = left // p, e - 1, p
            if e:  # p^e does not divide what is left of m
                break
        if left != 1 or e:
            raise ValueError(f"factorization {self.factorization} does not "
                             f"multiply to {self.m}")

    @classmethod
    def of(cls, m: int) -> "Modulus":
        """The modulus m with its factorization; raises TypeError when m is
        not an int, ValueError when m < 2, and factorize's SizeLimitError
        (a ValueError) for a cofactor of 1e12 or more not proven prime."""
        m = index(m)
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
        return cls(m=m, factorization=factorize(m))

    @property
    def is_prime_power(self) -> bool:
        return len(self.factorization) == 1

    def __str__(self) -> str:
        return str(self.m)


@dataclass(frozen=True)
class FinAbGroup:
    """Z^free_rank (+) Z/d_1 (+) ... (+) Z/d_k with d_1 | d_2 | ... | d_k.

    >>> FinAbGroup.from_cyclic_orders([2, 3])
    FinAbGroup(free_rank=0, torsion=(6,))
    >>> print(FinAbGroup.from_cyclic_orders([0, 2, 4]))
    Z (+) Z/2 (+) Z/4
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):  # index: a float raises TypeError
        if index(self.free_rank) < 0:
            raise ValueError("negative free rank")
        for d in map(index, self.torsion):
            if d < 2:
                raise ValueError(f"torsion order {d} not allowed in normal form")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {self.torsion} violates divisibility")

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FinAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, d: int) -> "FinAbGroup":
        """Z/d; d = 0 means Z, d = 1 the trivial group."""
        return cls.from_cyclic_orders([d])

    @classmethod
    def from_cyclic_orders(cls, orders) -> "FinAbGroup":
        """Normal form of a direct sum of cyclic groups.

        Order 0 stands for Z, order 1 for the trivial summand, and a float
        raises TypeError.  Each order merges into the chain from the top by
        Z/c (+) Z/d = Z/lcm (+) Z/gcd (Cohen, GTM 138, 2.4): no factoring.
        """
        rank, chain = 0, []
        for d in orders:
            d = abs(index(d))
            if d == 0:
                rank += 1
                continue
            i = len(chain)  # the gcd moves down until the entry below divides it
            while i and d > 1 and d % chain[i - 1]:
                i -= 1
                g = gcd(chain[i], d)
                chain[i], d = chain[i] // g * d, g
            if d > 1:
                chain.insert(i, d)
        return cls(rank, tuple(chain))

    @classmethod
    def from_primary_parts(cls, free_rank: int, parts: dict) -> "FinAbGroup":
        """Z^free_rank plus, for each prime p in `parts`, one Z/p^e per
        exponent e in parts[p] (exponent 0 adds nothing).  The i-th
        largest invariant factor multiplies the i-th largest p-power of
        every prime, so nothing is factorized.

        >>> print(FinAbGroup.from_primary_parts(0, {2: [1, 3], 3: [0, 2]}))
        Z/2 (+) Z/72
        """
        chains = [[p ** e for e in sorted(es, reverse=True) if e > 0]
                  for p, es in parts.items()]
        chain = []
        for i in range(max(map(len, chains), default=0)):
            f = 1
            for c in chains:
                if i < len(c):
                    f *= c[i]
            chain.append(f)
        chain.reverse()
        return cls(free_rank, tuple(chain))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Number of elements, or None for infinite groups."""
        if self.free_rank:
            return None
        return prod(self.torsion) if self.torsion else 1

    def exponent(self) -> int | None:
        """Smallest n > 0 killing the group, or None if no such n."""
        if self.free_rank:
            return None
        return self.torsion[-1] if self.torsion else 1

    def is_cyclic(self) -> bool:
        return self.free_rank == 0 and len(self.torsion) <= 1

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        return FinAbGroup.from_cyclic_orders(
            [0] * (self.free_rank + other.free_rank)
            + list(self.torsion) + list(other.torsion))

    def tensor_with_cyclic(self, m: int) -> "FinAbGroup":
        """self (x) Z/m: the free rank contributes copies of Z/m, each
        Z/d contributes Z/gcd(d, m)."""
        orders = [m] * self.free_rank + [gcd(d, m) for d in self.torsion]
        return FinAbGroup.from_cyclic_orders(orders)

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " (+) ".join(parts) if parts else "0"


def kernel_cokernel(dec: SmithDecomposition, modulus: Modulus | None = None):
    """(kernel, cokernel) of the decomposed matrix, read off its one
    Smith form: as a map Z^cols -> Z^rows when modulus is None, else as
    the induced map (Z/m)^cols -> (Z/m)^rows.

    Over Z the kernel is free of rank cols - rank and each invariant
    factor d adds Z/d to the cokernel.  Over Z/m the diagonal reduces
    the question to multiplication maps on cyclic groups: each d adds
    Z/gcd(d, m) to both sides, and each unused row (column) a full Z/m
    summand to the cokernel (kernel).  Since d_1 | d_2 | ..., both
    lists are already chains, so dropping the 1s leaves the normal form.

    >>> dec = smith_normal_form(IntMatrix([[2, 0], [0, 0]]))
    >>> [str(g) for g in kernel_cokernel(dec)]
    ['Z', 'Z (+) Z/2']
    >>> [str(g) for g in kernel_cokernel(dec, Modulus.of(4))]
    ['Z/2 (+) Z/4', 'Z/2 (+) Z/4']
    """
    rows, cols = dec.matrix.rows, dec.matrix.cols
    ds = dec.invariant_factors
    if modulus is None:
        return (FinAbGroup.free(cols - len(ds)),
                FinAbGroup(rows - len(ds), tuple(d for d in ds if d > 1)))
    m = modulus.m
    orders = tuple(g for d in ds if (g := gcd(d, m)) > 1)
    return (FinAbGroup(0, orders + (m,) * (cols - len(ds))),
            FinAbGroup(0, orders + (m,) * (rows - len(ds))))


def cokernel_int(matrix: IntMatrix) -> FinAbGroup:
    """Z^rows / image(matrix).

    >>> print(cokernel_int(IntMatrix([[2, 0], [0, 3]])))
    Z/6
    """
    return kernel_cokernel(smith_normal_form(matrix))[1]


def kernel_rank_int(matrix: IntMatrix) -> int:
    """Rank of the (free) kernel of the map Z^cols -> Z^rows: cols minus
    the number of nonzero Smith invariants; builds no cokernel."""
    return matrix.cols - smith_normal_form(matrix).rank


def _sparse_rows(matrix: IntMatrix, m: int) -> list:
    """The nonzero rows of `matrix` mod m, as dicts column -> entry."""
    cols = range(matrix.cols)
    out = []
    for r in map(matrix.row, range(matrix.rows)):
        row = {j: y for j in compress(cols, r) if (y := r[j] % m)}
        if row:
            out.append(row)
    return out


def _pivot_phase(rows: list, m: int, pk: int) -> int:
    """Eliminate on the sparse rows (column -> entry in [0, m)), each of
    whose entries pk divides, pivoting on entries x with gcd(x // pk, m)
    = 1 until none is left; return the number of pivots.

    Each step takes the shortest row that holds such an entry, to limit
    fill-in.  Clearing the pivot column by row operations leaves a pivot
    row that column operations clear without touching any other row, so
    the row is simply dropped.  `rows` is left holding the rest.
    """
    pivots = 0
    settled = set()  # ids of rows known to hold no pivot entry
    while rows:
        pivot_row = col = None
        for row in rows:
            if pivot_row is not None and len(row) >= len(pivot_row) \
                    or id(row) in settled:
                continue
            for j, x in row.items():
                if gcd(x // pk, m) == 1:
                    pivot_row, col = row, j
                    break
            else:
                settled.add(id(row))
        if pivot_row is None:
            break
        pivots += 1
        inverse = pow(pivot_row.pop(col) // pk, -1, m)
        kept = []
        for row in rows:
            if row is pivot_row:
                continue
            b = row.pop(col, None)
            if b is not None:
                c = b // pk * inverse % m
                for j, x in pivot_row.items():
                    y = (row.get(j, 0) - c * x) % m
                    if y:
                        row[j] = y
                    else:
                        row.pop(j, None)
                settled.discard(id(row))
                if not row:
                    continue
            kept.append(row)
        rows[:] = kept
    return pivots


def kernel_cokernel_mod(matrix: IntMatrix, modulus: Modulus):
    """(kernel, cokernel) of the induced map (Z/m)^cols -> (Z/m)^rows.

    Gaussian elimination on sparse rows (column -> entry in [0, m)),
    keeping no transforms.  One unit phase over Z/m first pivots on every
    entry prime to m it can reach; a unit mod m is a unit mod each prime
    power p^e of m, so each of its u pivots is an exponent 0 for every p.
    For each p^e the small residual is then reduced mod p^e, and phase
    k = 0, 1, ... pivots on its entries of valuation k, which divide
    every entry left, until no row is left.  Each pivot exponent k adds
    Z/p^k to both groups, and each unused column (row) a full Z/p^e to
    the kernel (cokernel).  `kernel_cokernel` and the oracle check it.

    >>> [str(g) for g in kernel_cokernel_mod(IntMatrix([[2, 0]]),
    ...                                      Modulus.of(12))]
    ['Z/2 (+) Z/12', 'Z/2']
    >>> [str(g) for g in kernel_cokernel_mod(IntMatrix([[4, 0], [0, 6]]),
    ...                                      Modulus.of(8))]
    ['Z/2 (+) Z/4', 'Z/2 (+) Z/4']
    """
    m = modulus.m
    rows = _sparse_rows(matrix, m)
    units = [0] * _pivot_phase(rows, m, 1)
    kernel_parts, cokernel_parts = {}, {}
    for p, e in modulus.factorization:
        q = p ** e
        if q == m:  # the unit phase was this prime's phase 0
            residual, k = rows, 1
        else:
            residual, k = [r for row in rows if (r := {
                j: y for j, x in row.items() if (y := x % q)})], 0
        ks = list(units)
        while residual:
            ks += [k] * _pivot_phase(residual, q, p ** k)
            k += 1
        kernel_parts[p] = ks + [e] * (matrix.cols - len(ks))
        cokernel_parts[p] = ks + [e] * (matrix.rows - len(ks))
    return (FinAbGroup.from_primary_parts(0, kernel_parts),
            FinAbGroup.from_primary_parts(0, cokernel_parts))


def cokernel_mod(matrix: IntMatrix, modulus: Modulus) -> FinAbGroup:
    """Cokernel of the induced map (Z/m)^cols -> (Z/m)^rows."""
    return kernel_cokernel_mod(matrix, modulus)[1]


def kernel_mod(matrix: IntMatrix, modulus: Modulus) -> FinAbGroup:
    """Kernel of the induced map (Z/m)^cols -> (Z/m)^rows."""
    return kernel_cokernel_mod(matrix, modulus)[0]


_ORACLE_BOUND = 10 ** 6


def _image_order(matrix: IntMatrix, g: int) -> int:
    """|im(M mod g)|: from {0}, each column c adds the cosets image + k.c
    of (Z/g)^rows until k.c falls back into the image; 1 when g = 1."""
    if g == 1:
        return 1
    image = {(0,) * matrix.rows}
    for column in map(matrix.transpose().row, range(matrix.cols)):
        c = tuple(x % g for x in column)
        base, kc = list(image), c
        # k.c lies in a coset base + i.c added earlier (i < k) only if
        # (k - i).c lies in base, so testing the grown set stops at the
        # order of c modulo base.
        while kc not in image:
            image.update(tuple((a + b) % g for a, b in zip(y, kc))
                         for y in base)
            kc = tuple((a + b) % g for a, b in zip(kc, c))
    return len(image)


def brute_force_mod_oracle(matrix: IntMatrix, modulus: Modulus):
    """Kernel and cokernel of the map (Z/m)^cols -> (Z/m)^rows, read off
    p^j-torsion counts by exhaustive enumeration.  It exists to certify
    both elimination routes on small instances, so it calls neither the
    Smith form nor `kernel_cokernel_mod`'s pivot phases, nor the route's
    `from_primary_parts`.

    For q with g = gcd(q, m), reduction mod g maps the image H onto
    H_g = im(M mod g), with kernel H ∩ g.(Z/m)^rows, so q kills
    ker(M mod g) in the kernel and as many cosets as coker(M mod g) has:

        #{x in kernel : q.x = 0} = g^cols / |H_g|,
        #{y + H in cokernel : q.y in H} = g^rows / |H_g|.

    |H_g| is the product of the |H_{p^j}| over the p^j exactly dividing
    g (Chinese remainders), each closed in (Z/p^j)^rows by
    `_image_order`: a composite m never enumerates (Z/m)^rows.  Requires
    sum((p^e)^max(rows, cols)) <= 1e6 over the p^e exactly dividing m.

    >>> [str(g) for g in brute_force_mod_oracle(IntMatrix([[2, 0]]),
    ...                                         Modulus.of(12))]
    ['Z/2 (+) Z/12', 'Z/2']
    """
    rows, cols = matrix.rows, matrix.cols
    prime_powers = [p ** e for p, e in modulus.factorization]
    size = sum(q ** max(rows, cols) for q in prime_powers)
    if size > _ORACLE_BOUND:
        raise SizeLimitError(f"oracle bound exceeded: the prime powers of "
                             f"{modulus} give {size} > {_ORACLE_BOUND} vectors")
    orders = {p ** j: _image_order(matrix, p ** j)
              for p, e in modulus.factorization for j in range(e + 1)}

    def killed(q, n):
        g = gcd(q, modulus.m)
        return g ** n // prod(orders[gcd(g, pe)] for pe in prime_powers)

    return (_classify_by_annihilator_counts(modulus, lambda q: killed(q, cols)),
            _classify_by_annihilator_counts(modulus, lambda q: killed(q, rows)))


def _classify_by_annihilator_counts(modulus: Modulus, count_killed) -> FinAbGroup:
    """Reconstruct a finite abelian group of exponent dividing m from the
    sizes of its p^j-torsion subgroups.

    count_killed(q) must return #{x in G : q.x = 0}.  For each prime p,
    log_p of the p^j-torsion count as a function of j determines the
    multiset of exponents in the p-primary decomposition.  A count that
    is not a power of p, 0 included, raises AssertionError.
    """
    orders = []
    for p, e in modulus.factorization:
        logs = []
        for j in range(e + 1):
            c = count_killed(p ** j)
            k = 0
            while c > 1 and c % p == 0:
                c //= p
                k += 1
            if c != 1:
                raise AssertionError("torsion subgroup size is not a p-power")
            logs.append(k)
        # lam[j] = number of cyclic p-power factors with exponent >= j
        lam = [logs[j] - logs[j - 1] for j in range(1, e + 1)] + [0]
        orders += [p ** j for j in range(1, e + 1)
                   for _ in range(lam[j - 1] - lam[j])]
    return FinAbGroup.from_cyclic_orders(orders)
