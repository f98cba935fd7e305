"""Symbolic Leavitt path algebra engine.

Elements are exact-coefficient linear combinations of monomials s.t*
(a path followed by a reversed starred path with the same endpoint),
kept in a confluent normal form:

* products of monomials use the relation a*.b = delta_ab e (prefix
  cancellation between the starred and unstarred path);
* a junction pair g.g* whose arrow g is the designated "special" arrow
  of its source vertex is rewritten to e_v - sum of the other a.a*
  pairs at v, so no normal monomial has both sides ending in the
  special arrow.

Each rewrite either shortens a monomial by two or produces junctions
that are final, so normalization terminates; the choice of special
arrow (smallest arrow id at each non-sink) only fixes which basis of
the same algebra we use.

Coefficients are exact rationals, stored fraction-free: an Element
holds an int numerator per monomial over one positive denominator, in
lowest terms (the gcd of the denominator and every numerator is 1, and
zero has denominator 1).  Sums, products, negation, the involution and
degree splitting run on ints alone, with one gcd reduction per result
whose denominator is not 1.  Scalars enter through
`LeavittAlgebra.coerce` (an int while integral, else a Fraction), and
`coefficient()`/`terms()` convert back the same way, so an integral
coefficient is always an int.  No float appears.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import NamedTuple

from .groups import SizeLimitError
from .quiver import Quiver, require_no_sources


class Path(NamedTuple):
    """A composable arrow sequence; empty paths sit at their vertex."""

    source: str
    target: str
    arrows: tuple

    def __len__(self) -> int:
        return len(self.arrows)


class Monomial(NamedTuple):
    left: Path
    right: Path

    @property
    def degree(self) -> int:
        return len(self.left) - len(self.right)


# The hot Path and Monomial constructions: tuple.__new__ skips the
# NamedTuple __new__ written in Python, and builds the same tuple.
_new = tuple.__new__


def _sort_key(mon: Monomial):
    l, r = mon.left, mon.right
    nl = len(l.arrows)
    return (nl + len(r.arrows), nl, l.arrows, l.source, r.arrows, r.source)


class LeavittAlgebra:
    """Shared context for one quiver: rewrite tables and constructors.

    The tables are built once and never mutated, so a single instance
    can serve any number of concurrent computations.
    """

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.vertices = tuple(quiver.vertices)
        self._src = {a.name: a.source for a in quiver.arrows}
        self._tgt = {a.name: a.target for a in quiver.arrows}
        by_source = {v: [] for v in self.vertices}
        by_target = {v: [] for v in self.vertices}
        for a in quiver.arrows:
            by_source[a.source].append(a.name)
            by_target[a.target].append(a.name)
        self._out = {v: tuple(sorted(names)) for v, names in by_source.items()}
        self._in = {v: tuple(sorted(names)) for v, names in by_target.items()}
        # Smallest arrow id at each non-sink: the CK junction pivot.
        self.special = {v: out[0] for v, out in self._out.items() if out}
        # special g -> (its source v, ((h, target of h) for the other
        # arrows h at v)): all that one junction rewrite reads.
        self._junction = {
            g: (v, tuple((h, self._tgt[h]) for h in self._out[v] if h != g))
            for v, g in self.special.items()}

    @staticmethod
    def coerce(c):
        """A scalar as a coefficient: an int while integral, else a
        Fraction; anything else (a float, say) raises TypeError."""
        if isinstance(c, Fraction):
            return c.numerator if c.denominator == 1 else c
        return index(c)

    # -- paths -----------------------------------------------------------

    def empty_path(self, vertex: str) -> Path:
        if vertex not in self._out:
            raise ValueError(f"unknown vertex {vertex!r}")
        return Path(vertex, vertex, ())

    def path(self, arrow_names) -> Path:
        names = tuple(arrow_names)
        if not names:
            raise ValueError("use empty_path for trivial paths")
        for a, b in zip(names, names[1:]):
            if self._tgt[a] != self._src[b]:
                raise ValueError(f"arrows {a!r} and {b!r} do not compose")
        return Path(self._src[names[0]], self._tgt[names[-1]], names)

    # -- monomials ---------------------------------------------------------

    @staticmethod
    def _mul_monomials(m1: Monomial, m2: Monomial) -> Monomial | None:
        """Product before junction rewriting; None means zero: t1* s2
        cancels when one of t1, s2 is a prefix of the other."""
        (l1, r1), (l2, r2) = m1, m2
        if r1.source != l2.source:
            return None
        a, b = r1.arrows, l2.arrows
        k, j = len(a), len(b)
        if k <= j:
            if b[:k] != a:
                return None
            return _new(Monomial, (
                _new(Path, (l1.source, l2.target, l1.arrows + b[k:])), r2))
        if a[:j] != b:
            return None
        return _new(Monomial, (
            l1, _new(Path, (r2.source, r1.target, r2.arrows + a[j:]))))

    def _normalize(self, terms, implicit=None) -> dict:
        """Rewrite loosely-formed (monomial, coeff) terms to normal form.

        c.s'g.(t'g)*, g special at v, is c.s'.t'* minus c.s'h.(t'h)* over
        the other arrows h at v.  Those summands are normal, so they go
        straight into the result; one walk per term strips its common
        special-arrow suffix that way and adds the stripped monomial last.

        `implicit`, {length m: set of endpoints w}, names normal monomials
        s.t* with |s| = |t| = m ending at w that the result leaves out:
        such a summand is never built.  Its key alone decides that, so
        the result is the full normal form less those terms.
        """
        junction, done, skip = self._junction, {}, implicit or {}
        for mon, c in terms:
            left, right = mon
            la, ra, v = left.arrows, right.arrows, None
            while la and ra and la[-1] == ra[-1] and la[-1] in junction:
                v, others = junction[la[-1]]
                la, ra = la[:-1], ra[:-1]
                ends = skip.get(len(la) + 1, ()) \
                    if skip and len(la) == len(ra) else ()
                for h, w in others:
                    if w in ends:
                        continue
                    key = _new(Monomial, (
                        _new(Path, (left.source, w, la + (h,))),
                        _new(Path, (right.source, w, ra + (h,)))))
                    done[key] = done.get(key, 0) - c
            if skip and len(la) == len(ra) and (
                    left.target if v is None else v) in skip.get(len(la), ()):
                continue
            if v is not None:
                mon = _new(Monomial, (_new(Path, (left.source, v, la)),
                                      _new(Path, (right.source, v, ra))))
            done[mon] = done.get(mon, 0) + c
        if len(terms) == 1 and terms[0][1]:
            # One nonzero term cannot cancel: each strip step's summands
            # have their own lengths, and the stripped monomial is shorter.
            return done
        return {m: c for m, c in done.items() if c}

    # -- element constructors ---------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        terms = {}
        for v in self.vertices:
            p = self.empty_path(v)
            terms[Monomial(p, p)] = 1
        return Element(self, terms)

    def vertex(self, v: str) -> "Element":
        p = self.empty_path(v)
        return Element(self, {Monomial(p, p): 1})

    def arrow(self, name: str) -> "Element":
        if name not in self._src:
            raise ValueError(f"unknown arrow {name!r}")
        p = self.path([name])
        return Element(self, {Monomial(p, self.empty_path(p.target)): 1})

    def element(self, terms) -> "Element":
        """Element from (monomial, coefficient) pairs, normalized over
        the coefficients' common denominator."""
        pairs = [(m, self.coerce(c)) for m, c in terms]
        den = lcm(*(c.denominator for _, c in pairs))
        return _reduced(self, self._normalize(
            [(m, c.numerator * (den // c.denominator)) for m, c in pairs]),
            den)

    def render_monomial(self, mon: Monomial) -> str:
        if not mon.left.arrows and not mon.right.arrows:
            # On a one-vertex quiver the lone idempotent is the unit.
            if len(self.vertices) == 1:
                return "1"
            return f"e({mon.left.source})"
        bits = list(mon.left.arrows)
        bits += [a + "*" for a in reversed(mon.right.arrows)]
        return " ".join(bits)


class Element:
    """Immutable normal-form element of a Leavitt path algebra: int
    numerators `_terms` over the denominator `_den`, in lowest terms."""

    __slots__ = ("algebra", "_terms", "_den")

    def __init__(self, algebra: LeavittAlgebra, terms: dict, den: int = 1):
        self.algebra = algebra
        self._terms = terms
        self._den = den

    def _value(self, num: int):
        """num / _den as a coefficient: an int while integral."""
        q, r = divmod(num, self._den)
        return Fraction(num, self._den) if r else q

    def terms(self):
        """Sorted (monomial, coefficient) pairs."""
        value = self._value
        return tuple(sorted(((m, value(c)) for m, c in self._terms.items()),
                            key=lambda t: _sort_key(t[0])))

    def coefficient(self, mon: Monomial):
        """An int while integral, else a Fraction."""
        return self._value(self._terms.get(mon, 0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _check_partner(self, other: "Element"):
        if self.algebra.quiver != other.algebra.quiver:
            raise ValueError("elements live over different quivers")

    def __add__(self, other: "Element") -> "Element":
        self._check_partner(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            out, f2, den = dict(self._terms), 1, d1
        else:
            g = gcd(d1, d2)
            f1, f2 = d2 // g, d1 // g
            out, den = {m: c * f1 for m, c in self._terms.items()}, d1 * f1
        for m, c in other._terms.items():
            s = out.get(m, 0) + c * f2
            if not s:
                out.pop(m, None)
            else:
                out[m] = s
        return _reduced(self.algebra, out, den)

    def __neg__(self) -> "Element":
        return Element(self.algebra, {m: -c for m, c in self._terms.items()},
                       self._den)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __mul__(self, other):
        alg = self.algebra
        if not isinstance(other, Element):
            c = alg.coerce(other)
            if not c:
                return alg.zero()
            k = c.numerator
            return _reduced(alg, {m: x * k for m, x in self._terms.items()},
                            self._den * c.denominator)
        self._check_partner(other)
        raw = []
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                prod = alg._mul_monomials(m1, m2)
                if prod is not None:
                    raw.append((prod, c1 * c2))
            if len(raw) > _PRODUCT_LIMIT:
                raise SizeLimitError(
                    f"product would exceed {_PRODUCT_LIMIT} terms")
        return _reduced(alg, alg._normalize(raw), self._den * other._den)

    def __rmul__(self, scalar):
        return self * scalar

    def star(self) -> "Element":
        """The involution sending s.t* to t.s* (coefficients are fixed)."""
        return Element(self.algebra,
                       {Monomial(m.right, m.left): c
                        for m, c in self._terms.items()}, self._den)

    def degree_components(self) -> dict:
        """Split into homogeneous parts keyed by degree."""
        alg, den = self.algebra, self._den
        split: dict = {}
        for m, c in self._terms.items():
            split.setdefault(m.degree, {})[m] = c
        return {d: _reduced(alg, terms, den)
                for d, terms in sorted(split.items())}

    def is_homogeneous(self, degree: int) -> bool:
        return {m.degree for m in self._terms} <= {degree}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra.quiver == other.algebra.quiver \
            and self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self.algebra.quiver, self.terms()))

    def __repr__(self) -> str:
        return f"<Element {render_element(self)}>"


def _reduced(alg: LeavittAlgebra, terms: dict, den: int) -> Element:
    """The element terms/den in lowest terms; den > 0, and terms holds
    no zero numerator."""
    if den != 1:
        g = gcd(den, *terms.values())  # den itself for zero
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
            den //= g
    return Element(alg, terms, den)


def render_element(a: Element) -> str:
    """Canonical text form; the unit sum of idempotents prints as 1."""
    alg = a.algebra
    if a.is_zero:
        return "0"
    if a == alg.one():
        return "1"
    pieces = []
    for i, (mon, c) in enumerate(a.terms()):
        neg = c < 0
        mag = -c if neg else c
        body = alg.render_monomial(mon)
        if mag == 1:
            text = body
        elif body == "1":
            text = str(mag)
        else:
            text = f"{mag} {body}"
        if i == 0:
            pieces.append(("- " if neg else "") + text)
        else:
            pieces.append(("- " if neg else "+ ") + text)
    return " ".join(pieces)


@dataclass(frozen=True)
class CornerData:
    """The corner-skew structure: t+ = sum of one chosen incoming arrow
    per vertex, t- its star, e = t+ t-."""

    t_plus: Element
    t_minus: Element
    designated: tuple  # ((vertex, arrow), ...) in vertex order

    @property
    def e(self) -> Element:
        """The corner idempotent t+ t-, multiplied out on each read."""
        return self.t_plus * self.t_minus


def corner_data(alg: LeavittAlgebra) -> CornerData:
    """Designated arrows are the smallest arrow id ending at each vertex.

    Needs a source-free quiver so the choice exists everywhere; the
    defining identities are re-checked by actual multiplication.
    """
    require_no_sources(alg.quiver)
    designated = tuple((v, alg._in[v][0]) for v in alg.vertices)
    t_plus = alg.zero()
    for _, arrow in designated:
        t_plus = t_plus + alg.arrow(arrow)
    t_minus = t_plus.star()
    if t_minus * t_plus != alg.one():
        raise AssertionError("t- t+ != 1; designated arrow table is broken")
    return CornerData(t_plus=t_plus, t_minus=t_minus, designated=designated)


def corner_phi(a: Element, corner: CornerData) -> Element:
    """The corner endomorphism x -> t+ x t-."""
    if not a.is_homogeneous(0):
        warnings.warn("corner endomorphism applied to a non-degree-0 element",
                      stacklevel=2)
    return corner.t_plus * a * corner.t_minus


@dataclass(frozen=True)
class CornerAxiomReport:
    checks: tuple  # ((name, ok), ...)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    @property
    def failures(self) -> tuple:
        return tuple(name for name, ok in self.checks if not ok)


def random_degree_zero_element(alg: LeavittAlgebra, rng,
                               max_len: int = 2) -> Element:
    """Random degree-0 element of 1 to 3 terms built from backward walks."""
    coeff_pool = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                  Fraction(-2, 3)]
    terms = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(0, max_len)
        w = rng.choice(alg.vertices)
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
        terms.append((Monomial(sides[0], sides[1]), rng.choice(coeff_pool)))
    return alg.element(terms)


def verify_corner_axioms(alg: LeavittAlgebra, samples: int = 25,
                         seed: int = 0) -> CornerAxiomReport:
    """Check the corner-skew identities on the quiver's corner data.

    Beyond the two defining relations, the commutation rules
    a.t- = t-.phi(a) and t+.a = phi(a).t+ and multiplicativity of phi
    are tested on pseudo-random degree-0 elements.
    """
    corner = corner_data(alg)
    e = corner.e
    rng = random.Random(seed)
    checks = [
        ("t_minus . t_plus == 1", corner.t_minus * corner.t_plus == alg.one()),
        ("e is idempotent", e * e == e),
        ("phi(1) == e", corner_phi(alg.one(), corner) == e),
    ]
    for i in range(samples):
        a = random_degree_zero_element(alg, rng)
        b = random_degree_zero_element(alg, rng)
        phi_a = corner_phi(a, corner)
        phi_b = corner_phi(b, corner)
        checks.append((f"sample {i}: a.t- == t-.phi(a)",
                       a * corner.t_minus == corner.t_minus * phi_a))
        checks.append((f"sample {i}: t+.a == phi(a).t+",
                       corner.t_plus * a == phi_a * corner.t_plus))
        checks.append((f"sample {i}: phi(a)phi(b) == phi(ab)",
                       phi_a * phi_b == corner_phi(a * b, corner)))
    return CornerAxiomReport(checks=tuple(checks))


# The most raw terms one product of elements may expand to.
_PRODUCT_LIMIT = 20000


def _paths_by_target(alg: LeavittAlgebra, max_len: int, limit: int):
    """[length][target vertex] -> tuple of paths, sorted by arrow ids."""
    levels = [{v: (alg.empty_path(v),) for v in alg.vertices}]
    total = len(alg.vertices)
    for _ in range(max_len):
        nxt: dict = {}
        for paths in levels[-1].values():
            for p in paths:
                for a in alg._out[p.target]:
                    q = _new(Path, (p.source, alg._tgt[a], p.arrows + (a,)))
                    nxt.setdefault(q.target, []).append(q)
                    total += 1
                    if total > limit:
                        raise SizeLimitError(
                            f"path enumeration would exceed {limit} paths")
        levels.append({w: tuple(sorted(ps, key=lambda p: (p.arrows, p.source)))
                       for w, ps in nxt.items()})
    return levels
