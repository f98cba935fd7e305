"""The four benchmark workloads: seeded inputs, the op list of one round,
warm-up ops, known-failure ops and the independent check of every op.

Every op is a closure over inputs made here from the seed; the program
only ever sees quiver text, quiver objects parsed from that text, files
and argv.  Each op runs in every round or in every third one, and a run
is a whole number of rounds in which every op has run, so the op mix
does not depend on how fast the machine is.  An op may get new inputs in
every round (`Op.fresh`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Any, Callable

from leavittk import algebra, cli, filtration, groups, ktheory, quiver
from leavittk.algebra import Monomial

WORKLOADS = ("tables-ladder", "filtration-levels", "oracle-certify",
             "cli-requests")

# Rendered outputs of every distinct op at seed 0, recorded at the commit
# that introduced the benchmark.  A mismatch means an output changed.
DEFAULT_SEED = 0
SEED0_DIGESTS = {
    "tables-ladder":
        "8bffa8541ddaca40e7c08189123a25185e0e3ef966fd139ffc3bf0a531378de1",
    "filtration-levels":
        "dc7c81c3ff1e55f5c8fb52a44abf519bdb086e3b22ed9e0a20c2dc039afd28a5",
    "oracle-certify":
        "9d93daa954e7d5f1944217678d23bf9f316ab47e8cd806e3fb0e610c3d5d4e55",
    "cli-requests":
        "0cf3840a6b02a697b305cf19f0b3f56ab760e6e7d70e32be07cfeca774948861",
}


@dataclass
class Op:
    op_id: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    render: Callable[[Any], str]
    every: int = 1      # runs in the rounds r with r % every == phase
    phase: int = 0
    # If set, fresh(r) is the op with new inputs from the same generator
    # that runs in round r, made outside the timed interval; this op's own
    # inputs are those of round 0.  Otherwise every round repeats them.
    fresh: "Callable[[int], Op] | None" = None


@dataclass
class KnownFailure:
    """An op that fails at the commit that introduced the benchmark.

    It runs once per run, after the timed phase, under a short time
    limit.  `expected` names how it fails today; once it ends within the
    limit and passes its check, it counts as fixed.
    """

    op: Op
    expected: str
    reason: str


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    warmup: list
    known: list = field(default_factory=list)

    @property
    def cycle(self) -> int:
        """Rounds after which every op has run once."""
        return max(op.every for op in self.ops)


# -- generated quivers -------------------------------------------------------


def quiver_text(vertices, arrows) -> str:
    lines = ["vertices " + " ".join(vertices)]
    lines += [f"arrow e{i} {s} {t}" for i, (s, t) in enumerate(arrows)]
    return "\n".join(lines) + "\n"


def random_source_free(rng: random.Random, v: int, apv: int, sinks: int):
    """v vertices, the first `sinks` of them sinks, every vertex with an
    incoming arrow, about `apv` arrows leaving each non-sink."""
    vertices = [f"v{i}" for i in range(v)]
    nonsinks = vertices[sinks:]
    arrows = [(rng.choice(nonsinks), t) for t in vertices]
    for s in nonsinks:
        if all(a[0] != s for a in arrows):
            arrows.append((s, rng.choice(vertices)))
    while len(arrows) < apv * len(nonsinks):
        arrows.append((rng.choice(nonsinks), rng.choice(vertices)))
    rng.shuffle(vertices)
    return vertices, arrows


def dense_quiver(rng: random.Random, v: int, most: int):
    """Sink-free: 1..most parallel arrows for every ordered vertex pair."""
    vertices = [f"v{i}" for i in range(v)]
    arrows = [(s, t) for s in vertices for t in vertices
              for _ in range(rng.randint(1, most))]
    return vertices, arrows


def small_quiver(rng: random.Random, v: int, sink_free: bool, extra: int = 8):
    """Criterion-3 shape: every vertex has an incoming arrow (and an
    outgoing one when sink_free), plus a few random extras."""
    vertices = [f"v{i}" for i in range(v)]
    arrows = [(rng.choice(vertices), t) for t in vertices]
    if sink_free:
        for s in vertices:
            if all(a[0] != s for a in arrows):
                arrows.append((s, rng.choice(vertices)))
    while len(arrows) < extra and rng.random() < 0.6:
        arrows.append((rng.choice(vertices), rng.choice(vertices)))
    return vertices, arrows


def rose_arrows(petals: int):
    return ["w"], [("w", "w")] * petals


def jacobson_arrows(n: int):
    return ["1", "2"], [("1", "1")] * (n + 1) + [("1", "2")] * (n + 1)


def parse(vertices, arrows) -> quiver.OrderedQuiver:
    return quiver.order_sinks_first(
        quiver.parse_quiver(quiver_text(vertices, arrows)))


# -- checks and renderings shared by several workloads ------------------------


def render_table(t) -> str:
    return f"m={t.modulus.m};" + ";".join(
        f"{n}:{t.group_at(n)}" for n in t.degrees())


def _bareiss_det(q) -> int:
    return ktheory.leavitt_matrix(q).determinant()


def check_table(q, m: int, t, closed=None, det=None) -> "str | None":
    """Order identity, parity structure, exponent, closed forms and, on
    sink-free quivers, vanishing exactly when gcd(det, m) == 1."""
    coker, ker = t.group_at(0), t.group_at(1)
    rows, cols = q.v, q.v - q.v_prime
    if not (coker.is_finite and ker.is_finite):
        return "mod-m groups must be finite"
    if coker.order() * m ** cols != ker.order() * m ** rows:
        return f"|coker| m^cols != |ker| m^rows: {coker} {ker} m={m}"
    if m % coker.exponent() or m % ker.exponent():
        return "exponent does not divide m"
    for n in t.degrees():
        want = (groups.FinAbGroup.trivial() if n < 0
                else coker if n % 2 == 0 else ker)
        if t.group_at(n) != want:
            return f"degree {n} breaks the parity pattern"
    if t.modulus.m != m:
        return "wrong modulus"
    if closed is not None and closed(m) != (coker, ker):
        return f"closed form {closed(m)} != ({coker}, {ker})"
    if q.v_prime == 0:
        d = det if det is not None else _bareiss_det(q)
        if coker.is_trivial != (gcd(d, m) == 1):
            return f"vanishing mod {m} disagrees with det {d}"
    return None


def rose_closed(petals: int):
    def closed(m):
        g = groups.FinAbGroup.from_cyclic_orders([gcd(petals - 1, m)])
        return g, g
    return closed


def jacobson_closed(m):
    return groups.FinAbGroup.cyclic(m), groups.FinAbGroup.trivial()


# -- tables-ladder ------------------------------------------------------------

# (label, vertices, arrows per vertex, sinks, instances, op kinds).  The
# divisibility op only runs on sink-free rungs with v <= 20 and few arrows,
# where the Hadamard bound keeps |det| below 2^40 so trial division of the
# determinant ends; the dense rung's divisibility op is a known failure.
# Tables at v=100 with 10 arrows per vertex, v=150 and v=300 take 0.5-6 s
# each and depend strongly on the instance, so one of them would set
# ops_per_s alone; the one-shot probe times them instead.  The LES, which
# reduces the same matrix once per degree, stops at v=40 and the dense
# rung: at v >= 70 it takes 0.1-0.3 s, runs only a few times in a run, and
# with a new quiver each time it moved ops_per_s by about 20% from seed to
# seed.
LADDER = (
    ("v10", 10, 3, 0, 3, ("parse", "pp", "comp", "les", "div")),
    ("v12s", 12, 3, 2, 2, ("parse", "pp", "comp", "les")),
    ("v20", 20, 3, 0, 2, ("parse", "pp", "comp", "les", "div")),
    ("v40s", 40, 5, 4, 4, ("parse", "pp", "comp", "les")),
    ("v70", 70, 4, 0, 3, ("parse", "pp", "comp")),
    ("v100s", 100, 3, 10, 1, ("parse", "pp", "comp")),
)
PRIME_POWERS = (4, 8, 9, 25, 27)
COMPOSITES = (6, 10, 12, 15, 18)
DIV_PRIMES = ((2, 1), (3, 1), (5, 1), (7, 2))
DENSE_V, DENSE_MOST = 20, 40


def _render_div(r) -> str:
    return (f"det={r.determinant};primes={r.determinant_primes};"
            + "|".join(f"{e.prime}^{e.power}:{e.vanishes}:"
                       f"{render_table(e.table)}:{e.conclusions}"
                       for e in r.entries))


# op kind of each tables op, and how its result renders for the digest
TABLES_KINDS = {
    "parse": ("parse", quiver.render_quiver),
    "pp": ("table", render_table),
    "comp": ("table", render_table),
    "les": ("les", lambda r: "|".join(f"{e.degree}:{e.sub}:{e.quotient}:"
                                      f"{e.resolved}" for e in r)),
    "div": ("divisibility", _render_div),
}


def _tables_ops(label, vertices, arrows, kinds, rng, closed=None):
    q = parse(vertices, arrows)
    pp, comp = rng.choice(PRIME_POWERS), rng.choice(COMPOSITES)
    text = quiver_text(vertices, arrows)
    sinks = [v for v in vertices if all(a[0] != v for a in arrows)]
    want_vertices = tuple(sinks + [v for v in vertices if v not in sinks])
    ops = []

    def check_parse(r):
        if r.vertices != want_vertices or r.num_sinks != len(sinks):
            return "sinks-first order differs from the generator's"
        if [(a.source, a.target) for a in r.arrows] != list(arrows):
            return "arrows differ from the generator's"
        return None

    def check_div(r):
        d = _bareiss_det(q)
        if r.sink_free != (q.v_prime == 0):
            return "sink_free flag wrong"
        if r.sink_free and r.determinant != d:
            return f"determinant {r.determinant} != Bareiss {d}"
        if r.sink_free and d != 0:
            rest = abs(d)
            for p in r.determinant_primes:
                if rest % p:
                    return f"{p} does not divide det"
                while rest % p == 0:
                    rest //= p
            if rest != 1:
                return "determinant primes miss a factor"
        for e in r.entries:
            if r.sink_free and e.vanishes != (d % e.prime != 0):
                return f"vanishing at {e.prime} disagrees with det"
            err = check_table(q, e.modulus.m, e.table, closed, d)
            if err:
                return err
        return None

    def check_les(r):
        table = ktheory.mod_l_ktheory(q, groups.Modulus.of(pp))
        if [e.degree for e in r] != list(table.degrees()):
            return "LES window differs from the table's"
        for e in r:
            if e.resolved != table.group_at(e.degree):
                return f"LES degree {e.degree} != table"
        return None

    for kind in kinds:
        if kind == "parse":
            call = lambda: quiver.order_sinks_first(quiver.parse_quiver(text))
            check = check_parse
        elif kind in ("pp", "comp"):
            m = pp if kind == "pp" else comp
            call = lambda m=m: ktheory.mod_l_ktheory(q, groups.Modulus.of(m))
            check = lambda r, m=m: check_table(q, m, r, closed)
        elif kind == "les":
            call = lambda: ktheory.les_table_for_quiver(q, groups.Modulus.of(pp))
            check = check_les
        elif kind == "div":
            call = lambda: ktheory.divisibility_report(q, DIV_PRIMES)
            check = check_div
        op_kind, render = TABLES_KINDS[kind]
        ops.append(Op(f"{label}.{kind}", op_kind, call, check, render))
    return ops


# Tables on the big rungs run in every THIRD-th round, the other ops in
# every round, so the many short ops get more runs in a run and their
# time is steadier on a noisy host.
THIRD = 3
BIG_RUNGS = ("v40s", "v70", "v100s", "dense")


def _tables_period(op_id: str) -> int:
    rung, kind = op_id.split("#")[0].split(".")[0], op_id.rsplit(".", 1)[1]
    return THIRD if rung in BIG_RUNGS and kind != "parse" else 1


def _stagger(ops):
    """Give the ops that share a period consecutive phases, so each
    round carries about the same share of them."""
    seen: dict = {}
    for op in ops:
        op.phase = seen.get(op.every, 0) % op.every
        seen[op.every] = op.phase + 1


def _fresh_tables_op(seed: int, label: str, kind: str, generate) -> Op:
    """An op on a random rung that gets a new quiver from `generate` in
    every round, so no result can be reused from an earlier round.  Its
    own call and check are those of its round-0 instance."""
    def instance(r: int) -> Op:
        rng = random.Random(f"tables-ladder/{seed}/{label}.{kind}/{r}")
        vertices, arrows = generate(rng)
        return _tables_ops(label, vertices, arrows, (kind,), rng)[0]

    return Op(f"{label}.{kind}", TABLES_KINDS[kind][0],
              lambda: instance(0).call(),
              lambda r: instance(0).check(r), TABLES_KINDS[kind][1],
              fresh=instance)


def build_tables(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"tables-ladder/{seed}")
    ops = []
    for k in range(1, 7):
        ops += _tables_ops(f"rose{k}", *rose_arrows(k),
                           ("parse", "pp", "comp", "les", "div"), rng,
                           closed=rose_closed(k))
    for n in range(4):
        ops += _tables_ops(f"jac{n}", *jacobson_arrows(n),
                           ("parse", "pp", "comp", "les"), rng,
                           closed=jacobson_closed)
    for label, v, apv, sinks, count, kinds in LADDER:
        for i in range(count):
            ops += [_fresh_tables_op(
                seed, f"{label}#{i}", kind,
                lambda r, v=v, apv=apv, sinks=sinks:
                    random_source_free(r, v, apv, sinks))
                    for kind in kinds]
    dense_ops = [_fresh_tables_op(seed, "dense", kind,
                                  lambda r: dense_quiver(r, DENSE_V,
                                                         DENSE_MOST))
                 for kind in ("parse", "pp", "comp", "les", "div")]
    ops += dense_ops[:-1]
    known = [KnownFailure(
        dense_ops[-1].fresh(0), "timeout",
        "divisibility_report trial-divides the ~130-bit determinant of the "
        "dense sink-free rung in factorize (ROADMAP 3a)")]
    for op in ops:
        op.every = _tables_period(op.op_id)
    _stagger(ops)
    warmup = [op for op in ops if op.op_id.startswith("rose2.")]
    return Workload("tables-ladder", seed, ops, warmup, known)


# -- filtration-levels ----------------------------------------------------------

NAMED_FILTRATION = (  # (label, vertices, arrows, highest level)
    ("toeplitz", *jacobson_arrows(0), 5),
    ("jac1", *jacobson_arrows(1), 5),
    ("jac2", *jacobson_arrows(2), 4),
    ("rose2", *rose_arrows(2), 5),
    ("rose3", *rose_arrows(3), 5),
    ("rose4", *rose_arrows(4), 3),
    ("jac3", *jacobson_arrows(3), 3),
    ("rose5", *rose_arrows(5), 2),
)
RANDOM_FILTRATION_QUIVERS = 3
# Levels stop at this many spanning monomials, below the SizeLimitError
# edge for rose3 (level 5 has 59,049 and takes about 2 s; the probe times
# it).  One op that long would be most of every round and leave the short
# ops few repeats.
NAMED_SPAN_LIMIT = 15000
# Random quivers stay cheaper than the named ones, so the tail of a round
# is made of the same named ops for every seed.  Each one is drawn again
# until its top level has at most RANDOM_FILTRATION_SPAN spanning
# monomials, so every seed has the same number of ops and the median op
# has the same rank.
RANDOM_FILTRATION_TOP, RANDOM_FILTRATION_SPAN = 3, 60
PRODUCTS_PER_QUIVER = 20
# Each product op multiplies several random triples, so its cost varies
# less from seed to seed than one product's would.
TRIPLES_PER_PRODUCT_OP = 6
AXIOM_SAMPLES = 4
MAX_PATH, MAX_TERMS = 3, 4


def element_shape(e: int) -> tuple:
    """Path lengths of the terms of the e-th random element of a product
    op.  Every seed gets the same shapes, so a product op costs about the
    same for every seed; only the paths and coefficients are random."""
    return tuple((e + t) % (MAX_PATH + 1) for t in range(1 + e % MAX_TERMS))


def _span(q, n: int) -> int:
    """Spanning monomials of filtration stage n: the sum of squares of
    its block sizes."""
    return filtration.block_profile(q, n).sum_of_squares


def _filtration_op(label, q, n):
    def check(r):
        dim, incl, phi = r
        profile = filtration.block_profile(q, n)
        if dim != profile.sum_of_squares:
            return f"dim {dim} != sum of squares {profile.sum_of_squares}"
        if incl != filtration.expected_inclusion_matrix(q, n):
            return "inclusion matrix differs from its block form"
        if phi != filtration.expected_phi_matrix(q, n):
            return "corner matrix differs from its block form"
        if filtration.stabilized_block_difference(q, n) \
                != ktheory.leavitt_matrix(q):
            return "stabilized block difference != leavitt_matrix"
        return None

    return Op(f"{label}.L{n}", "filtration",
              lambda: (filtration.filtration_span_dim(q, n),
                       filtration.inclusion_k0_matrix(q, n),
                       filtration.phi_k0_matrix(q, n)),
              check, lambda r: f"{r[0]};{r[1].tolists()};{r[2].tolists()}")


def random_degree_zero(alg, q, rng, lengths):
    """Sum of s.t* with |s| = |t| built from backward walks, so the
    element is homogeneous of degree 0; term k has paths of length
    lengths[k]."""
    into: dict = {}
    for a in q.arrows:
        into.setdefault(a.target, []).append(a)
    pool = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
            Fraction(-2, 3))
    out = []
    for d in lengths:
        w = rng.choice(q.vertices)
        sides = []
        for _ in range(2):
            names, v = [], w
            for _ in range(d):
                a = rng.choice(into[v])
                names.append(a.name)
                v = a.source
            names.reverse()
            sides.append(alg.path(names) if names else alg.empty_path(w))
        out.append((Monomial(sides[0], sides[1]), rng.choice(pool)))
    return alg.element(out)


def build_filtration(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"filtration-levels/{seed}")
    quivers = [(label, parse(vs, arrows), top)
               for label, vs, arrows, top in NAMED_FILTRATION]
    for i in range(RANDOM_FILTRATION_QUIVERS):
        while True:
            q = parse(*small_quiver(rng, rng.randint(2, 3), sink_free=False,
                                    extra=6))
            if _span(q, RANDOM_FILTRATION_TOP) <= RANDOM_FILTRATION_SPAN:
                break
        quivers.append((f"random{i}", q, RANDOM_FILTRATION_TOP))
    filtration_ops = [_filtration_op(label, q, n)
                      for label, q, top in quivers
                      for n in range(1, top + 1)
                      if _span(q, n) <= NAMED_SPAN_LIMIT]

    product_ops = []
    for label, q, _ in quivers:
        if label not in ("toeplitz", "jac1", "jac2", "rose3"):
            continue
        alg = algebra.LeavittAlgebra(q)
        for i in range(PRODUCTS_PER_QUIVER):
            triples = [[random_degree_zero(alg, q, rng,
                                           element_shape(3 * j + k))
                        for k in range(3)]
                       for j in range(TRIPLES_PER_PRODUCT_OP)]

            def check(r, triples=triples):
                for x, (a, b, c) in zip(r, triples):
                    if x != a * (b * c):
                        return "(ab)c != a(bc)"
                    if not x.is_homogeneous(0):
                        return "product of degree-0 elements left degree 0"
                return None

            product_ops.append(Op(
                f"{label}.mul{i}", "product",
                lambda triples=triples: [(a * b) * c for a, b, c in triples],
                check, lambda r: "|".join(map(algebra.render_element, r))))
        axiom_seed = rng.randrange(10 ** 6)
        product_ops.append(Op(
            f"{label}.axioms", "axioms",
            lambda alg=alg, s=axiom_seed: algebra.verify_corner_axioms(
                alg, samples=AXIOM_SAMPLES, seed=s),
            lambda r: None if r.passed else f"failed {r.failures}",
            lambda r: f"{r.passed}:{len(r.checks)}"))
    ops = filtration_ops + product_ops
    warmup = [op for op in ops if op.op_id in ("toeplitz.L1", "toeplitz.mul0",
                                               "toeplitz.axioms")]
    return Workload("filtration-levels", seed, ops, warmup)


# -- oracle-certify -------------------------------------------------------------

ORACLE_MODULI = (2, 3, 4, 5, 7, 8, 9)
ORACLE_INSTANCES = 4


def build_oracle(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"oracle-certify/{seed}")
    ops = []
    # Stratified by (v, m): the enumeration cost is m^v, so fixing the
    # mix keeps one seed's round as costly as another's.
    for i in range(ORACLE_INSTANCES):
        for v in range(1, 5):
            for m in ORACLE_MODULI:
                q = parse(*small_quiver(rng, v, sink_free=True))

                def call(q=q, m=m):
                    mod = groups.Modulus.of(m)
                    matrix = ktheory.leavitt_matrix(q)
                    return (groups.brute_force_mod_oracle(matrix, mod),
                            ktheory.mod_l_ktheory(q, mod, 0, 1))

                def check(r, q=q, m=m):
                    (kernel, coker), table = r
                    if table.group_at(0) != coker or table.group_at(1) != kernel:
                        return (f"table ({table.group_at(0)}, {table.group_at(1)}) "
                                f"!= oracle ({coker}, {kernel})")
                    return check_table(q, m, table)

                ops.append(Op(f"v{v}m{m}#{i}", "oracle", call, check,
                              lambda r: f"{r[0][0]};{r[0][1]};"
                                        f"{render_table(r[1])}"))
    warmup = ops[:3]
    return Workload("oracle-certify", seed, ops, warmup)


# -- cli-requests -----------------------------------------------------------------

DATA_FILES = ("jacobson2.q", "rose1.q", "rose2.q", "rose3.q", "toeplitz.q")
CLI_GENERATED = 5
HUGE_MODULUS = 10 ** 18 + 3


def run_cli(argv):
    """One in-process request: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _records(out: str) -> dict:
    return dict(cli.parse_records(out))


def _k_lines(text: str) -> list:
    return [ln for ln in text.splitlines() if ln.startswith("K_")]


def _expect_kmod(q, m, fmt):
    table = ktheory.mod_l_ktheory(q, groups.Modulus.of(m))

    def check(out):
        if fmt == "records":
            rec = _records(out)
            if rec.get("modulus") != str(m):
                return "records lack the modulus"
            got = [(k, v) for k, v in rec.items() if k.startswith("K_")]
            want = [(f"K_{{{n}}}", str(table.group_at(n)))
                    for n in table.degrees()]
            return None if got == want else "kmod records differ from tables"
        want = [f"K_{{{n}}}(L_Q; Z/{m}) = {table.group_at(n)}"
                for n in table.degrees()]
        if not out.startswith("# hypothesis"):
            return "kmod text lacks the hypothesis banner"
        return None if _k_lines(out) == want else "kmod text differs from tables"
    return check


def _expect_analyze(q, primes, fmt):
    moduli = [l ** nu for l, nu in primes]
    det = _bareiss_det(q) if q.v_prime == 0 else None

    def check(out):
        tables = [ktheory.mod_l_ktheory(q, groups.Modulus.of(m), 0, 2)
                  for m in moduli]
        if fmt == "records":
            rec = cli.parse_records(out)
            got = [(k, v) for k, v in rec if k.startswith("K_")]
            want = [(f"K_{{{n}}}(mod {t.modulus.m})", str(t.group_at(n)))
                    for t in tables for n in t.degrees()]
            det_got = dict(rec).get("determinant")
        else:
            got = _k_lines(out)
            want = [f"K_{{{n}}}(L_Q; Z/{t.modulus.m}) = {t.group_at(n)}"
                    for t in tables for n in t.degrees()]
            det_got = next((ln.split(" = ")[1] for ln in out.splitlines()
                            if ln.startswith("determinant = ")), None)
        if got != want:
            return "analyze tables differ"
        if det_got != (None if det is None else str(det)):
            return f"analyze determinant {det_got} != Bareiss {det}"
        conclusions = sum(1 for ln in out.splitlines() if "onclusion" in ln)
        return None if conclusions >= len(moduli) else "missing conclusions"
    return check


def _expect_algebra(q, construct, fmt):
    def check(out):
        want = algebra.render_element(construct(algebra.LeavittAlgebra(q)))
        first = out.splitlines()[0] if out else ""
        got = first.partition("=")[2] if fmt == "records" \
            else first.partition(": ")[2]
        return None if got == want else f"normal form {got!r} != {want!r}"
    return check


def _expect_filtration(q, n, fmt):
    def check(out):
        dim = filtration.block_profile(q, n).sum_of_squares
        if fmt == "records":
            rec = _records(out)
            ok = (rec.get("symbolic_dimension") == str(dim)
                  and rec.get("dimension_match") == "OK"
                  and rec.get("inclusion_match") == "OK"
                  and rec.get("phi_match") == "OK")
        else:
            ok = (f"symbolic dimension = {dim}" in out
                  and "dimension match: OK" in out
                  and out.count(": OK") == 3)
        return None if ok else "filtration verdicts or dimension wrong"
    return check


def _prime_power_factors(n: int) -> list:
    out, p = [], 2
    while n > 1:
        f = 1
        while n % p == 0:
            n //= p
            f *= p
        if f > 1:
            out.append(f)
        p += 1
    return out


def _expect_split(n, fmt):
    factors = " ".join(str(f) for f in _prime_power_factors(n))

    def check(out):
        if fmt == "records":
            rec = _records(out)
            ok = rec.get("factors") == factors and rec.get("verdict") == "EQUAL"
        else:
            ok = f"prime power factors: {factors}\n" in out \
                and "verdict: EQUAL" in out
        return None if ok else "split factors or verdict wrong"
    return check


def _algebra_expression(q, rng):
    """A random expression and the same element built through the
    Element API, which is the independent route for the check."""
    names = [a.name for a in q.arrows]
    pieces, parts = [], []
    for i in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        x, y = rng.choice(names), rng.choice(names)
        starred = rng.random() < 0.7
        pieces.append(("- " if i and c > 2 else "+ " if i else "")
                      + f"{c} {x} {y}{'*' if starred else ''}")
        parts.append((-1 if i and c > 2 else 1, c, x, y, starred))

    def build(alg):
        total = alg.zero()
        for sign, c, x, y, starred in parts:
            right = alg.arrow(y).star() if starred else alg.arrow(y)
            total = total + (alg.arrow(x) * right) * (sign * c)
        return total

    return " ".join(pieces), build


def build_cli(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"cli-requests/{seed}")
    data_dir = Path(__file__).resolve().parent.parent / "tests" / "data"
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in DATA_FILES:
        files[name] = (str(data_dir / name),
                       quiver.order_sinks_first(quiver.parse_quiver(
                           (data_dir / name).read_text(encoding="utf-8"))))
    for i in range(CLI_GENERATED):
        vs, arrows = random_source_free(rng, rng.randint(3, 4), 2,
                                        rng.randint(0, 1))
        path = workdir / f"gen{i}.q"
        path.write_text(quiver_text(vs, arrows), encoding="utf-8")
        files[f"gen{i}.q"] = (str(path), parse(vs, arrows))
    bad = workdir / "bad.q"
    bad.write_text("vertices a\narrow x a b\n", encoding="utf-8")
    sourced = workdir / "source.q"
    sourced.write_text("vertices a b\narrow x a b\narrow y b b\n",
                       encoding="utf-8")

    ops = []

    def request(op_id, kind, argv, code, checker=None):
        def check(r):
            got_code, out, err = r
            if got_code != code:
                return f"exit {got_code} != {code}: {err.strip()}"
            if code == 0:
                if err:
                    return "stderr not empty on success"
                return checker(out)
            return None if (err and not out) else "error must go to stderr only"
        ops.append(Op(op_id, kind, lambda: run_cli(argv), check,
                      lambda r: f"{r[0]}\n{r[1]}"))

    for fmt in ("text", "records"):
        tail = ["--format", fmt]
        for name, (path, q) in files.items():
            m = rng.choice((2, 3, 4, 5, 6, 8, 9, 12))
            request(f"kmod.{name}.{fmt}", "cli.kmod",
                    ["kmod", path, "--mod", str(m)] + tail, 0,
                    _expect_kmod(q, m, fmt))
            primes = [(2, 1), (3, 1), (rng.choice((5, 7)), rng.randint(1, 2))]
            request(f"analyze.{name}.{fmt}", "cli.analyze",
                    ["analyze", path, "--primes",
                     ",".join(f"{l}^{nu}" for l, nu in primes)] + tail, 0,
                    _expect_analyze(q, primes, fmt))
            expr, construct = _algebra_expression(q, rng)
            request(f"algebra.{name}.{fmt}", "cli.algebra",
                    ["algebra", path, "--eval", expr] + tail, 0,
                    _expect_algebra(q, construct, fmt))
            # Fixed levels keep the costliest requests, which set the tail,
            # the same for every seed.
            for level in ((1, 2) if name == "jacobson2.q"
                          else (0,) if name.startswith("gen") else (2,)):
                request(f"filtration{level}.{name}.{fmt}", "cli.filtration",
                        ["filtration", path, "--level", str(level)] + tail, 0,
                        _expect_filtration(q, level, fmt))
        for i in range(4):
            n, m = rng.randint(2, 40), rng.choice((2, 4, 8, 9, 25))
            request(f"split{i}.{fmt}", "cli.split",
                    ["split", "--n", str(n), "--mod", str(m)] + tail, 0,
                    _expect_split(n, fmt))
        rose2 = files["rose2.q"][0]
        request(f"err.parse.{fmt}", "cli.error",
                ["kmod", str(bad), "--mod", "4"] + tail, 1)
        request(f"err.sources.{fmt}", "cli.error",
                ["kmod", str(sourced), "--mod", "4"] + tail, 2)
        request(f"err.modulus.{fmt}", "cli.error",
                ["kmod", rose2, "--mod", "1"] + tail, 3)
        request(f"err.prime.{fmt}", "cli.error",
                ["analyze", rose2, "--primes", "4"] + tail, 3)
        request(f"err.syntax.{fmt}", "cli.error",
                ["algebra", rose2, "--eval", "x +"] + tail, 1)
        request(f"err.missing.{fmt}", "cli.error",
                ["kmod", str(workdir / "missing.q"), "--mod", "4"] + tail, 1)
    warmup = [op for op in ops if op.op_id.endswith("rose1.q.text")]

    def known(op_id, argv, expected, reason):
        code_ok = {"kmod": (0, 3), "filtration": (1, 2, 3, 4),
                   "algebra": (1, 3, 4)}[argv[0]]
        q = files["rose2.q"][1]

        def check(r):
            got, out, err = r
            if got not in code_ok:
                return f"exit {got}"
            if got == 0:
                return _expect_kmod(q, HUGE_MODULUS, "text")(out)
            return None if (err and not out) else "error must go to stderr"
        return KnownFailure(Op(op_id, "cli.known", lambda: run_cli(argv),
                               check, lambda r: f"{r[0]}\n{r[1]}"),
                            expected, reason)

    known_ops = [
        known("kmod.huge-modulus", ["kmod", files["rose2.q"][0], "--mod",
                                    str(HUGE_MODULUS)], "timeout",
              "Modulus.of trial-divides 10^18+3 in factorize (ROADMAP 3b)"),
        known("filtration.rose3.level9", ["filtration", files["rose3.q"][0],
                                          "--level", "9"], "SizeLimitError",
              "SizeLimitError escapes cli.main as a traceback (ROADMAP 3c)"),
        known("algebra.div-by-zero", ["algebra", files["rose2.q"][0],
                                      "--eval", "1/0"], "ZeroDivisionError",
              "ZeroDivisionError escapes cli.main as a traceback (ROADMAP 3c)"),
    ]
    return Workload("cli-requests", seed, ops, warmup, known_ops)


WORKLOAD_FACTORIES = {
    "tables-ladder": build_tables,
    "filtration-levels": build_filtration,
    "oracle-certify": build_oracle,
    "cli-requests": build_cli,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOAD_FACTORIES[name](seed, workdir)


def digest(workload: Workload, results: dict) -> str:
    """sha256 over the rendering of each distinct op's first result."""
    h = hashlib.sha256()
    for op in workload.ops:
        if op.op_id in results:
            h.update(f"{op.op_id}\t{op.render(results[op.op_id])}\n"
                     .encode())
    return h.hexdigest()

