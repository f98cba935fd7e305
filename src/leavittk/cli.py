"""Command line front end.

Subcommands: kmod, analyze, algebra, filtration, split.  Each handler
returns one ordered list of (key, value, text) rows; `main` alone
renders them in the chosen format and turns failures into exit codes.
Output is deterministic byte-for-byte for fixed input; errors go to
stderr only.  Exit codes: 0 ok, 1 parse error (also a usage error and an
empty --from/--to window), 2 quiver has sources, 3 bad modulus, 4 work
bound exceeded (a filtration level past its size limit, a kmod or
analyze K-map of more than 10^8 cells, split --n above 10^5, a
--from/--to window of more than 10^4 degrees, an --eval product
of more than 20,000 terms, an analyze determinant of a sink-free K-map
of more than 400 rows, or with a cofactor not proven prime after trial
division below 10^6).  An --eval expression that starts with '-' is
written --eval=TEXT, as in --eval=-x, or argparse reads it as an option.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import LeavittAlgebra, render_element
from .element_syntax import ElementSyntaxError, parse_element
from .filtration import (_stage_report, expected_inclusion_matrix,
                         expected_phi_matrix)
from .groups import Modulus, SizeLimitError, _proven_prime
from .ktheory import (DEFAULT_WINDOW, divisibility_report, mod_l_ktheory,
                      moore_splitting_check)
from .quiver import Quiver, SourcesPresentError, parse_quiver

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SOURCES = 2
EXIT_MODULUS = 3
EXIT_WORK = 4


class _CliError(Exception):
    """args: (exit code, message)."""


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error exits with the parse-error code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _load_quiver(path: str) -> Quiver:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    try:
        return parse_quiver(text)
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"{path}: {exc}")


def _parse_modulus(text: str) -> Modulus:
    try:
        value = int(text)
    except ValueError:
        raise _CliError(EXIT_MODULUS, f"modulus must be an integer, got {text!r}")
    try:
        return Modulus.of(value)
    except ValueError as exc:
        raise _CliError(EXIT_MODULUS, f"bad modulus: {exc}")


def _parse_prime_power(text: str):
    base, caret, exp = text.partition("^")
    try:
        l, nu = int(base), int(exp) if caret else 1
    except ValueError:
        l = nu = 0
    if l < 2 or nu < 1:
        raise _CliError(EXIT_MODULUS, f"bad prime power {text!r}")
    if not _proven_prime(l):
        raise _CliError(EXIT_MODULUS, f"bad modulus: {l} is not proven prime")
    return l, nu


def _render(rows, fmt: str) -> str:
    """One subcommand's (key, value, text) rows as --format `fmt`.

    A row with key None is text-only, one with text None records-only.

    >>> rows = [("level", "1", "level 1"), (None, None, "matrix:"),
    ...         ("matrix", "[1 0];[0 1]", "[1 0]\\n[0 1]"), ("ok", "OK", None)]
    >>> print(_render(rows, "text"), end="")
    level 1
    matrix:
    [1 0]
    [0 1]
    >>> print(_render(rows, "records"), end="")
    level=1
    matrix=[1 0];[0 1]
    ok=OK
    >>> parse_records(_render(rows, "records")) == [
    ...     (k, v) for k, v, _ in rows if k is not None]
    True
    """
    if fmt == "records":
        out = [f"{k}={v}" for k, v, _ in rows if k is not None]
    else:
        out = [text for _, _, text in rows if text is not None]
    return "\n".join(out) + "\n"


def parse_records(text: str) -> list:
    """Inverse of --format records: ordered (key, value) pairs."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"not a record line: {line!r}")
        out.append((key, value))
    return out


def _matrix_row(key: str, m) -> tuple:
    lines = ["[" + " ".join(str(m[i, j]) for j in range(m.cols)) + "]"
             for i in range(m.rows)]
    return (key, ";".join(lines), "\n".join(lines))


def _table_rows(table, key_suffix: str) -> list:
    """One row per degree of a K-group table; `key_suffix` follows the
    K_{n} of each record key."""
    m = table.modulus.m
    rows = []
    for n in table.degrees():
        group = table.group_at(n)
        rows.append((f"K_{{{n}}}{key_suffix}", str(group),
                     f"K_{{{n}}}(L_Q; Z/{m}) = {group}"))
    return rows


def _window(args) -> tuple:
    if args.n_from > args.n_to:
        raise _CliError(EXIT_PARSE, "empty degree window")
    return args.n_from, args.n_to


def _cmd_kmod(args) -> list:
    q = _load_quiver(args.quiver)
    modulus = _parse_modulus(args.mod)
    table = mod_l_ktheory(q, modulus, *_window(args))
    m = modulus.m
    rows = [("hypothesis", f"algebraically closed k, char(k) coprime to {m}",
             f"# hypothesis: base field k algebraically closed, "
             f"char(k) coprime to {m}")]
    if not modulus.is_prime_power:
        rows.append((None, None, f"# modulus {m} is not a prime power: "
                                 "table is a formal extension by CRT"))
    rows.append(("modulus", str(m), None))
    return rows + _table_rows(table, "")


def _cmd_analyze(args) -> list:
    q = _load_quiver(args.quiver)
    primes = [_parse_prime_power(tok) for tok in args.primes.split(",") if tok]
    if not primes:
        raise _CliError(EXIT_MODULUS, "no primes given")
    report = divisibility_report(q, primes)
    rows = [("hypothesis", "algebraically closed k, char(k) coprime to moduli",
             "# hypothesis: base field k algebraically closed, "
             "char(k) coprime to every listed modulus")]
    if report.sink_free:
        det = report.determinant
        ps = "all" if det == 0 else \
            " ".join(str(p) for p in report.determinant_primes) or "none"
        rows += [("determinant", str(det), f"determinant = {det}"),
                 ("determinant_primes", ps, f"primes dividing determinant: {ps}")]
    for entry in report.entries:
        m = entry.modulus.m
        rows.append((None, None, f"[modulus {entry.prime}^{entry.power} = {m}]"))
        rows += _table_rows(entry.table, f"(mod {m})")
        for conclusion in entry.conclusions:
            rows.append((f"conclusion(mod {m})", conclusion,
                         f"conclusion: {conclusion}"))
    return rows


def _cmd_algebra(args) -> list:
    value = parse_element(LeavittAlgebra(_load_quiver(args.quiver)), args.eval)
    try:
        form = render_element(value)
        rows = [("normal_form", form, f"normal form: {form}")]
        for degree, part in value.degree_components().items():
            form = render_element(part)
            rows.append((f"degree_{degree}", form, f"degree {degree}: {form}"))
    except ValueError as exc:  # a coefficient past Python's int-to-str limit
        raise _CliError(EXIT_WORK, f"cannot print the result: {exc}")
    return rows


def _cmd_filtration(args) -> list:
    q = _load_quiver(args.quiver)
    n = args.level
    if n < 0:
        raise _CliError(EXIT_PARSE, "level must be nonnegative")
    profile, dim, incl, phi = _stage_report(q, n)
    rows = [("level", str(n), f"level {n}: {profile.count} blocks"),
            ("blocks", str(profile.count), None)]
    for b in profile.blocks:
        rows.append((f"block({b.level},{b.vertex})", str(b.size),
                     f"block (level {b.level}, vertex {b.vertex}): "
                     f"size {b.size}"))
    squares = profile.sum_of_squares
    match = "OK" if dim == squares else "FAIL"
    incl_ok = "OK" if incl == expected_inclusion_matrix(q, n) else "FAIL"
    phi_ok = "OK" if phi == expected_phi_matrix(q, n) else "FAIL"
    return rows + [
        ("sum_of_squares", str(squares), f"sum of squares = {squares}"),
        ("symbolic_dimension", str(dim), f"symbolic dimension = {dim}"),
        ("dimension_match", match, f"dimension match: {match}"),
        (None, None, f"inclusion matrix (stage {n} -> {n + 1}):"),
        _matrix_row("inclusion_matrix", incl),
        ("inclusion_match", incl_ok,
         f"inclusion matrix equals diag(id, incidence^T): {incl_ok}"),
        (None, None, "corner endomorphism matrix:"),
        _matrix_row("phi_matrix", phi),
        ("phi_match", phi_ok,
         f"corner matrix equals zero-over-identity: {phi_ok}")]


def _cmd_split(args) -> list:
    if args.n < 2:
        raise _CliError(EXIT_PARSE, "splitting check needs --n >= 2")
    modulus = _parse_modulus(args.mod)
    result = moore_splitting_check(args.n, modulus, *_window(args))
    factors = " ".join(str(f) for f in result.factors)
    rows = [("n", str(result.n),
             f"n = {result.n}; prime power factors: {factors}"),
            ("factors", factors, None),
            ("modulus", str(modulus.m), f"modulus = {modulus.m}")]
    for deg in result.left.degrees():
        left, right = result.left.group_at(deg), result.right.group_at(deg)
        ok = left == right
        rows.append((f"degree_{deg}", f"{left} | {right} | "
                     + ("equal" if ok else "different"),
                     f"degree {deg}: whole = {left}; sum of factors = "
                     f"{right}; " + ("equal" if ok else "DIFFERENT")))
    verdict = "EQUAL" if result.equal else "UNEQUAL"
    return rows + [("verdict", verdict, f"verdict: {verdict}")]


_parser = None  # built by the first main() call and reused by later ones


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="leavittk",
        description="Mod-m K-groups of Leavitt path algebras, plus the "
                    "symbolic engine and filtration checks behind them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help, quiver=True):
        p = sub.add_parser(name, help=help)
        if quiver:
            p.add_argument("quiver", help="quiver file")
        p.add_argument("--format", choices=("text", "records"), default="text")
        p.set_defaults(handler=handler)
        return p

    p = add("kmod", _cmd_kmod, "mod-m K-group table")
    p.add_argument("--mod", required=True, help="modulus m >= 2")
    p.add_argument("--from", dest="n_from", type=int, default=DEFAULT_WINDOW[0])
    p.add_argument("--to", dest="n_to", type=int, default=DEFAULT_WINDOW[1])

    p = add("analyze", _cmd_analyze, "vanishing and divisibility report")
    p.add_argument("--primes", required=True,
                   help="comma-separated primes, each optionally p^nu")

    p = add("algebra", _cmd_algebra, "normalize an element expression")
    p.add_argument("--eval", required=True, help="element expression")

    p = add("filtration", _cmd_filtration,
            "length filtration blocks and transition matrices")
    p.add_argument("--level", type=int, required=True)

    p = add("split", _cmd_split, "prime-power splitting check", quiver=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mod", required=True)
    p.add_argument("--from", dest="n_from", type=int, default=DEFAULT_WINDOW[0])
    p.add_argument("--to", dest="n_to", type=int, default=DEFAULT_WINDOW[1])

    return parser


def main(argv=None) -> int:
    """Run one subcommand: its rows go to stdout, any failure to stderr
    as a message plus the exit code documented above."""
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        rows = args.handler(args)
    except _CliError as exc:
        code, message = exc.args
    except SourcesPresentError as exc:
        code, message = EXIT_SOURCES, str(exc)
    except SizeLimitError as exc:
        code, message = EXIT_WORK, f"work bound exceeded: {exc}"
    except ElementSyntaxError as exc:
        code, message = EXIT_PARSE, str(exc)
    else:
        sys.stdout.write(_render(rows, args.format))
        return EXIT_OK
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
