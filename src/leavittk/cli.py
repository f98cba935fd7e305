"""Command line front end.

Subcommands: kmod, analyze, algebra, filtration, split.  Output is
deterministic byte-for-byte for fixed input; errors go to stderr only.
Exit codes: 0 ok, 1 parse error, 2 quiver has sources, 3 bad modulus,
4 work bound exceeded.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .algebra import LeavittAlgebra, render_element
from .element_syntax import ElementSyntaxError, parse_element
from .filtration import (block_profile, expected_inclusion_matrix,
                         expected_phi_matrix, filtration_span_dim,
                         inclusion_k0_matrix, phi_k0_matrix)
from .groups import Modulus, SizeLimitError
from .ktheory import (DEFAULT_WINDOW, divisibility_report, mod_l_ktheory,
                      moore_splitting_check)
from .quiver import (OrderedQuiver, QuiverParseError, SourcesPresentError,
                     order_sinks_first, parse_quiver)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SOURCES = 2
EXIT_MODULUS = 3
EXIT_WORK = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message


def _load_quiver(path: str) -> OrderedQuiver:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    try:
        return order_sinks_first(parse_quiver(text))
    except (QuiverParseError, ValueError) as exc:
        raise _CliError(EXIT_PARSE, f"{path}: {exc}")


def _parse_modulus(text: str) -> Modulus:
    try:
        value = int(text)
    except ValueError:
        raise _CliError(EXIT_MODULUS, f"modulus must be an integer, got {text!r}")
    return _modulus_of(value)


def _modulus_of(value: int) -> Modulus:
    try:
        return Modulus.of(value)
    except ValueError as exc:
        raise _CliError(EXIT_MODULUS, f"bad modulus: {exc}")


def _parse_prime_power(text: str):
    base, _, exp = text.partition("^")
    try:
        l = int(base)
        nu = int(exp) if exp else 1
    except ValueError:
        raise _CliError(EXIT_MODULUS, f"bad prime power {text!r}")
    if l < 2 or nu < 1:
        raise _CliError(EXIT_MODULUS, f"bad prime power {text!r}")
    if _modulus_of(l).factorization != ((l, 1),):
        raise _CliError(EXIT_MODULUS, f"{l} is not prime")
    return l, nu


def _banner(modulus: Modulus) -> list:
    lines = [f"# hypothesis: base field k algebraically closed, "
             f"char(k) coprime to {modulus.m}"]
    if not modulus.is_prime_power:
        lines.append(f"# modulus {modulus.m} is not a prime power: "
                     "table is a formal extension by CRT")
    return lines


def _emit(lines, records, fmt: str) -> str:
    if fmt == "records":
        return "\n".join(f"{k}={v}" for k, v in records) + "\n"
    return "\n".join(lines) + "\n"


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


def _matrix_lines(m) -> list:
    return ["[" + " ".join(str(m[i, j]) for j in range(m.cols)) + "]"
            for i in range(m.rows)]


def _cmd_kmod(args) -> str:
    q = _load_quiver(args.quiver)
    modulus = _parse_modulus(args.mod)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = mod_l_ktheory(q, modulus, args.n_from, args.n_to)
    except SourcesPresentError as exc:
        raise _CliError(EXIT_SOURCES, str(exc))
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, str(exc))
    lines = _banner(modulus)
    records = [("hypothesis",
                f"algebraically closed k, char(k) coprime to {modulus.m}"),
               ("modulus", str(modulus.m))]
    for n, entry in table.entries:
        lines.append(f"K_{{{n}}}(L_Q; Z/{modulus.m}) = {entry.group}")
        records.append((f"K_{{{n}}}", str(entry.group)))
    return _emit(lines, records, args.format)


def _cmd_analyze(args) -> str:
    q = _load_quiver(args.quiver)
    primes = [_parse_prime_power(tok) for tok in args.primes.split(",") if tok]
    if not primes:
        raise _CliError(EXIT_MODULUS, "no primes given")
    try:
        report = divisibility_report(q, primes)
    except SourcesPresentError as exc:
        raise _CliError(EXIT_SOURCES, str(exc))
    lines = ["# hypothesis: base field k algebraically closed, "
             "char(k) coprime to every listed modulus"]
    records = [("hypothesis", "algebraically closed k, char(k) coprime to moduli")]
    if report.sink_free:
        lines.append(f"determinant = {report.determinant}")
        records.append(("determinant", str(report.determinant)))
        if report.determinant == 0:
            lines.append("primes dividing determinant: all")
            records.append(("determinant_primes", "all"))
        else:
            ps = " ".join(str(p) for p in report.determinant_primes) or "none"
            lines.append(f"primes dividing determinant: {ps}")
            records.append(("determinant_primes", ps))
    for entry in report.entries:
        tag = f"{entry.prime}^{entry.power}"
        lines.append(f"[modulus {tag} = {entry.modulus.m}]")
        for n, kentry in entry.table.entries:
            lines.append(f"K_{{{n}}}(L_Q; Z/{entry.modulus.m}) = "
                         f"{kentry.group}")
            records.append((f"K_{{{n}}}(mod {entry.modulus.m})",
                            str(kentry.group)))
        for conclusion in entry.conclusions:
            lines.append(f"conclusion: {conclusion}")
            records.append((f"conclusion(mod {entry.modulus.m})", conclusion))
    return _emit(lines, records, args.format)


def _cmd_algebra(args) -> str:
    q = _load_quiver(args.quiver)
    alg = LeavittAlgebra(q)
    try:
        value = parse_element(alg, args.eval)
    except ElementSyntaxError as exc:
        raise _CliError(EXIT_PARSE, str(exc))
    lines = [f"normal form: {render_element(value)}"]
    records = [("normal_form", render_element(value))]
    for degree, part in value.degree_components().items():
        lines.append(f"degree {degree}: {render_element(part)}")
        records.append((f"degree_{degree}", render_element(part)))
    return _emit(lines, records, args.format)


def _cmd_filtration(args) -> str:
    q = _load_quiver(args.quiver)
    n = args.level
    if n < 0:
        raise _CliError(EXIT_PARSE, "level must be nonnegative")
    try:
        profile = block_profile(q, n)
        dim = filtration_span_dim(q, n)
        incl = inclusion_k0_matrix(q, n)
        phi = phi_k0_matrix(q, n)
    except SourcesPresentError as exc:
        raise _CliError(EXIT_SOURCES, str(exc))
    except SizeLimitError as exc:
        raise _CliError(EXIT_WORK, f"work bound exceeded: {exc}")
    lines = [f"level {n}: {profile.count} blocks"]
    records = [("level", str(n)), ("blocks", str(profile.count))]
    for b in profile.blocks:
        lines.append(f"block (level {b.level}, vertex {b.vertex}): size {b.size}")
        records.append((f"block({b.level},{b.vertex})", str(b.size)))
    lines.append(f"sum of squares = {profile.sum_of_squares}")
    lines.append(f"symbolic dimension = {dim}")
    match = "OK" if dim == profile.sum_of_squares else "FAIL"
    lines.append(f"dimension match: {match}")
    records += [("sum_of_squares", str(profile.sum_of_squares)),
                ("symbolic_dimension", str(dim)),
                ("dimension_match", match)]
    incl_ok = "OK" if incl == expected_inclusion_matrix(q, n) else "FAIL"
    phi_ok = "OK" if phi == expected_phi_matrix(q, n) else "FAIL"
    lines.append(f"inclusion matrix (stage {n} -> {n + 1}):")
    lines += _matrix_lines(incl)
    lines.append(f"inclusion matrix equals diag(id, incidence^T): {incl_ok}")
    lines.append("corner endomorphism matrix:")
    lines += _matrix_lines(phi)
    lines.append(f"corner matrix equals zero-over-identity: {phi_ok}")
    records += [("inclusion_matrix", ";".join(_matrix_lines(incl))),
                ("inclusion_match", incl_ok),
                ("phi_matrix", ";".join(_matrix_lines(phi))),
                ("phi_match", phi_ok)]
    return _emit(lines, records, args.format)


def _cmd_split(args) -> str:
    if args.n < 2:
        raise _CliError(EXIT_PARSE, "splitting check needs --n >= 2")
    modulus = _parse_modulus(args.mod)
    result = moore_splitting_check(args.n, modulus,
                                   n_min=args.n_from, n_max=args.n_to)
    lines = [f"n = {result.n}; prime power factors: "
             + " ".join(str(f) for f in result.factors),
             f"modulus = {modulus.m}"]
    records = [("n", str(result.n)),
               ("factors", " ".join(str(f) for f in result.factors)),
               ("modulus", str(modulus.m))]
    right = dict(result.right_groups)
    for deg, ok in result.equal_by_degree:
        left = result.left.group_at(deg)
        lines.append(f"degree {deg}: whole = {left}; "
                     f"sum of factors = {right[deg]}; "
                     + ("equal" if ok else "DIFFERENT"))
        records.append((f"degree_{deg}",
                        f"{left} | {right[deg]} | "
                        + ("equal" if ok else "different")))
    verdict = "EQUAL" if result.equal else "UNEQUAL"
    lines.append(f"verdict: {verdict}")
    records.append(("verdict", verdict))
    return _emit(lines, records, args.format)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leavittk",
        description="Mod-m K-groups of Leavitt path algebras, plus the "
                    "symbolic engine and filtration checks behind them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, quiver=True):
        if quiver:
            p.add_argument("quiver", help="quiver file")
        p.add_argument("--format", choices=("text", "records"), default="text")

    p = sub.add_parser("kmod", help="mod-m K-group table")
    add_common(p)
    p.add_argument("--mod", required=True, help="modulus m >= 2")
    p.add_argument("--from", dest="n_from", type=int, default=DEFAULT_WINDOW[0])
    p.add_argument("--to", dest="n_to", type=int, default=DEFAULT_WINDOW[1])

    p = sub.add_parser("analyze", help="vanishing and divisibility report")
    add_common(p)
    p.add_argument("--primes", required=True,
                   help="comma-separated primes, each optionally p^nu")

    p = sub.add_parser("algebra", help="normalize an element expression")
    add_common(p)
    p.add_argument("--eval", required=True, help="element expression")

    p = sub.add_parser("filtration", help="length filtration blocks and "
                                          "transition matrices")
    add_common(p)
    p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("split", help="prime-power splitting check")
    add_common(p, quiver=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mod", required=True)
    p.add_argument("--from", dest="n_from", type=int, default=DEFAULT_WINDOW[0])
    p.add_argument("--to", dest="n_to", type=int, default=DEFAULT_WINDOW[1])

    return parser


_HANDLERS = {
    "kmod": _cmd_kmod,
    "analyze": _cmd_analyze,
    "algebra": _cmd_algebra,
    "filtration": _cmd_filtration,
    "split": _cmd_split,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        output = _HANDLERS[args.command](args)
    except _CliError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    sys.stdout.write(output)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
