"""Byte-for-byte CLI outputs on the quivers in tests/data.

Each file under tests/data/golden holds the stdout of a fixed list of
commands, each introduced by a `$ <args>` line.  To re-record after an
intended output change, run from the repo root:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from pathlib import Path

import pytest

from leavittk.quiver import parse_quiver
from test_cli import DATA, run_cli

GOLDEN = DATA / "golden"
QUIVERS = sorted(p.name for p in DATA.glob("*.q"))
PRIMES = "2,2^3,3,5^2,7"


def element_expressions(name: str) -> list:
    """`1`, `0`, a sum, a fraction scalar and a product, in `name`'s arrows
    and its first declared vertex."""
    text = (DATA / name).read_text(encoding="utf-8")
    q = parse_quiver(text)
    first = next(tokens[1] for tokens in (line.split("#")[0].split()
                                          for line in text.splitlines())
                 if tokens[:1] == ["vertices"])
    a, b = q.arrows[0].name, q.arrows[-1].name
    return ["1", "0", f"{a} + {b}*", f"2/3 {a}* . {a} - e({first})",
            f"{a} . {a}*"]


def quiver_commands(name: str) -> list:
    path = f"tests/data/{name}"
    commands = []
    for fmt in ("text", "records"):
        for m in ("4", "8", "12"):
            commands.append(["kmod", path, "--mod", m, "--format", fmt])
        commands.append(["analyze", path, "--primes", PRIMES, "--format", fmt])
        for level in ("0", "1", "2"):
            commands.append(["filtration", path, "--level", level,
                             "--format", fmt])
        for expr in element_expressions(name):
            commands.append(["algebra", path, "--eval", expr, "--format", fmt])
    return commands


def split_commands() -> list:
    return [["split", "--n", n, "--mod", m, "--format", fmt]
            for fmt in ("text", "records")
            for n in ("2", "6", "12", "30")
            for m in ("4", "8", "12")]


CASES = {name.replace(".q", ".txt"): quiver_commands(name) for name in QUIVERS}
CASES["split.txt"] = split_commands()


def transcript(commands) -> str:
    chunks = []
    for args in commands:
        argv = [str(DATA / Path(a).name) if a.startswith("tests/data/") else a
                for a in args]
        code, out, err = run_cli(argv)
        assert code == 0 and err == "", (args, code, err)
        chunks.append("$ " + " ".join(args) + "\n" + out)
    return "".join(chunks)


@pytest.mark.parametrize("filename", sorted(CASES))
def test_cli_output_unchanged(filename):
    want = (GOLDEN / filename).read_text(encoding="utf-8")
    assert transcript(CASES[filename]) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for filename, commands in CASES.items():
        (GOLDEN / filename).write_text(transcript(commands), encoding="utf-8")
