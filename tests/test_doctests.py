import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import leavittk

# every module of the package, so a new one runs its doctests unlisted
MODULES = [importlib.import_module(f"leavittk.{info.name}")
           for info in pkgutil.iter_modules(leavittk.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example(capsys):
    """The README's library example runs and prints its table: every
    mod-8 group of the two-petal rose vanishes."""
    text = README.read_text().split("## Library example", 1)[1]
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == \
        [f"{n} 0" for n in range(-2, 8)]
