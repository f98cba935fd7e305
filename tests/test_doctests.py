import doctest

import pytest

import leavittk.algebra
import leavittk.cli
import leavittk.element_syntax
import leavittk.filtration
import leavittk.groups
import leavittk.ktheory
import leavittk.matrices
import leavittk.quiver

MODULES = [
    leavittk.algebra,
    leavittk.cli,
    leavittk.element_syntax,
    leavittk.filtration,
    leavittk.groups,
    leavittk.ktheory,
    leavittk.matrices,
    leavittk.quiver,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
