"""The README's library tour, run as a doctest."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / 'README.md'


def test_readme_library_tour():
    # checks `from qpartition import *` and the Orbit(partition=...) repr, among others
    result = doctest.testfile(str(README), module_relative=False, optionflags=doctest.ELLIPSIS)
    assert result.failed == 0
    assert result.attempted >= 15
