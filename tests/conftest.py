"""The session fixtures of the test suite; its builders are in builders.py."""

import pytest

from builders import coordinate_generator
from mvlogic.mv_core import Chain
from mvlogic.polyadic import build_generated


@pytest.fixture(scope="session")
def henkin_demo_algebra():
    """|I|=3, |X|=2, two-valued chain, one generator with dimension {0}."""
    g = coordinate_generator(3, 2, 0)
    return build_generated((0, 1, 2), 2, Chain(2), [g], "full", "powerset",
                           cap=300), g
