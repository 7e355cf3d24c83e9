"""Shared fixtures: small state spaces and their transition blocks.

Everything here is deterministic and cheap to build; session scope only
avoids re-deriving the same spaces in every module.
"""

import pytest
from hypothesis import settings

from rankedcoal.kingman import tier_blocks
from rankedcoal.statespace import enumerate_states

settings.register_profile("ci", deadline=None, max_examples=50, print_blob=True)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def space4():
    return enumerate_states(4)


@pytest.fixture(scope="session")
def space5():
    return enumerate_states(5)


@pytest.fixture(scope="session")
def space6():
    return enumerate_states(6)


@pytest.fixture(scope="session")
def space8():
    return enumerate_states(8)


@pytest.fixture(scope="session")
def blocks5(space5):
    return tier_blocks(space5)


@pytest.fixture(scope="session")
def blocks6(space6):
    return tier_blocks(space6)
