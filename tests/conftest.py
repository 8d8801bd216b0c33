import os

import hypothesis
import pytest

from semigroupoids import corpus
from semigroupoids.inverse import clear_latest_structure_memos

hypothesis.settings.register_profile(
    "ci", deadline=None, max_examples=40, derandomize=True
)
hypothesis.settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(scope="session")
def structures():
    return corpus.structure_corpus()


@pytest.fixture(scope="session")
def small_structures():
    return list(corpus.enumerate_inverse_semigroupoids(3))


@pytest.fixture(scope="session")
def actions():
    return corpus.action_corpus()


@pytest.fixture(autouse=True)
def fresh_structure_memos():
    """Each test derives sigma, the certificate and the Munn action anew:
    the corpora share structure objects across tests, and a test that
    injects a fault must not read a value an earlier test derived."""
    clear_latest_structure_memos()
    yield
    clear_latest_structure_memos()
