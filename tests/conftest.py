import pytest
from hypothesis import settings

from synthdata import default_vocab

# CI runs with --hypothesis-profile=ci: the same examples on every run, and
# a failure prints the blob that replays it (@reproduce_failure)
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def vocab():
    return default_vocab()
