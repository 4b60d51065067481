"""Keep Hypothesis's storage out of the checkout.

With ``database=None`` the property tests save no examples, but Hypothesis
still caches the constants it reads from local source files, at collection
time.  Its storage goes to a temporary directory removed when the session
ends.
"""

import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_STORAGE = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    config.stash[_STORAGE] = storage = tempfile.TemporaryDirectory(prefix="camgeom-hypothesis-")
    set_hypothesis_home_dir(storage.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_STORAGE].cleanup()
