"""Keep Hypothesis's storage out of the checkout, and let a failing property show its example.

With ``database=None`` the property tests save no examples, but Hypothesis
still caches the constants it reads from local source files, at collection
time.  Its storage goes to a temporary directory removed when the session
ends.

When a property fails, Hypothesis's pytest plugin imports its patch writer,
which imports ``libcst``; ``libcst`` builds a ``mypy_extensions.TypedDict``,
whose DeprecationWarning the suite's ``error::DeprecationWarning`` filter
would turn into an INTERNALERROR that hides the falsifying example.  The
hook below imports the patch writer first, ignoring only that warning.
"""

import sys
import tempfile
import warnings

import pytest
from hypothesis import is_hypothesis_test
from hypothesis.configuration import set_hypothesis_home_dir

_STORAGE = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    config.stash[_STORAGE] = storage = tempfile.TemporaryDirectory(prefix="camgeom-hypothesis-")
    set_hypothesis_home_dir(storage.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_STORAGE].cleanup()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    if (call.excinfo is None or "hypothesis.extra._patching" in sys.modules
            or not is_hypothesis_test(getattr(item, "obj", None))):
        return
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:  # without libcst the plugin writes no patch, and prints the example
            pass
