import warnings
from contextlib import suppress

import hypothesis
import pytest

hypothesis.settings.register_profile("suite", deadline=None, max_examples=60)
hypothesis.settings.load_profile("suite")

# hypothesis's pytest plugin imports this module when a property test fails,
# to write the failing example as a patch.  Its libcst import raises a
# DeprecationWarning from mypy_extensions, which filterwarnings = error turns
# into an INTERNALERROR that ends the whole run.  Importing it here first,
# with that one warning ignored, leaves the plugin a cached module.  libcst is
# optional to hypothesis, and the plugin skips the patch without it.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.filterwarnings("ignore", message=r"mypy_extensions\.", category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(scope="session")
def library():
    from tripfit import default_library

    return default_library()
