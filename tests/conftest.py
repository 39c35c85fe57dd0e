"""Session set-up shared by every test module."""

import importlib
import warnings
from contextlib import suppress

# When a @given test fails, Hypothesis's report hook imports this module, and
# through libcst it raises a DeprecationWarning (from mypy_extensions). Under
# filterwarnings "error" that ends the session as an INTERNALERROR and leaves
# later tests unrun. Importing it here first, with that warning ignored for
# this import only, keeps such a failure an ordinary one. Hypothesis itself
# skips the report when libcst is missing, and so does this import.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    importlib.import_module("hypothesis.extra._patching")
