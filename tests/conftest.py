"""One hypothesis profile for the whole suite.

Property tests are derandomized, so every run draws the same examples;
they have no per-example deadline, because exact arithmetic on an
unlucky draw can be slow without being wrong; and no example database is
written into the checkout.
"""

from hypothesis import settings

settings.register_profile("hochcap", derandomize=True, deadline=None, database=None)
settings.load_profile("hochcap")
