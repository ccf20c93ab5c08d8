"""Suite-wide test settings.

Property tests run under one hypothesis profile: derandomized (the examples
are seeded from each test function, so every run draws the same ones), with
a fixed example count and no example database.  A test's own ``@settings``
still takes precedence over the profile for the fields it names.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests themselves then fail to import
    settings = None

if settings is not None:
    settings.register_profile("dsmkit", derandomize=True, max_examples=25, database=None)
    settings.load_profile("dsmkit")
