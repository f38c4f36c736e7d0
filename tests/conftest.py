"""Suite-wide settings: hypothesis draws the same examples on every run and
keeps no example database, so tier-1 is reproducible and leaves no
`.hypothesis/` directory in the checkout."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("ringcc", derandomize=True, database=None, deadline=None)
settings.load_profile("ringcc")


def pytest_configure(config):
    # whatever the profile says, hypothesis caches the constants it reads
    # from the tested source under its home directory
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
