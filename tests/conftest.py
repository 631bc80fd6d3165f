import os

import pytest


@pytest.fixture
def no_sideal_variables(monkeypatch):
    """No SIDEAL_* variable is set while the test runs, so the budget and the
    config file come from what the test itself sets by ``monkeypatch``."""
    for name in list(os.environ):
        if name.startswith("SIDEAL_"):
            monkeypatch.delenv(name)
    return monkeypatch
