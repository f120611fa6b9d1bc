"""Shared fixtures."""

import numpy as np
import pytest


@pytest.fixture
def break_linalg(monkeypatch):
    """Make the named ``numpy.linalg`` function raise ``LinAlgError``."""

    def patch(name):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(f"injected {name} failure")

        monkeypatch.setattr(np.linalg, name, fail)

    return patch
