"""Shared fixtures."""

import numpy as np
import pytest

from torsionlab import spectral


@pytest.fixture
def eigensolves(monkeypatch):
    """Record every eigensolve the spectral module runs, in call order, as
    (dtype, "vectors") for ``eigh`` and (dtype, "values") for ``eigvalsh``."""
    seen = []
    for name, kind in (("eigh", "vectors"), ("eigvalsh", "values")):
        solve = getattr(spectral.np.linalg, name)

        def record(m, *args, _solve=solve, _kind=kind, **kwargs):
            seen.append((np.dtype(m.dtype).name, _kind))
            return _solve(m, *args, **kwargs)

        monkeypatch.setattr(spectral.np.linalg, name, record)
    return seen
