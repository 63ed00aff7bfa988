"""Shared fixtures."""

from functools import cached_property

import numpy as np
import pytest

from torsionlab import chain_models, circle_bundle, spectral, torsion_engine


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


@pytest.fixture
def eigensolve_orders(monkeypatch):
    """Record the order of every eigensolve the spectral module runs, in
    call order: the sibling of ``eigensolves``, which records its kind."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(spectral.np.linalg, name)

        def record(m, *args, _solve=solve, **kwargs):
            seen.append(m.shape[0])
            return _solve(m, *args, **kwargs)

        monkeypatch.setattr(spectral.np.linalg, name, record)
    return seen


@pytest.fixture
def svds(monkeypatch):
    """Record every SVD the torsion engine runs, in call order, as
    (shape, dtype)."""
    seen = []
    svd = torsion_engine.np.linalg.svd

    def record(m, *args, **kwargs):
        seen.append((m.shape, np.dtype(m.dtype).name))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(torsion_engine.np.linalg, "svd", record)
    return seen


@pytest.fixture
def factorizations(monkeypatch):
    """Record the shape of every Cholesky factorization the spectral
    module runs."""
    calls = []
    factor = spectral.np.linalg.cholesky

    def record(m, *args, **kwargs):
        calls.append(m.shape)
        return factor(m, *args, **kwargs)

    monkeypatch.setattr(spectral.np.linalg, "cholesky", record)
    return calls


@pytest.fixture
def lower_inverses(monkeypatch):
    """Record the Cholesky factor behind every triangular inverse formed
    (``GramFactor.lower_inverse``, one entry per formation; a formed
    inverse is kept on its record and not formed again)."""
    calls = []
    form = spectral.GramFactor.lower_inverse.func

    def record(self):
        calls.append(self.lower)
        return form(self)

    recorded = cached_property(record)
    recorded.__set_name__(spectral.GramFactor, "lower_inverse")
    monkeypatch.setattr(spectral.GramFactor, "lower_inverse", recorded)
    return calls


def _count_calls(monkeypatch, fn, bindings) -> list:
    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in bindings:
        monkeypatch.setattr(module, fn.__name__, record)
    return calls


@pytest.fixture
def folds(monkeypatch):
    """Record every parity fold (``chain_models.fold``), under each name
    the package calls it by."""
    return _count_calls(monkeypatch, chain_models.fold, (chain_models, circle_bundle))


@pytest.fixture
def gram_checks(monkeypatch):
    """Record every Gram check (``spectral._gram_factor``), under each name
    the package calls it by."""
    return _count_calls(monkeypatch, spectral._gram_factor, (spectral, chain_models))
