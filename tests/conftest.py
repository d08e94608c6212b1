"""Every test starts with an empty Gram memo (``colsel.linalg._gram_memo``),
as a fresh process does, so no eigensolve count or perturbed ``eigh`` depends
on the Gram an earlier test solved last."""

import pytest

import colsel.linalg


@pytest.fixture(autouse=True)
def _cold_gram_memo(monkeypatch):
    monkeypatch.setattr(colsel.linalg, "_gram_memo", None)
