import importlib
import pkgutil

import pytest

import ospq


@pytest.fixture(scope="session")
def ospq_memos():
    """Every memo of the package by dotted name: each object with a
    ``cache_clear`` found on an ``ospq`` module (``ospq.cli`` included), so
    a new memo is cleared without being listed here."""
    memos = {}
    for info in pkgutil.iter_modules(ospq.__path__):
        module = importlib.import_module("ospq." + info.name)
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                memos["%s.%s" % (value.__module__, value.__qualname__)] = value
    return memos


@pytest.fixture(autouse=True)
def _fresh_memos(ospq_memos):
    """Start every test with no character, w -> 1 table, reassembly piece,
    evaluation transcendental, sine table, family S-matrix or S~ kept from
    an earlier one, so a test that monkeypatches a builder sees it called."""
    for memo in ospq_memos.values():
        memo.cache_clear()
