import pytest

from ospq import characters


@pytest.fixture(autouse=True)
def _fresh_w1_table():
    """Start every test with no w -> 1 table kept from an earlier one, so a
    test that monkeypatches a character builder sees it called."""
    characters._w1_table.cache_clear()
