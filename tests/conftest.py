import pytest

from ospq import characters


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Start every test with no character or w -> 1 table kept from an
    earlier one, so a test that monkeypatches a builder sees it called."""
    for memo in (characters._osp_char, characters._sl2_char,
                 characters._vir_char, characters._w1_table):
        memo.cache_clear()
