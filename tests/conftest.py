import pytest

from ospq import characters, modular, qseries


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Start every test with no character, w -> 1 table, evaluation
    transcendental or check S~ kept from an earlier one, so a test that
    monkeypatches a builder sees it called."""
    for memo in (characters._osp_char, characters._sl2_char,
                 characters._vir_char, characters._w1_table,
                 qseries._exp_step, qseries._fixed_power, qseries._tail_factors,
                 modular._check_stilde):
        memo.cache_clear()
