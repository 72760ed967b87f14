"""Fusion rings: window rule, frozen tables, ring axioms, parity decorations."""

import pytest
from hypothesis import given, settings, strategies as st

from ospq.characters import VirLabel
from ospq.fusion import (
    CosetLabel,
    FusionTensor,
    OutOfRange,
    SuperFusionEntry,
    n_coeff,
    osp_fusion,
    parafermion_fusion,
    sl2_fusion,
    super_fusion,
    vir_fusion,
)

st_window = st.integers(min_value=2, max_value=9)
st_sign = st.sampled_from((1, -1))


def window_rule(w, t, tp, tpp):
    """Independent statement of the 0/1 window rule (closed interval + parity)."""
    if (t + tp + tpp) % 2 == 0:
        return 0
    lo = abs(t - tp) + 1
    hi = min(t + tp - 1, 2 * w - t - tp - 1)
    return 1 if lo <= tpp <= hi else 0


# -- the scalar window rule ------------------------------------------------------


def test_window_rule_examples():
    assert n_coeff(3, 2, 2, 3) == 0  # reflected wall cuts the naive window
    assert n_coeff(5, 2, 2, 3) == 1
    assert n_coeff(5, 2, 2, 1) == 1
    assert n_coeff(5, 2, 2, 2) == 0  # parity
    assert n_coeff(5, 4, 4, 3) == 0
    assert n_coeff(5, 4, 4, 1) == 1


def test_window_rule_rejects_bad_inputs():
    with pytest.raises(OutOfRange):
        n_coeff(5, 0, 2, 1)
    with pytest.raises(OutOfRange):
        n_coeff(5, 5, 2, 1)
    with pytest.raises(OutOfRange):
        n_coeff(5, 2, -1, 1)
    with pytest.raises(OutOfRange):
        n_coeff(1, 1, 1, 1)
    with pytest.raises(OutOfRange):
        n_coeff(5, 2, 2, (1,))
    # the candidate slot tolerates any integer
    assert n_coeff(5, 2, 2, -7) == 0
    assert n_coeff(5, 2, 2, 11) == 0


@settings(max_examples=200, deadline=None)
@given(st_window, st.data())
def test_window_rule_matches_reference(w, data):
    t = data.draw(st.integers(min_value=1, max_value=w - 1))
    tp = data.draw(st.integers(min_value=1, max_value=w - 1))
    tpp = data.draw(st.integers(min_value=-3, max_value=2 * w + 3))
    assert n_coeff(w, t, tp, tpp) == window_rule(w, t, tp, tpp)


@settings(max_examples=200, deadline=None)
@given(st_window, st.data())
def test_window_rule_symmetries(w, data):
    t = data.draw(st.integers(min_value=1, max_value=w - 1))
    tp = data.draw(st.integers(min_value=1, max_value=w - 1))
    tpp = data.draw(st.integers(min_value=1, max_value=w - 1))
    assert n_coeff(w, t, tp, tpp) == n_coeff(w, tp, t, tpp)
    # full S3 symmetry on the in-window slots
    assert n_coeff(w, t, tpp, tp) == n_coeff(w, t, tp, tpp)
    # reflecting two slots through the wall leaves the rule invariant
    assert n_coeff(w, w - t, tp, w - tpp) == n_coeff(w, t, tp, tpp)


# -- frozen multiplication tables --------------------------------------------------


def test_fusion_table_level_one():
    ft = osp_fusion(1)
    assert ft.labels == (1, 2, 3, 4)
    assert ft.unit == 1
    assert ft.label_flags == {1: "local", 2: "twisted", 3: "local", 4: "twisted"}
    expected = {
        (2, 2): {1: 1, 3: 1},
        (2, 3): {2: 1, 4: 1},
        (2, 4): {3: 1},
        (3, 3): {1: 1, 3: 1},
        (3, 4): {2: 1},
        (4, 4): {1: 1},
    }
    for (a, b), want in expected.items():
        assert ft.product(a, b) == want, (a, b)
        assert ft.product(b, a) == want, (b, a)


def test_virasoro_table_u3_p5():
    vt = vir_fusion(3, 5)
    assert vt.unit == VirLabel(1, 1)
    assert vt.product(VirLabel(1, 2), VirLabel(1, 2)) == {
        VirLabel(1, 1): 1,
        VirLabel(1, 3): 1,
    }
    assert vt.product(VirLabel(1, 2), VirLabel(1, 3)) == {
        VirLabel(1, 2): 1,
        VirLabel(1, 4): 1,
    }
    assert vt.product(VirLabel(1, 4), VirLabel(1, 4)) == {VirLabel(1, 1): 1}


def test_affine_sl2_table():
    sf = sl2_fusion(2)
    assert sf.labels == (1, 2, 3)
    assert sf.product(2, 2) == {1: 1, 3: 1}
    assert sf.product(2, 3) == {2: 1}
    assert sf.product(3, 3) == {1: 1}


def test_parafermion_table_level_one():
    pf = parafermion_fusion(1)
    assert pf.labels == ((0, 1), (0, 3), (1, 1), (1, 3))
    assert pf.unit == (0, 1)
    assert pf.product((1, 1), (1, 1)) == {(0, 1): 1}
    assert pf.product((0, 3), (1, 3)) == {(1, 1): 1, (1, 3): 1}


def test_parafermion_charge_conservation():
    for k in (1, 2):
        pf = parafermion_fusion(k)
        for (a, b, c), n in pf.items():
            if n:
                assert (a[0] + b[0] - c[0]) % (2 * k) == 0, (a, b, c)


# -- ring axioms --------------------------------------------------------------------


RINGS = (
    [osp_fusion(k) for k in (1, 2, 3)]
    + [sl2_fusion(k) for k in (1, 2, 3)]
    + [vir_fusion(3, 5), vir_fusion(4, 7), vir_fusion(5, 9)]
    + [parafermion_fusion(k) for k in (1, 2)]
)


def _ring_id(ring):
    # Coset labels print as plain (nu, r) pairs so the case names do not
    # depend on the label class.
    head = tuple(tuple(lab) if isinstance(lab, CosetLabel) else lab
                 for lab in ring.labels[:2])
    return repr(head) + str(len(ring.labels))


@pytest.mark.parametrize("ring", RINGS, ids=_ring_id)
def test_ring_axioms(ring):
    assert ring.verify_unit()
    assert ring.verify_commutativity()
    assert ring.verify_associativity()
    assert ring.verify_duality()


def test_unknown_label_rejected():
    ft = osp_fusion(1)
    with pytest.raises(OutOfRange):
        ft.product(1, 5)
    with pytest.raises(OutOfRange):
        ft.coeff(0, 1, 1)
    with pytest.raises(OutOfRange):
        FusionTensor((1, 2), 3, {})


def test_tensor_equality_ignores_label_order():
    a = FusionTensor((1, 2), 1, {(2, 2, 1): 1})
    b = FusionTensor((2, 1), 1, {(2, 2, 1): 1})
    c = FusionTensor((1, 2), 1, {(2, 2, 2): 1})
    assert a == b
    assert a != c


# -- parity-decorated ring ------------------------------------------------------------


def test_super_entries_level_one():
    assert super_fusion(1, 2, 1, 2, 1, 1, 1) == SuperFusionEntry(1, 0)
    assert super_fusion(1, 2, 1, 2, 1, 3, 1) == SuperFusionEntry(1, 0)
    assert super_fusion(1, 2, 1, 2, -1, 1, -1) == SuperFusionEntry(1, 0)
    assert super_fusion(1, 2, 1, 2, 1, 3, -1) == SuperFusionEntry(0, 1)
    e = super_fusion(1, 2, 1, 2, 1, 3, -1)
    assert e.sdim == -1
    assert e.total_dim == 1


def test_super_entries_project_to_plain_ring():
    for k in (1, 2):
        ft = osp_fusion(k)
        for a in ft.labels:
            for b in ft.labels:
                for c in ft.labels:
                    e = super_fusion(k, a, 1, b, 1, c, 1)
                    assert e.total_dim == ft.coeff(a, b, c), (a, b, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st_sign, st_sign, st_sign, st.data())
def test_super_entry_parity_depends_on_sign_product(k, e1, e2, e3, data):
    w = 2 * k + 2
    a = data.draw(st.integers(min_value=1, max_value=w))
    b = data.draw(st.integers(min_value=1, max_value=w))
    c = data.draw(st.integers(min_value=1, max_value=w))
    entry = super_fusion(k, a, e1, b, e2, c, e3)
    flipped = super_fusion(k, a, -e1, b, -e2, c, e3)
    assert entry.total_dim == flipped.total_dim
    if e1 * e2 * e3 == 1:
        assert entry.odd_dim == 0
    else:
        assert entry.even_dim == 0
