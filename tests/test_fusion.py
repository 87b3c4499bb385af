import numpy as np
import pytest

import composed
from gedraft import autodiff as ad
from gedraft.autodiff import Tensor
from gedraft.fusion import (
    VARIANTS,
    diffatt,
    diffatt_pair,
    fuse,
    init_fusion_params,
    no_fusion,
    per_scale_width,
)

SOFTMAX_1_0 = (0.7310585786300049, 0.2689414213699951)  # softmax([1, 0])


def make_inputs(hidden=6, batch=4, seed=0):
    rng = np.random.default_rng(seed)
    return (
        Tensor(rng.normal(size=(batch, hidden))),
        Tensor(rng.normal(size=(batch, hidden))),
    )


def params_for(variant, hidden=6, temperature="learnable", seed=0):
    return init_fusion_params(
        np.random.default_rng(seed), variant, hidden, temperature, ntn_slices=3, efn_reduction=2
    )


def test_alpha_is_a_distribution():
    h_i, h_j = make_inputs()
    p = params_for("diffatt")
    _, _, alpha = diffatt(h_i, h_j, p)
    a = alpha.values
    assert np.allclose(a.sum(axis=-1), 1.0, atol=1e-12)
    assert (a > 0).all()


def test_alpha_swap_invariant_exactly():
    h_i, h_j = make_inputs()
    p = params_for("diffatt")
    u_i, u_j, alpha = diffatt(h_i, h_j, p)
    v_j, v_i, alpha_swapped = diffatt(h_j, h_i, p)
    assert np.array_equal(alpha.values, alpha_swapped.values)
    assert np.array_equal(u_i.values, v_i.values)
    assert np.array_equal(u_j.values, v_j.values)


def test_identical_inputs_give_equal_outputs():
    h, _ = make_inputs()
    p = params_for("diffatt")
    u_i, u_j, _ = diffatt(h, h, p)
    assert np.array_equal(u_i.values, u_j.values)


def test_huge_temperature_gives_uniform_alpha():
    h_i, h_j = make_inputs()
    p = params_for("diffatt", temperature=1e6)
    _, _, alpha = diffatt(h_i, h_j, p, temperature=1e6)
    assert np.allclose(alpha.values, 1.0 / h_i.shape[-1], atol=1e-6)


def test_softmax_worked_example():
    # hidden=2 with an MLP rigged to the identity: logits |h_i - h_j| = [1, 0]
    p = {
        "fusion.mlp.W1": Tensor(np.eye(2)),
        "fusion.mlp.b1": Tensor(np.zeros(2)),
        "fusion.mlp.W2": Tensor(np.eye(2)),
        "fusion.mlp.b2": Tensor(np.zeros(2)),
    }
    h_i = Tensor(np.array([[2.0, 1.0]]))
    h_j = Tensor(np.array([[1.0, 1.0]]))
    _, _, alpha = diffatt(h_i, h_j, p, temperature=1.0)
    assert alpha.values[0, 0] == pytest.approx(SOFTMAX_1_0[0], abs=1e-15)
    assert alpha.values[0, 1] == pytest.approx(SOFTMAX_1_0[1], abs=1e-15)


def test_learnable_temperature_matches_fixed_at_init():
    # log_t initializes to 0, i.e. t = 1
    h_i, h_j = make_inputs()
    p = params_for("diffatt")
    _, _, learnable = diffatt(h_i, h_j, p, "learnable")
    _, _, fixed = diffatt(h_i, h_j, p, 1.0)
    assert np.allclose(learnable.values, fixed.values, atol=1e-15)


def test_temperature_gradient_flows():
    h_i, h_j = make_inputs()
    p = params_for("diffatt")
    u_i, _, _ = diffatt(h_i, h_j, p, "learnable")
    ad.backward(ad.reduce_sum(ad.mul(u_i, u_i)))
    assert p["fusion.log_t"].grad is not None


@pytest.mark.parametrize("variant", VARIANTS)
def test_fused_width(variant):
    hidden = 6
    h_i, h_j = make_inputs(hidden)
    p = params_for(variant, hidden)
    out = fuse(variant, h_i, h_j, p, ntn_slices=3)
    assert out.shape == (4, per_scale_width(variant, hidden, 3))


def test_abs_square_fusion_values():
    h_i = Tensor(np.array([[1.0, -2.0]]))
    h_j = Tensor(np.array([[3.0, 1.0]]))
    assert np.array_equal(fuse("abs", h_i, h_j, {}).values, [[2.0, 3.0]])
    assert np.array_equal(fuse("square", h_i, h_j, {}).values, [[4.0, 9.0]])


def test_none_fusion_is_concat():
    h_i, h_j = make_inputs()
    out = no_fusion(h_i, h_j).values
    assert np.array_equal(out, np.concatenate([h_i.values, h_j.values], axis=-1))


def test_ntn_symmetric_ranges():
    h_i, h_j = make_inputs()
    p = params_for("ntn")
    out = fuse("ntn", h_i, h_j, p, ntn_slices=3).values
    assert (np.abs(out) <= 1.0).all()  # tanh output


def test_unknown_variant_rejected():
    h_i, h_j = make_inputs()
    with pytest.raises(ValueError):
        fuse("bilinear", h_i, h_j, {})
    with pytest.raises(ValueError):
        init_fusion_params(np.random.default_rng(0), "bilinear", 4)


def test_distance_symmetry():
    h_i, h_j = make_inputs()
    assert np.array_equal(
        fuse("abs", h_i, h_j, {}).values, fuse("abs", h_j, h_i, {}).values
    )
    assert np.array_equal(
        fuse("square", h_i, h_j, {}).values, fuse("square", h_j, h_i, {}).values
    )


@pytest.mark.parametrize("temperature", ["learnable", 0.5])
def test_fused_diffatt_matches_composed_bit_for_bit(temperature):
    h0_i, h0_j = (t.values for t in make_inputs(hidden=6, batch=5, seed=3))
    h0_j[2] = h0_i[2]  # a pair of equal embeddings: |h_i - h_j| at its kink
    p0 = params_for("diffatt", temperature=temperature)
    if temperature == "learnable":
        p0["fusion.log_t"] = Tensor(np.array(0.3))
    names = sorted(p0)
    results = []
    for pair in (diffatt_pair, composed.diffatt_pair):
        h_i, h_j = Tensor(h0_i.copy(), requires_grad=True), Tensor(h0_j.copy(), requires_grad=True)
        ps = [Tensor(p0[n].values.copy(), requires_grad=True) for n in names]
        results.append(composed.run_with_grads(
            lambda h_i, h_j, *ts: pair(h_i, h_j, dict(zip(names, ts)), temperature)[0],
            [h_i, h_j, *ps],
        ))
    assert results[0] == results[1]


def test_diffatt_halves_are_the_fused_node():
    h_i, h_j = make_inputs()
    p = params_for("diffatt")
    u_i, u_j, alpha = diffatt(h_i, h_j, p)
    both, alpha_ref = composed.diffatt_pair(h_i, h_j, p)
    assert np.concatenate([u_i.values, u_j.values], axis=-1).tobytes() == both.values.tobytes()
    assert alpha.values.tobytes() == alpha_ref.tobytes()


@pytest.mark.parametrize("temperature", [float("inf"), 10**400, 0.0, -1.0])
def test_init_and_diffatt_reject_a_temperature_out_of_range(temperature):
    with pytest.raises(ValueError, match="temperature"):
        params_for("diffatt", temperature=temperature)
    h_i, h_j = make_inputs()
    with pytest.raises(ValueError, match="temperature"):
        diffatt(h_i, h_j, params_for("diffatt", temperature=1.0), temperature)


def test_init_accepts_a_large_finite_temperature():
    assert "fusion.log_t" not in params_for("diffatt", temperature=1e6)


@pytest.mark.parametrize("slices, reduction", [(0, 2), (3, 0)])
def test_init_rejects_fewer_than_one_slice_or_reduction(slices, reduction):
    with pytest.raises(ValueError, match="ntn_slices"):
        init_fusion_params(np.random.default_rng(0), "ntn", 4, ntn_slices=slices,
                           efn_reduction=reduction)
