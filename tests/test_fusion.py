import dataclasses

import numpy as np
import pytest

import composed
from gedraft import autodiff as ad
from gedraft.autodiff import Tensor
from gedraft.fusion import VARIANTS, diffatt_pair, fuse, init_fusion_params
from gedraft.model import ModelConfig

SOFTMAX_1_0 = (0.7310585786300049, 0.2689414213699951)  # softmax([1, 0])


def make_inputs(hidden=6, batch=4, seed=0):
    rng = np.random.default_rng(seed)
    return (
        Tensor(rng.normal(size=(batch, hidden))),
        Tensor(rng.normal(size=(batch, hidden))),
    )


def config(variant, hidden=6, temperature="learnable", ntn_slices=3, efn_reduction=2):
    return ModelConfig(alphabet_size=3, hidden=hidden, fusion=variant, temperature=temperature,
                       ntn_slices=ntn_slices, efn_reduction=efn_reduction)


def params_for(variant, hidden=6, temperature="learnable", seed=0, **options):
    cfg = config(variant, hidden, temperature, **options)
    return init_fusion_params(np.random.default_rng(seed), cfg)


def diffatt(h_i, h_j, params, temperature="learnable"):
    """(u_i, u_j, alpha): diffatt_pair's node cut into its two halves."""
    both, alpha = diffatt_pair(h_i, h_j, params, temperature)
    h = alpha.shape[-1]
    return both.values[..., :h], both.values[..., h:], alpha


def test_alpha_is_a_distribution():
    h_i, h_j = make_inputs()
    p = params_for("diffatt")
    _, _, a = diffatt(h_i, h_j, p)
    assert np.allclose(a.sum(axis=-1), 1.0, atol=1e-12)
    assert (a > 0).all()


def test_alpha_swap_invariant_exactly():
    h_i, h_j = make_inputs()
    p = params_for("diffatt")
    u_i, u_j, alpha = diffatt(h_i, h_j, p)
    v_j, v_i, alpha_swapped = diffatt(h_j, h_i, p)
    assert np.array_equal(alpha, alpha_swapped)
    assert np.array_equal(u_i, v_i)
    assert np.array_equal(u_j, v_j)


def test_identical_inputs_give_equal_outputs():
    h, _ = make_inputs()
    p = params_for("diffatt")
    u_i, u_j, _ = diffatt(h, h, p)
    assert np.array_equal(u_i, u_j)


def test_huge_temperature_gives_uniform_alpha():
    h_i, h_j = make_inputs()
    p = params_for("diffatt", temperature=1e6)
    _, _, alpha = diffatt(h_i, h_j, p, temperature=1e6)
    assert np.allclose(alpha, 1.0 / h_i.shape[-1], atol=1e-6)


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
    assert alpha[0, 0] == pytest.approx(SOFTMAX_1_0[0], abs=1e-15)
    assert alpha[0, 1] == pytest.approx(SOFTMAX_1_0[1], abs=1e-15)


def test_learnable_temperature_matches_fixed_at_init():
    # log_t initializes to 0, i.e. t = 1
    h_i, h_j = make_inputs()
    p = params_for("diffatt")
    _, _, learnable = diffatt(h_i, h_j, p, "learnable")
    _, _, fixed = diffatt(h_i, h_j, p, 1.0)
    assert np.allclose(learnable, fixed, atol=1e-15)


def test_temperature_gradient_flows():
    h_i, h_j = make_inputs()
    p = params_for("diffatt")
    both, _ = diffatt_pair(h_i, h_j, p, "learnable")
    ad.backward(ad.reduce_sum(ad.mul(both, both)))
    assert p["fusion.log_t"].grad is not None


@pytest.mark.parametrize("variant", VARIANTS)
def test_fused_width(variant):
    hidden = 6
    h_i, h_j = make_inputs(hidden)
    cfg = config(variant, hidden)
    out = fuse(h_i, h_j, params_for(variant, hidden), cfg)
    assert out.shape == (4, cfg.fused_dim // (cfg.layers + 1))


def test_abs_square_fusion_values():
    h_i = Tensor(np.array([[1.0, -2.0]]))
    h_j = Tensor(np.array([[3.0, 1.0]]))
    assert np.array_equal(fuse(h_i, h_j, {}, config("abs", hidden=2)).values, [[2.0, 3.0]])
    assert np.array_equal(fuse(h_i, h_j, {}, config("square", hidden=2)).values, [[4.0, 9.0]])


def test_none_fusion_is_concat():
    h_i, h_j = make_inputs()
    out = fuse(h_i, h_j, {}, config("none")).values
    assert np.array_equal(out, np.concatenate([h_i.values, h_j.values], axis=-1))


def test_ntn_symmetric_ranges():
    h_i, h_j = make_inputs()
    p = params_for("ntn")
    out = fuse(h_i, h_j, p, config("ntn")).values
    assert (np.abs(out) <= 1.0).all()  # tanh output


def test_unknown_variant_rejected():
    # by the config that init_fusion_params and fuse take
    with pytest.raises(ValueError, match="bilinear"):
        params_for("bilinear")


def test_distance_symmetry():
    h_i, h_j = make_inputs()
    for variant in ("abs", "square"):
        cfg = config(variant)
        assert np.array_equal(fuse(h_i, h_j, {}, cfg).values, fuse(h_j, h_i, {}, cfg).values)


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
    # the node's halves are alpha * h_i and alpha * h_j, as composed
    h_i, h_j = make_inputs()
    p = params_for("diffatt")
    u_i, u_j, alpha = diffatt(h_i, h_j, p)
    both, alpha_ref = composed.diffatt_pair(h_i, h_j, p)
    assert np.concatenate([u_i, u_j], axis=-1).tobytes() == both.values.tobytes()
    assert alpha.tobytes() == alpha_ref.tobytes()
    assert u_i.tobytes() == (alpha * h_i.values).tobytes()
    assert u_j.tobytes() == (alpha * h_j.values).tobytes()


@pytest.mark.parametrize("temperature", [float("inf"), 10**400, 0.0, -1.0])
def test_init_and_diffatt_reject_a_temperature_out_of_range(temperature):
    # by the config that init_fusion_params and fuse take: it refuses the
    # value when built, and again when a valid one is copied with it
    with pytest.raises(ValueError, match="temperature"):
        params_for("diffatt", temperature=temperature)
    with pytest.raises(ValueError, match="temperature"):
        dataclasses.replace(config("diffatt", temperature=1.0), temperature=temperature)


def test_init_accepts_a_large_finite_temperature():
    assert "fusion.log_t" not in params_for("diffatt", temperature=1e6)


@pytest.mark.parametrize("slices, reduction", [(0, 2), (3, 0)])
def test_init_rejects_fewer_than_one_slice_or_reduction(slices, reduction):
    with pytest.raises(ValueError, match="ntn_slices"):
        params_for("ntn", ntn_slices=slices, efn_reduction=reduction)
