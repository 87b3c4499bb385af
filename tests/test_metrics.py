import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gedraft.metrics import (
    average_ranks,
    evaluate,
    kendall_checked,
    precision_at_k,
    spearman_checked,
)
from gedraft.model import ModelConfig, forward_pairs, init_params

# worked examples, hand-derived by exhaustive pair counting with tie
# correction and cross-checked against an independent implementation
TAU_B_1223_1324 = 0.912870929175277  # xs=(1,2,2,3), ys=(1,3,2,4)
TAU_B_1223_1423 = 0.5477225575051661  # xs=(1,2,2,3), ys=(1,4,2,3) (tie case)
RHO_1223_1324 = 0.9486832980505138  # Pearson on ranks (1,2.5,2.5,4),(1,3,2,4)


def spearman(xs, ys):
    return spearman_checked(xs, ys).value


def kendall(xs, ys):
    return kendall_checked(xs, ys).value


def test_average_ranks_with_ties():
    assert np.array_equal(average_ranks([1, 2, 2, 3]), [1.0, 2.5, 2.5, 4.0])
    assert np.array_equal(average_ranks([5, 5, 5]), [2.0, 2.0, 2.0])
    assert np.array_equal(average_ranks([30, 10, 20]), [3.0, 1.0, 2.0])


def test_perfect_and_reversed_correlation():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)
    assert kendall([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)
    assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
    assert kendall([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_tau_b_worked_examples():
    assert kendall((1, 2, 2, 3), (1, 3, 2, 4)) == pytest.approx(TAU_B_1223_1324, abs=1e-12)
    assert kendall((1, 2, 2, 3), (1, 4, 2, 3)) == pytest.approx(TAU_B_1223_1423, abs=1e-12)


def test_rho_worked_example():
    assert spearman((1, 2, 2, 3), (1, 3, 2, 4)) == pytest.approx(RHO_1223_1324, abs=1e-12)


def test_constant_input_flagged_undefined():
    rho = spearman_checked([1, 1, 1], [1, 2, 3])
    tau = kendall_checked([2, 2], [0, 1])
    assert rho == (0.0, False)
    assert tau == (0.0, False)


def test_length_mismatch_and_short_input():
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        kendall([1, 2], [1])
    with pytest.raises(ValueError):
        spearman([1], [2])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=12).flatmap(
        lambda xs: st.tuples(
            st.just(xs), st.lists(st.integers(-5, 5), min_size=len(xs), max_size=len(xs))
        )
    )
)
def test_matches_reference_implementation(pair):
    xs, ys = pair
    ours_rho = spearman_checked(xs, ys)
    ours_tau = kendall_checked(xs, ys)
    with warnings.catch_warnings():
        # constant inputs: the reference warns and returns nan, which we
        # map to the undefined flag below
        warnings.simplefilter("ignore")
        ref_rho = stats.spearmanr(xs, ys).statistic
        ref_tau = stats.kendalltau(xs, ys).statistic
    if ours_rho.defined:
        assert ours_rho.value == pytest.approx(ref_rho, abs=1e-12)
    else:
        assert math.isnan(ref_rho)
    if ours_tau.defined:
        assert ours_tau.value == pytest.approx(ref_tau, abs=1e-12)
    else:
        assert math.isnan(ref_tau)


# integer inputs keep exp(x / 10) strictly monotone in floating point;
# denormal floats would collapse to equal transformed values
@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-10, 10), min_size=2, max_size=10).flatmap(
        lambda xs: st.tuples(
            st.just(xs),
            st.lists(st.integers(-10, 10), min_size=len(xs), max_size=len(xs)),
        )
    )
)
def test_invariance_under_monotone_transform(pair):
    xs, ys = pair
    exp_xs = [math.exp(x / 10) for x in xs]
    assert spearman(xs, ys) == pytest.approx(spearman(exp_xs, ys), abs=1e-9)
    assert kendall(xs, ys) == pytest.approx(kendall(exp_xs, ys), abs=1e-9)


def test_precision_at_k_perfect_and_half():
    true = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    assert precision_at_k(true, true, 3) == 1.0
    # predictions put exactly one of the true top-2 in the predicted top-2
    pred = [0.9, 0.1, 0.8, 0.2, 0.3, 0.4]
    assert precision_at_k(pred, true, 2) == 0.5


def test_precision_at_k_true_boundary_ties_expand():
    # items 1, 2, 3 all tie at the k=2 boundary: true top-2 set expands
    true = [1.0, 0.5, 0.5, 0.5]
    pred = [0.9, 0.0, 0.8, 0.0]
    assert precision_at_k(pred, true, 2) == 1.0


def test_precision_at_k_predicted_ties_break_by_id():
    true = [1.0, 0.9, 0.1]
    pred = [0.5, 0.5, 0.5]  # all tied: ids 0 and 1 win for k=2
    assert precision_at_k(pred, true, 2, ids=["a", "b", "c"]) == 1.0
    # reversed ids flip which tied predictions make the cut
    assert precision_at_k(pred, true, 2, ids=["c", "b", "a"]) == 0.5


def test_precision_at_k_invariant_under_monotone_transform():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=30)
    true = rng.normal(size=30)
    base = precision_at_k(pred, true, 10)
    assert precision_at_k(np.exp(pred), true, 10) == base


def test_precision_at_k_requires_enough_items():
    with pytest.raises(ValueError):
        precision_at_k([1.0, 2.0], [1.0, 2.0], 3)


@pytest.mark.parametrize("k", [0, -1])
def test_precision_at_k_rejects_k_below_one(k):
    with pytest.raises(ValueError):
        precision_at_k([1.0, 2.0], [1.0, 2.0], k)


@pytest.mark.parametrize("k", [0, -1])
def test_evaluate_rejects_k_below_one(tiny_dataset, k):
    cfg = ModelConfig(alphabet_size=3, hidden=4, layers=1, readout="mean", fusion="abs")
    with pytest.raises(ValueError, match="k >= 1"):
        evaluate(init_params(cfg), cfg, tiny_dataset, ks=(10, k))


def test_predict_pairs_builds_no_tape(tiny_dataset, monkeypatch):
    from gedraft import metrics, model

    cfg = ModelConfig(alphabet_size=3, hidden=8, layers=2, readout="gca", fusion="diffatt")
    params = init_params(cfg)
    pairs = tiny_dataset.split_pairs("test")
    outputs = []

    def recorded(*args):
        outputs.append(forward_pairs(*args))
        return outputs[-1]

    monkeypatch.setattr(model, "forward_pairs", recorded)
    monkeypatch.setattr(model, "PREDICT_CHUNK", 50)
    preds = metrics.predict_pairs(pairs, tiny_dataset, params, cfg)
    assert len(outputs) > 1 and not any(o.requires_grad or o._parents for o in outputs)
    assert all(t.grad is None for t in params.values())
    # the same run with the tape on gives the same bits
    outputs.clear()
    monkeypatch.setattr(model, "frozen", lambda p: p)
    taped = metrics.predict_pairs(pairs, tiny_dataset, params, cfg)
    assert all(o.requires_grad for o in outputs)
    assert np.array_equal(taped, preds)
