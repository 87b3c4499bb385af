import numpy as np
import pytest

from gedraft.metrics import evaluate
from gedraft.model import ModelConfig, forward_pairs, init_params, params_equal
from gedraft.training import TrainConfig, train, validation_steps

CFG = ModelConfig(alphabet_size=3, hidden=8, layers=2, readout="gca", fusion="diffatt", seed=0)
TC = TrainConfig(epochs=4, batch_size=16, lr=0.003, validations=6, seed=0)


def test_train_config_validation():
    for bad in (dict(epochs=0), dict(batch_size=0), dict(validations=0), dict(lr=0.0),
                dict(lr=float("inf")), dict(val_window=0.0), dict(val_window=1.5)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    for bad in (dict(epochs=2.5), dict(epochs=True), dict(batch_size="8"), dict(lr=True),
                dict(lr="0.1"), dict(val_window=None), dict(seed=1.0)):
        with pytest.raises(ValueError, match="wrong type"):
            TrainConfig(**bad)
    # NumPy's default_rng refused it only when training began, naming neither
    # the key nor the flag
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        TrainConfig(seed=-1)
    assert TrainConfig(lr=1, val_window=1).lr == 1


def test_validation_steps_cover_final_window():
    steps = validation_steps(100, TrainConfig(validations=20, val_window=0.5))
    assert steps[0] >= 50
    assert steps[-1] == 100
    assert len(steps) <= 20
    assert steps == sorted(set(steps))


def test_validation_steps_small_run():
    steps = validation_steps(3, TrainConfig(validations=20))
    assert steps and steps[-1] == 3


def test_training_improves_over_init(tiny_dataset):
    from gedraft.training import _pair_views, validation_loss

    best, history = train(CFG, TC, tiny_dataset)
    val_graphs, val_sims = _pair_views(tiny_dataset, "val")
    init_loss = validation_loss(init_params(CFG), CFG, val_graphs, val_sims)
    trained_loss = validation_loss(best, CFG, val_graphs, val_sims)
    assert trained_loss < init_loss


def test_history_structure(tiny_dataset):
    _, history = train(CFG, TC, tiny_dataset)
    steps = [s for s, _ in history["train_loss"]]
    assert steps == list(range(1, len(steps) + 1))
    assert history["val_loss"]
    assert history["best_step"] in {s for s, _ in history["val_loss"]}
    best_recorded = min(v for _, v in history["val_loss"])
    recorded = dict(history["val_loss"])
    assert recorded[history["best_step"]] == best_recorded


def test_best_params_match_least_validation_loss(tiny_dataset):
    from gedraft.training import _pair_views, validation_loss

    best, history = train(CFG, TC, tiny_dataset)
    val_graphs, val_sims = _pair_views(tiny_dataset, "val")
    assert validation_loss(best, CFG, val_graphs, val_sims) == min(
        v for _, v in history["val_loss"]
    )


def test_training_deterministic(tiny_dataset):
    a, ha = train(CFG, TC, tiny_dataset)
    b, hb = train(CFG, TC, tiny_dataset)
    assert params_equal(a, b)
    assert ha == hb


def test_different_seed_changes_result(tiny_dataset):
    a, _ = train(CFG, TC, tiny_dataset)
    b, _ = train(CFG, TrainConfig(epochs=4, batch_size=16, lr=0.003, validations=6, seed=1), tiny_dataset)
    assert not params_equal(a, b)


def test_evaluate_report_shape(tiny_dataset):
    best, _ = train(CFG, TC, tiny_dataset)
    report = evaluate(best, CFG, tiny_dataset, ks=(3, 5))
    assert report.mse_e3 >= 0
    assert -1 <= report.rho <= 1
    assert -1 <= report.tau <= 1
    assert set(report.p_at) == {3, 5}
    assert all(0 <= v <= 1 for v in report.p_at.values())
    assert report.num_pairs == len(tiny_dataset.split_pairs("test"))


def test_evaluate_perfect_predictions_scores_one(tiny_dataset):
    # replace model scoring with the labels themselves via a stub
    import gedraft.metrics as metrics

    labels = {(p.i, p.j): p.sim for p in tiny_dataset.split_pairs("test")}
    original = metrics.predict_pairs
    try:
        metrics.predict_pairs = lambda pair_list, ds, params, cfg: np.asarray(
            [labels[(p.i, p.j)] for p in pair_list]
        )
        report = metrics.evaluate(None, CFG, tiny_dataset, ks=(3,))
    finally:
        metrics.predict_pairs = original
    assert report.mse_e3 == 0.0
    assert report.rho == pytest.approx(1.0, abs=1e-12)
    assert report.tau == pytest.approx(1.0, abs=1e-12)
    assert report.p_at[3] == 1.0


def test_validation_loss_builds_no_tape(tiny_dataset, monkeypatch):
    from gedraft import model, training

    graphs, sims = training._pair_views(tiny_dataset, "val")
    params = init_params(CFG)
    outputs = []

    def recorded(*args):
        outputs.append(forward_pairs(*args))
        return outputs[-1]

    monkeypatch.setattr(model, "forward_pairs", recorded)
    monkeypatch.setattr(model, "PREDICT_CHUNK", 7)
    value = training.validation_loss(params, CFG, graphs, sims)
    assert len(outputs) > 1 and not any(o.requires_grad or o._parents for o in outputs)
    assert all(t.grad is None for t in params.values())
    # the same run with the tape on gives the same bits
    outputs.clear()
    monkeypatch.setattr(model, "frozen", lambda p: p)
    taped = training.validation_loss(params, CFG, graphs, sims)
    assert all(o.requires_grad for o in outputs)
    assert taped == value
