"""Training loop with validation-based model selection.

Mini-batches are reshuffled every epoch from a seeded generator. The
validation loss is measured at 20 points spaced uniformly over the final
half of all optimizer steps, and the parameters with the least validation
loss are returned (earliest such point on ties, for determinism).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import backward
from .model import ModelConfig, batch_loss, check_field_types, copy_params, init_params, predict
from .optim import Adam


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 18
    batch_size: int = 128
    lr: float = 0.001
    validations: int = 20
    val_window: float = 0.5  # fraction of total steps covered by validation
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 1 or self.batch_size < 1 or self.validations < 1:
            raise ValueError("epochs, batch_size, validations must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not 0 < self.val_window <= 1:
            raise ValueError("val_window must be in (0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _pair_views(dataset, split):
    pairs = dataset.split_pairs(split)
    graphs = [(dataset.graph(p.i), dataset.graph(p.j)) for p in pairs]
    sims = np.asarray([p.sim for p in pairs])
    return graphs, sims


def validation_loss(params, cfg, graphs, sims) -> float:
    """Mean squared error of ``predict`` over the graph pairs."""
    return float(((predict(graphs, params, cfg) - sims) ** 2).mean())


def _finite(loss: float, what: str, step: int) -> float:
    if not math.isfinite(loss):
        raise FloatingPointError(f"training diverged: non-finite {what} loss {loss} at step {step}")
    return loss


def validation_steps(total_steps: int, cfg: TrainConfig):
    first = max(1, int(np.ceil(total_steps * (1 - cfg.val_window))))
    pts = np.linspace(first, total_steps, cfg.validations)
    return sorted(set(int(round(p)) for p in pts))


def train(model_cfg: ModelConfig, train_cfg: TrainConfig, dataset, quiet=True):
    """Returns (best_params, history).

    history: {"train_loss": [(step, loss)], "val_loss": [(step, loss)],
    "best_step": int}. FloatingPointError, naming the step, at the first
    training or validation loss that is not finite.
    """
    train_graphs, train_sims = _pair_views(dataset, "train")
    val_graphs, val_sims = _pair_views(dataset, "val")
    if not train_graphs:
        raise ValueError("dataset has no train pairs")
    if not val_graphs:
        raise ValueError("dataset has no val pairs")
    params = init_params(model_cfg)
    opt = Adam(params, lr=train_cfg.lr)
    rng = np.random.default_rng(train_cfg.seed)
    n = len(train_graphs)
    bs = train_cfg.batch_size
    steps_per_epoch = (n + bs - 1) // bs
    total_steps = train_cfg.epochs * steps_per_epoch
    val_at = set(validation_steps(total_steps, train_cfg))

    history = {"train_loss": [], "val_loss": [], "best_step": None}
    best_loss = None
    best_params = copy_params(params)
    step = 0
    for _epoch in range(train_cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, bs):
            idx = perm[start : start + bs]
            batch = [train_graphs[i] for i in idx]
            sims = train_sims[idx]
            opt.zero_grad()
            loss = batch_loss(batch, sims, params, model_cfg)
            step += 1
            history["train_loss"].append((step, _finite(float(loss.values), "training", step)))
            backward(loss)
            opt.step()
            if step in val_at:
                vloss = validation_loss(params, model_cfg, val_graphs, val_sims)
                _finite(vloss, "validation", step)
                history["val_loss"].append((step, vloss))
                if best_loss is None or vloss < best_loss:
                    best_loss = vloss
                    best_params = copy_params(params)
                    history["best_step"] = step
                if not quiet:
                    print(f"step {step}/{total_steps}  val_loss {vloss:.6f}")
    return best_params, history
