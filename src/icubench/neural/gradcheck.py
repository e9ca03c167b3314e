"""Finite-difference verification of the analytic parameter gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Denominator floor: coordinates with gradients below this are compared in
# absolute terms (FD noise on an O(1) loss is ~1e-12, so genuine sign/scale
# bugs still surface as relative errors near 1).
_REL_FLOOR = 1e-5


@dataclass
class GradCheckResult:
    max_rel_error: float
    n_checked: int
    skipped_kinks: list[tuple[str, int]] = field(default_factory=list)

    def __str__(self):
        return (
            f"grad check: max rel error {self.max_rel_error:.3e} over {self.n_checked} coordinates "
            f"({len(self.skipped_kinks)} skipped at ReLU kinks)"
        )


def _sampled_coordinates(model, n_coords: int, rng: np.random.Generator):
    """At least n_coords coordinates (capacity permitting), with every
    trainable family represented."""
    names = model.trainable
    sizes = {name: model.params[name].size for name in names}
    target = min(n_coords, sum(sizes.values()))
    chosen: dict[str, set[int]] = {}
    for name in names:
        take = min(sizes[name], 2)
        chosen[name] = {int(i) for i in rng.choice(sizes[name], size=take, replace=False)}
    count = sum(len(c) for c in chosen.values())
    if count < target:
        pool = [(name, i) for name in names for i in range(sizes[name]) if i not in chosen[name]]
        extra = rng.choice(len(pool), size=target - count, replace=False)
        for j in extra:
            name, i = pool[int(j)]
            chosen[name].add(i)
    return [(name, i) for name in names for i in sorted(chosen[name])]


def grad_check(model, batch, eps: float = 1e-5, n_coords: int = 200, rng=None) -> GradCheckResult:
    """Compare analytic gradients with central differences on sampled coordinates.

    Coordinates where the two perturbed evaluations land on different sides
    of a ReLU kink are excluded from the error statistic and reported
    separately (the loss is not differentiable there).  The check runs on a
    float64 copy of the model, so a float32 model is left untouched and the
    differences are not swamped by float32 round-off.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    model = model.astype(np.float64)
    num, cat, labels = batch
    _, grads = model.loss_and_grads(num, cat, labels)

    max_rel = 0.0
    n_checked = 0
    skipped: list[tuple[str, int]] = []
    for name, flat_idx in _sampled_coordinates(model, n_coords, rng):
        param = model.params[name]
        orig = param.flat[flat_idx]
        param.flat[flat_idx] = orig + eps
        loss_plus, pre_plus = model.loss_forward(num, cat, labels)
        param.flat[flat_idx] = orig - eps
        loss_minus, pre_minus = model.loss_forward(num, cat, labels)
        param.flat[flat_idx] = orig

        kink = any(np.any(np.sign(zp) != np.sign(zm)) for zp, zm in zip(pre_plus, pre_minus))
        if kink:
            skipped.append((name, flat_idx))
            continue
        fd = (loss_plus - loss_minus) / (2.0 * eps)
        analytic = grads[name].flat[flat_idx]
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), _REL_FLOOR)
        max_rel = max(max_rel, rel)
        n_checked += 1
    return GradCheckResult(max_rel_error=max_rel, n_checked=n_checked, skipped_kinks=skipped)
