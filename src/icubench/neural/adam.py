"""Adam updates over a model's named parameter dict."""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..errors import TrainingError

#: Adam's moment decay rates and denominator floor, the defaults of Kingma & Ba.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction; updates parameters in place."""

    def __init__(
        self,
        params: Mapping[str, np.ndarray],
        trainable: Iterable[str] | None = None,
        step_size: float = 1e-3,
    ):
        self.params = params
        self.trainable = list(trainable) if trainable is not None else list(params)
        self.step_size = step_size
        self.t = 0
        self.m = {k: np.zeros_like(params[k]) for k in self.trainable}
        self.v = {k: np.zeros_like(params[k]) for k in self.trainable}

    def step(self, grads: Mapping[str, np.ndarray], batch_id: str | None = None) -> None:
        self.t += 1
        for name in self.trainable:
            g = grads[name]
            if not np.all(np.isfinite(g)):
                where = f" ({batch_id})" if batch_id else ""
                raise TrainingError(f"non-finite gradient in {name!r}{where}")
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1**self.t)
            v_hat = v / (1.0 - BETA2**self.t)
            self.params[name] -= self.step_size * m_hat / (np.sqrt(v_hat) + EPS)
