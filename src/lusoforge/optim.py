"""Adam with decoupled weight decay, keyed by parameter name.

Moment buffers live in plain float32 numpy arrays parallel to the parameter
dict. step() checks every gradient for NaN/inf before touching parameters
and aborts with the offending parameter's name, so a poisoned update never
lands. The moments and the parameters are updated in place, through one
scratch buffer per parameter; a parameter array therefore must not be
shared with anything that expects it to stay fixed (models copy the arrays
they are built from). The moment decays BETA1 and BETA2, the denominator's
EPS and the name tags DECAY_SKIP of the parameters exempt from weight decay
are module constants; only the learning rate and the decay are settings.

A group of G fine-tuning runs stacks its parameters [G, ...] and gives `lr`
as G rates, one per slice: each slice then rounds as a run at its one rate.
"""

from __future__ import annotations

import numpy as np

from lusoforge.autodiff import Tensor
from lusoforge.errors import NumericalError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-6
DECAY_SKIP = (".b", "bias", "gain", "ln.")  # biases and layer-norm parameters


class Adam:
    def __init__(self, params: dict[str, Tensor], lr=1e-3, weight_decay: float = 0.01):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def _decays(self, name: str) -> bool:
        return not any(tag in name for tag in DECAY_SKIP)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self) -> list[NumericalError | None]:
        """One update over every parameter that has a gradient. With one
        rate, a non-finite gradient raises NumericalError before any
        parameter changes. With a rate per slice, it returns per slice the
        error of its first non-finite gradient, or None; a failed slice stays."""
        lr = np.asarray(self.lr, dtype=np.float64)
        errors: list[NumericalError | None] = [None] * lr.size
        for name, p in self.params.items():
            if p.grad is None:
                continue
            for g in np.flatnonzero(~np.isfinite(p.grad).reshape(lr.size, -1).all(axis=1)):
                if errors[g] is None:
                    errors[g] = NumericalError(f"non-finite gradient in parameter '{name}'")
                if not lr.ndim:
                    raise errors[g]
        failed = [g for g, e in enumerate(errors) if e is not None]
        if failed:
            lr = np.where([e is None for e in errors], lr, 0.0)
            for p in self.params.values():
                if p.grad is not None:
                    p.grad[failed] = 0.0
        self.t += 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            s = np.empty_like(p.data)  # the one scratch buffer of this update
            np.multiply(g, 1.0 - b1, out=s)
            m *= b1
            m += s
            np.multiply(g, g, out=s)
            s *= 1.0 - b2
            v *= b2
            v += s
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += EPS
            np.divide(m, s, out=s)
            # in the parameter's dtype, as a Python-float rate would be
            span = lr.shape + (1,) * (p.ndim - lr.ndim)
            s *= (lr / bc1).astype(p.dtype).reshape(span)
            if self.weight_decay and self._decays(name):
                p.data *= (1.0 - lr * self.weight_decay).astype(p.dtype).reshape(span)
            p.data -= s
        return errors
