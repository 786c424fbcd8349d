"""Adam with decoupled weight decay, keyed by parameter name.

Moment buffers live in plain float32 numpy arrays parallel to the parameter
dict. step() checks every gradient for NaN/inf before touching parameters
and aborts with the offending parameter's name, so a poisoned update never
lands. The moments and the parameters are updated in place; a parameter
array therefore must not be shared with anything that expects it to stay
fixed (models copy the arrays they are built from). The moment decays BETA1
and BETA2, the denominator's EPS and the name tags DECAY_SKIP of the
parameters exempt from weight decay are module constants; only the learning
rate and the decay are settings.

The check and the update hold one block in flight: they run over blocks of
at most _BLOCK entries of each parameter viewed as [slices, entries], the
update through one scratch block. Every op is elementwise, so the bits do
not depend on the block size, and a step needs no scratch as large as a
parameter (750 MiB for the xlarge preset's token table).

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
_BLOCK = 1 << 16


def _width(view: np.ndarray) -> int:
    """Columns of a block of the [slices, entries] `view`: at most _BLOCK entries."""
    return max(1, min(view.shape[1], _BLOCK // view.shape[0]))


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
            grad = p.grad.reshape(lr.size, -1)
            finite, w = np.ones(lr.size, dtype=bool), _width(grad)
            for c in range(0, grad.shape[1], w):
                finite &= np.isfinite(grad[:, c : c + w]).all(axis=1)
            for g in np.flatnonzero(~finite):
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
            if p.grad is None:
                continue
            grad = p.grad.reshape(lr.size, -1)
            m, v, data = (a.reshape(lr.size, -1, copy=False)
                          for a in (self.m[name], self.v[name], p.data))
            # one factor per slice, in the parameter's dtype, as a Python-float rate would be
            rate = (lr / bc1).astype(p.dtype).reshape(-1, 1)
            decay = ((1.0 - lr * self.weight_decay).astype(p.dtype).reshape(-1, 1)
                     if self.weight_decay and self._decays(name) else None)
            w = _width(grad)
            scratch = np.empty((lr.size, w), dtype=p.dtype)  # the one scratch block
            for c in range(0, grad.shape[1], w):
                g, mb, vb, x = (a[:, c : c + w] for a in (grad, m, v, data))
                s = scratch[:, : g.shape[1]]
                np.multiply(g, 1.0 - b1, out=s)
                mb *= b1
                mb += s
                np.multiply(g, g, out=s)
                s *= 1.0 - b2
                vb *= b2
                vb += s
                np.divide(vb, bc2, out=s)
                np.sqrt(s, out=s)
                s += EPS
                np.divide(mb, s, out=s)
                s *= rate
                if decay is not None:
                    x *= decay
                x -= s
        return errors
