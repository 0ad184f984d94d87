"""A training step as a replay of numpy calls built once.

A step allocates nothing and does little but call numpy. Every array that a
forward and a backward pass write, and every view of them or of a model's
parameters that a step reads, lives in one StepBuffers, built once per model,
batch row count and gradient vector; Adam's moments, gradient and scratch
live in an AdamState. Each holds its passes as lists of functools.partial
calls over those arrays, with operands and out arrays bound once, so
nfdlm.neuralnet's step functions write the few per-step operands (the batch,
the labels, Adam's bias corrections) and replay a list. Every call keeps the
order and operand dtypes of the allocating form, so the bits are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

# Adam's moment decays and denominator guard, at the usual defaults.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _maximum(x1, x2, out):
    """np.maximum into out, for a partial: numpy deprecates its positional
    out, and a partial that holds a keyword takes a slower call path."""
    return np.maximum(x1, x2, out=out)


def _sigmoid_calls(x, e, out, zero, one) -> list:
    """The calls that write sigmoid(x) to out as nfdlm.neuralnet.sigmoid
    describes, with e as scratch: arrays of x's shape and dtype that do not
    overlap x. zero and one are 0 and 1 in any form that converts to x's
    dtype. np.sign(x) would serve for [x >= 0] in the numerator as well,
    but is slower than greater_equal on the LSTM's strided gate blocks."""
    return [partial(np.abs, x, e), partial(np.negative, e, e), partial(np.exp, e, e),
            partial(np.greater_equal, x, zero, out), partial(_maximum, out, e, out),
            partial(np.add, e, one, e), partial(np.divide, out, e, out)]


@dataclass
class AdamState:
    """Adam's moments, step count and gradient vector grad, and the two bias
    corrections as 0-d arrays in the moments' dtype, which adam_step writes.
    calls is the update as a list of numpy calls, which bind builds for the
    parameters and learning rate that adam_step was last handed."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def __post_init__(self) -> None:
        self.c1, self.c2 = np.ones((), self.m.dtype), np.ones((), self.m.dtype)
        self.params = self.learning_rate = None
        self.grad, self.calls = np.empty_like(self.m), []

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))

    def bind(self, params: np.ndarray, learning_rate: float) -> None:
        """Build calls for params and learning_rate, with two scratch vectors,
        and beta1, beta2, 1 - beta1, 1 - beta2, eps and the learning rate as
        0-d arrays."""
        m, v, g, a, b = self.m, self.v, self.grad, np.empty_like(self.m), np.empty_like(self.m)
        beta1, beta2, decay1, decay2, eps, lr = (np.array(x, m.dtype) for x in (
            ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2, ADAM_EPS, learning_rate))
        mul, add, div = np.multiply, np.add, np.divide
        self.calls = [
            # m = beta1 * m + (1 - beta1) * g, v = beta2 * v + (1 - beta2) * (g * g)
            partial(mul, m, beta1, m), partial(mul, decay1, g, a), partial(add, m, a, m),
            partial(mul, v, beta2, v), partial(mul, g, g, a), partial(mul, decay2, a, a),
            partial(add, v, a, v),
            # params -= learning_rate * (m / c1) / (sqrt(v / c2) + eps)
            partial(div, m, self.c1, a), partial(mul, lr, a, a), partial(div, v, self.c2, b),
            partial(np.sqrt, b, b), partial(add, b, eps, b), partial(div, a, b, a),
            partial(np.subtract, params, a, params)]
        self.params, self.learning_rate = params, learning_rate


class _LayerBuffers:
    """One layer's arrays in a StepBuffers, each (rows, width), and its
    share of a step's calls.

    forward holds the layer's forward calls, but for the input layer's
    product, which takes the batch. They read x (below's out) and write z
    (the pre-activation) and out; an lstm layer also writes its gates i, g,
    o and tanh(i * g). A backward pass writes dz (the head's is the loss
    delta it starts from) from up, the gradient passed to this layer (the
    head's own dz), and delta, the up of the layer below. scratch holds
    nothing between calls. Forward-only buffers pass shared, one flat array
    that every layer's scratch and gates view as contiguous rows, as a layer
    needs them only while it runs, and make no dz or delta.
    """

    def __init__(self, layer, rows: int, dtype, below: _LayerBuffers | None,
                 shared: np.ndarray | None, zero, one) -> None:
        def new(width: int) -> np.ndarray:
            return np.empty((rows, width), dtype)

        def transient(k: int) -> np.ndarray:
            if shared is None:
                return new(n)
            return shared[k * rows * n : (k + 1) * rows * n].reshape(rows, n)

        n, w, kind = layer.output_size, layer.weights, layer.activation
        self.kind, self.w, self.wt = kind, w, w.T
        self.x = None if below is None else below.out
        self.z, self.out = z, out = new(len(w)), new(n)
        self.scratch = s = None if kind == "relu" else transient(0)
        self.gates = [transient(k) for k in range(1, 5)] if kind == "lstm" else ()
        calls = [partial(np.add, z, layer.bias, z)]
        if kind == "relu":
            calls.append(partial(_maximum, zero, z, out))
        elif kind == "lstm":
            (i, g, o, tc), (zi, zg, zo) = self.gates, np.split(z, 3, axis=1)
            # c = i * g from zero cell state, and out = o * tanh(c)
            calls += [*_sigmoid_calls(zi, s, i, zero, one), partial(np.tanh, zg, g),
                      *_sigmoid_calls(zo, s, o, zero, one), partial(np.multiply, i, g, s),
                      partial(np.tanh, s, tc), partial(np.multiply, o, tc, out)]
        else:
            calls += _sigmoid_calls(z, s, out, zero, one)
        self.forward = calls if below is None else [partial(np.dot, self.x, self.wt, z), *calls]
        if shared is not None:
            return
        # up is dz for the head; the layer above points any other layer's at its delta.
        self.up = self.dz = new(len(w))
        self.dzt, self.delta = self.dz.T, None
        if below is not None:
            below.up = self.delta = new(layer.input_size)

    def backward(self, dw: np.ndarray, db: np.ndarray, one) -> list:
        """The layer's calls in a backward pass that writes its gradient to
        dw and db, but for the input layer's weight-gradient product, which
        takes the batch. The arrays that only these calls of an lstm layer
        write (dc, a second scratch and one gate's share of delta) are made
        here."""
        dz, up, delta, mul, sub = self.dz, self.up, self.delta, np.multiply, np.subtract
        if self.kind == "lstm":
            (i, g, o, tc), (dzi, dzg, dzo), s = self.gates, np.split(dz, 3, axis=1), self.scratch
            dc, s2 = np.empty_like(s), np.empty_like(s)
            calls = [
                # dc = up * o * (1 - tc * tc)
                partial(mul, up, o, dc), partial(mul, tc, tc, s), partial(sub, one, s, s),
                partial(mul, dc, s, dc),
                # dzi = dc * g * i * (1 - i)
                partial(mul, dc, g, s), partial(mul, s, i, s), partial(sub, one, i, s2),
                partial(mul, s, s2, dzi),
                # dzg = dc * i * (1 - g * g)
                partial(mul, dc, i, s), partial(mul, g, g, s2), partial(sub, one, s2, s2),
                partial(mul, s, s2, dzg),
                # dzo = up * tc * o * (1 - o)
                partial(mul, up, tc, s), partial(mul, s, o, s), partial(sub, one, o, s2),
                partial(mul, s, s2, dzo)]
        elif self.kind == "relu":
            # dz = up * [z > 0], the mask taken as sign(out): 1 where z > 0,
            # and +0 elsewhere but at NaN (the sign of -0 is +0). This skips
            # greater's bool-to-float cast.
            calls = [partial(np.sign, self.out, dz), partial(mul, up, dz, dz)]
        else:  # the sigmoid head, whose dz is its up
            calls = []
        calls.append(partial(np.add.reduce, dz, 0, None, db))
        if delta is None:  # the input layer passes no gradient on
            return calls
        if self.kind != "lstm":
            return calls + [partial(np.dot, dz, self.w, delta), partial(np.dot, self.dzt, self.x, dw)]
        # One product per gate, not dz @ w: this summation order gives, bit
        # for bit, the weights that format-v1 code trained. matmul, as np.dot
        # would copy each strided gate block first.
        (wi, wg, wo), gd = np.split(self.w, 3), np.empty_like(delta)
        return calls + [partial(np.matmul, dzi, wi, delta), partial(np.matmul, dzg, wg, gd),
                        partial(np.add, delta, gd, delta), partial(np.matmul, dzo, wo, gd),
                        partial(np.add, delta, gd, delta), partial(np.dot, self.dzt, self.x, dw)]


class StepBuffers:
    """Every array that one forward pass, and given grad_views one backward
    pass, writes for a model at one batch row count, with 0, 1 and the row
    count as 0-d arrays in the parameters' dtype, and every view of them
    that a step reads. Each pass overwrites the last one's arrays:
    probabilities and caches last until the next pass. The parameter views
    stay valid while steps update model.params in place.

    forward_calls holds a forward pass but for the input layer's product,
    which takes the batch. Given grad_views, per layer its weights' and
    bias's views of one gradient vector, backward_calls holds a backward
    pass into them but for the loss delta's subtraction, which takes the
    labels, and the input product into first_dw, which takes the batch.
    """

    def __init__(self, model, rows: int, grad_views: list | None = None) -> None:
        dtype = model.params.dtype
        self.zero, self.one, self.count = (np.array(v, dtype) for v in (0, 1, rows))
        widest = max(l.output_size for l in model.layers if l.activation != "relu")
        shared = np.empty(5 * rows * widest, dtype) if grad_views is None else None
        self.layers, below = [], None
        for layer in model.layers:
            below = _LayerBuffers(layer, rows, dtype, below, shared, self.zero, self.one)
            self.layers.append(below)
        self.first = self.layers[0]
        self.probs = below.out[:, 0]
        self.forward_calls = [call for lb in self.layers for call in lb.forward]
        if grad_views is None:
            return
        self.loss_delta, self.first_dw = below.dz[:, 0], grad_views[0][0]
        # Sigmoid head fused with BCE: dL/dz = (p - y) / n.
        self.backward_calls = [partial(np.divide, self.loss_delta, self.count, self.loss_delta)]
        for lb, (dw, db) in zip(reversed(self.layers), reversed(grad_views)):
            self.backward_calls += lb.backward(dw, db, self.one)
