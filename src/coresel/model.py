"""Feedforward ReLU classifier with exact per-example backpropagation.

The network is a stack of affine layers with ReLU on every hidden layer and
identity on the output; the loss is softmax cross-entropy. Parameters flatten
in one canonical order used everywhere (gradients, sgd steps, checkpoints):
layer-0 weights row-major, layer-0 bias, layer-1 weights, layer-1 bias, ...

`Backprop.gram(layers)` sums over the (weight, bias) blocks of the given
layers: its inner products are those of the gradients restricted to those
layers, and `TrainConfig` checks a run's layers.

One forward loop serves `backprop`, `embeddings` and `accuracy`.
`backprop` keeps one backward pass's layer inputs and deltas; its `gram` and
`step` give the per-example gradients' inner products and a weighted-sum
update without forming a per-example gradient row (the tests keep the
materialised rows as their oracle, in tests/oracles.py).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, EmptyInputError


@dataclass(frozen=True)
class ParamSet:
    """Immutable stack of (weight, bias) pairs; weight l has shape (out_l, in_l)."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise DimensionError("need one bias per weight matrix, at least one layer")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise DimensionError(f"layer {l}: weight {w.shape} incompatible with bias {b.shape}")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise DimensionError(
                    f"layer {l} expects {w.shape[1]} inputs but layer {l-1} emits "
                    f"{self.weights[l-1].shape[0]}"
                )

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        """(input dim, hidden dims..., output dim)."""
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_classes(self) -> int:
        return self.weights[-1].shape[0]


def init_params(layer_sizes, rng: np.random.Generator) -> ParamSet:
    """Glorot-uniform weights in ±sqrt(6/(fan_in+fan_out)), zero biases."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise DimensionError(f"need at least (input, output) positive dims, got {sizes}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ParamSet(tuple(weights), tuple(biases))


def _check_batch(params: ParamSet, x: np.ndarray, y=None) -> tuple[np.ndarray, np.ndarray | None]:
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):  # a corpus's uint8 levels are not pixels: a view scales them
        raise DimensionError(f"expected floating-point pixels, got {x.dtype} rows")
    x = x.astype(np.float64, copy=False)
    if x.ndim != 2:
        raise DimensionError(f"expected a (batch, features) matrix, got shape {x.shape}")
    if x.shape[0] == 0:
        raise EmptyInputError("empty batch")
    if x.shape[1] != params.input_dim:
        raise DimensionError(f"batch has {x.shape[1]} features, model expects {params.input_dim}")
    if y is None:
        return x, None
    y = np.asarray(y)
    if y.shape != (x.shape[0],):
        raise DimensionError(f"labels shape {y.shape} does not match batch of {x.shape[0]}")
    y = y.astype(np.int64)
    if y.min() < 0 or y.max() >= params.n_classes:
        raise DimensionError(f"labels must lie in 0..{params.n_classes - 1}")
    return x, y


def _layer_outputs(params: ParamSet, x: np.ndarray):
    """The one forward loop: each layer's output in turn, ReLU applied in place on hidden layers."""
    last = params.n_layers - 1
    a = x
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w.T
        a += b
        if l < last:
            np.maximum(a, 0.0, out=a)
        yield a


def embeddings(params: ParamSet, x) -> np.ndarray:
    """Penultimate activations: the input to the final layer (post-ReLU); the final layer is not computed."""
    x, _ = _check_batch(params, x)
    return [x, *itertools.islice(_layer_outputs(params, x), params.n_layers - 1)][-1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _backward_deltas(params: ParamSet, x: np.ndarray, y: np.ndarray):
    """Activations plus per-layer deltas d ℓ_n / d z_l for every example n (ReLU(z) > 0 exactly where z > 0)."""
    acts = [x, *_layer_outputs(params, x)]
    probs = np.exp(_log_softmax(acts[-1]))
    delta = probs
    delta[np.arange(x.shape[0]), y] -= 1.0
    deltas = [None] * params.n_layers
    deltas[-1] = delta
    for l in range(params.n_layers - 2, -1, -1):
        deltas[l] = (deltas[l + 1] @ params.weights[l + 1]) * (acts[l + 1] > 0.0)
    return acts, deltas


@dataclass(frozen=True)
class Backprop:
    """One forward/backward pass over a batch: each layer's inputs and deltas, per example.

    Example n's gradient in layer l is d_n a_n^T for the weights and d_n for
    the bias (a_n the layer input, d_n the loss gradient at its
    pre-activation). Every vector a training step needs is a weighted sum of
    these gradients, so `gram` and `step` never form a gradient row.
    """

    params: ParamSet
    acts: tuple[np.ndarray, ...]  # acts[l]: (B, in_l) input of layer l
    deltas: tuple[np.ndarray, ...]  # deltas[l]: (B, out_l)

    def gram(self, layers: tuple[int, ...] | None = None) -> np.ndarray:
        """G[n, m] = <g_n, g_m> = sum_l (a_n . a_m + 1)(d_n . d_m) over `layers`, or every layer if None.

        The every-layer matrix is formed once per pass and shared, read-only, by each call that asks for it.
        """
        if layers is None:
            return self._every_layer_gram
        b = self.deltas[0].shape[0]
        gram = np.zeros((b, b))
        for l in layers:
            a, d = self.acts[l], self.deltas[l]
            gram += (a @ a.T + 1.0) * (d @ d.T)
        return gram

    @functools.cached_property
    def _every_layer_gram(self) -> np.ndarray:
        gram = self.gram(range(self.params.n_layers))
        gram.flags.writeable = False
        return gram

    def step(self, coef, lr: float) -> ParamSet:
        """New parameters W_l - lr (coef*D_l)^T A_l, b_l - lr sum_n coef_n d_n; DivergenceError if any is non-finite."""
        coef = np.asarray(coef, dtype=np.float64)
        if coef.shape != (self.deltas[0].shape[0],):
            raise DimensionError(f"{coef.shape} coefficients for {self.deltas[0].shape[0]} examples")
        scale = -lr * coef
        # The weight product reads only the weighted rows: to about 300 rows, OpenBLAS gives it the every-row product's
        # bits. A bias sum over fewer rows rounds differently, so it reads every row.
        rows = np.flatnonzero(scale)
        weights, biases = [], []
        for w, bias, a, d in zip(self.params.weights, self.params.biases, self.acts, self.deltas):
            new_w = (d[rows] * scale[rows, None]).T @ a[rows]
            new_w += w
            weights.append(new_w)
            biases.append(bias + scale @ d)
        stepped = weights + biases
        bad = sum(v.size - np.count_nonzero(np.isfinite(v)) for v in stepped)
        if bad:
            raise DivergenceError(f"update left {bad} of {sum(v.size for v in stepped)} parameters non-finite")
        return ParamSet(tuple(weights), tuple(biases))


def backprop(params: ParamSet, x, y) -> Backprop:
    """One forward/backward pass over (x, y), kept for `Backprop.gram` and `Backprop.step`."""
    x, y = _check_batch(params, x, y)
    acts, deltas = _backward_deltas(params, x, y)
    return Backprop(params, tuple(acts[:-1]), tuple(deltas))


def mean_gradient(params: ParamSet, x, y) -> np.ndarray:
    """Gradient of the mean batch loss, flattened."""
    bp = backprop(params, x, y)
    b = bp.deltas[0].shape[0]
    blocks = []
    for l in range(params.n_layers):
        blocks += [(bp.deltas[l].T @ bp.acts[l]).ravel() / b, bp.deltas[l].mean(axis=0)]
    return np.concatenate(blocks)


def flatten_params(params: ParamSet) -> np.ndarray:
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def accuracy(params: ParamSet, x, y) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class.

    DivergenceError on non-finite logits, and when a hidden layer has no unit
    active on any row: every row then gets the same logits.
    """
    x, y = _check_batch(params, x, y)
    # Evaluations run on the evaluator worker or on the trainer, and each thread's heap keeps its high-water mark:
    # hold one layer at a time.
    dead = None
    for l, a in enumerate(_layer_outputs(params, x)):
        if dead is None and l < params.n_layers - 1 and not (a > 0.0).any():
            dead = l
    finite_rows = np.isfinite(a).all(axis=1)
    if not finite_rows.all():
        raise DivergenceError(f"{np.sum(~finite_rows)} of {x.shape[0]} evaluation rows have non-finite logits")
    if dead is not None:
        raise DivergenceError(f"hidden layer {dead} is inactive on all {x.shape[0]} evaluation rows: constant logits")
    return float((np.argmax(a, axis=1) == y).mean())


def checkpoint_bytes(params: ParamSet) -> bytes:
    """Header line of layer dims, then the flat params as little-endian float64."""
    header = " ".join(str(d) for d in params.layer_sizes) + "\n"
    return header.encode("ascii") + flatten_params(params).astype("<f8").tobytes()
