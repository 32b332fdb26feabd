"""Reference computations the benchmark checks the program against.

Everything here is written from the method's definitions, without importing
`coresel`: a forward pass, per-example backpropagation done one example at a
time, the three OCS scores, the continual-learning metrics and a checkpoint
parser. `self_check` tests this code itself on inputs small enough to verify
by finite differences and by hand.
"""

from __future__ import annotations

import numpy as np


def forward(weights, biases, x):
    """Logits of a ReLU MLP for a (batch, features) matrix."""
    a = np.asarray(x, dtype=np.float64)
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w.T + b
        a = z if l == last else np.maximum(z, 0.0)
    return a


def correct_counts(weights, biases, x, y, margin=1e-9):
    """(examples predicted right, examples whose top-two logits lie within `margin`).

    An argmax over logits that nearly tie may fall either way under a
    different summation order, so callers accept a count within the second
    figure.
    """
    logits = forward(weights, biases, x)
    top2 = np.sort(logits, axis=1)[:, -2:]
    near = int((top2[:, 1] - top2[:, 0] <= margin).sum())
    return int((np.argmax(logits, axis=1) == np.asarray(y)).sum()), near


def example_loss(weights, biases, x, y):
    """Softmax cross-entropy of one example."""
    logits = forward(weights, biases, x[None, :])[0]
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - logits[y])


def example_gradient(weights, biases, x, y):
    """Gradient of one example's loss, flattened per layer as (weights row-major, bias)."""
    acts = [np.asarray(x, dtype=np.float64)]
    pre = []
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = w @ acts[-1] + b
        pre.append(z)
        acts.append(z if l == last else np.maximum(z, 0.0))
    p = np.exp(acts[-1] - acts[-1].max())
    delta = p / p.sum()
    delta[y] -= 1.0
    blocks = []
    for l in range(last, -1, -1):
        blocks.append(delta)
        blocks.append(np.outer(delta, acts[l]).ravel())
        if l > 0:
            delta = (weights[l].T @ delta) * (pre[l - 1] > 0.0)
    return np.concatenate(blocks[::-1])


def example_gradients(weights, biases, x, y):
    """(B, P) matrix whose row n is example n's own loss gradient."""
    return np.stack([example_gradient(weights, biases, x[n], int(y[n])) for n in range(len(y))])


def cosine(u, v):
    """Cosine of two vectors; 0 when either has zero norm; clamped into [-1, 1]."""
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return min(1.0, max(-1.0, float(u @ v) / (nu * nv)))


def ocs_scores(grads, ref, tau):
    """S + V (+ tau * A when a replay reference gradient exists), per candidate row.

    S_n: cosine to the batch mean gradient. V_n: minus the mean cosine to every
    other row, clamped into [-1, 0]. A_n: cosine to the replay-batch gradient.
    """
    b = grads.shape[0]
    mean = grads.mean(axis=0)
    norms = np.linalg.norm(grads, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    unit = grads / safe[:, None] * (norms > 0.0)[:, None]
    pair = np.clip(unit @ unit.T, -1.0, 1.0)
    out = np.empty(b)
    for n in range(b):
        s = cosine(grads[n], mean)
        v = 0.0 if b == 1 else min(0.0, max(-1.0, -(pair[n].sum() - pair[n, n]) / (b - 1)))
        out[n] = s + v + (tau * cosine(grads[n], ref) if ref is not None else 0.0)
    return out


def topk_agrees(selected, scores, kappa, tol):
    """Whether `selected` is a top-kappa set of `scores`, ties within `tol` either way."""
    chosen = np.zeros(scores.shape[0], dtype=bool)
    chosen[np.asarray(selected, dtype=np.int64)] = True
    if int(chosen.sum()) != min(kappa, scores.shape[0]) or len(selected) != chosen.sum():
        return False
    if chosen.all():
        return True
    return float(scores[chosen].min()) >= float(scores[~chosen].max()) - tol


def average_accuracy(matrix):
    """A_T: mean over tasks of the last row of a lower-triangular accuracy matrix."""
    t = matrix.shape[0] - 1
    return float(sum(matrix[t, i] for i in range(t + 1)) / (t + 1))


def average_forgetting(matrix):
    """F: mean over i < T of (best a_{t,i} for i <= t < T) minus a_{T,i}; 0 for one task."""
    t_last = matrix.shape[0] - 1
    if t_last == 0:
        return 0.0
    drops = [max(matrix[t, i] for t in range(i, t_last)) - matrix[t_last, i] for i in range(t_last)]
    return float(sum(drops) / t_last)


def read_checkpoint(path):
    """(weights, biases) from a header line of layer sizes and little-endian float64s."""
    with open(path, "rb") as fh:
        sizes = [int(tok) for tok in fh.readline().decode("ascii").split()]
        flat = np.frombuffer(fh.read(), dtype="<f8")
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_out, fan_in))
        offset += fan_in * fan_out
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    if offset != flat.shape[0]:
        raise ValueError(f"{path}: {flat.shape[0]} floats for layer sizes {sizes}")
    return weights, biases


def self_check():
    """Raise ValueError if this module's own math is wrong."""
    rng = np.random.default_rng(12345)
    sizes = [6, 5, 4, 3]
    checked = 0
    while checked < 4:
        weights = [rng.normal(size=(o, i)) for i, o in zip(sizes[:-1], sizes[1:])]
        biases = [rng.normal(size=o) for o in sizes[1:]]
        x, y = rng.normal(size=sizes[0]), int(rng.integers(sizes[-1]))
        a, kink = x, False
        for w, b in zip(weights[:-1], biases[:-1]):
            z = w @ a + b
            kink |= bool(np.abs(z).min() < 1e-3)
            a = np.maximum(z, 0.0)
        if kink:  # central differences straddle a ReLU kink here
            continue
        analytic = example_gradient(weights, biases, x, y)
        numeric, j, h = np.empty_like(analytic), 0, 1e-6
        for group in [p for pair in zip(weights, biases) for p in pair]:
            flat = group.reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + h
                up = example_loss(weights, biases, x, y)
                flat[k] = keep - h
                down = example_loss(weights, biases, x, y)
                flat[k] = keep
                numeric[j] = (up - down) / (2 * h)
                j += 1
        if not np.allclose(analytic, numeric, rtol=1e-5, atol=1e-7):
            raise ValueError(f"per-example gradient differs from finite differences by {np.abs(analytic - numeric).max():.3e}")
        checked += 1

    # Worked by hand: A = (0.7 + 0.85 + 0.99) / 3, F = ((0.9 - 0.7) + (0.95 - 0.85)) / 2.
    matrix = np.array([[0.9, np.nan, np.nan], [0.8, 0.95, np.nan], [0.7, 0.85, 0.99]])
    if abs(average_accuracy(matrix) - 2.54 / 3) > 1e-12 or abs(average_forgetting(matrix) - 0.15) > 1e-12:
        raise ValueError("metric formulas disagree with the hand-built matrix")
    if average_forgetting(np.array([[0.5]])) != 0.0:
        raise ValueError("a single task must have zero forgetting")

    # Scores of a hand-built batch: rows e1, e1, -e1 and reference e1.
    grads = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    got = ocs_scores(grads, np.array([2.0, 0.0]), 10.0)
    # S: mean is (1/3, 0) -> (1, 1, -1); V: (-(1 - 1)/2 -> 0, 0, -(-2)/2 -> clamp 0); A: (1, 1, -1).
    if not np.allclose(got, [11.0, 11.0, -11.0]):
        raise ValueError(f"OCS scores of the hand-built batch are {got}")
    if not topk_agrees([0, 1], got, 2, 1e-9) or topk_agrees([0, 2], got, 2, 1e-9):
        raise ValueError("top-k agreement test is wrong")
