import math

import numpy as np
import pytest

from coresel import model
from coresel.errors import DimensionError, DivergenceError, EmptyInputError
from coresel.model import (
    ParamSet,
    accuracy,
    backprop,
    checkpoint_bytes,
    embeddings,
    flatten_params,
    init_params,
    mean_gradient,
)
from coresel.model import _layer_outputs
from oracles import per_example_gradients, unflatten_params

# ---------------------------------------------------------------------------
# Independent scalar-loop oracles. These share no code with the package.


def oracle_forward(params, x):
    a = [float(v) for v in x]
    n_layers = len(params.weights)
    for l in range(n_layers):
        w, b = params.weights[l], params.biases[l]
        z = []
        for o in range(w.shape[0]):
            acc = float(b[o])
            for i in range(w.shape[1]):
                acc += float(w[o, i]) * a[i]
            z.append(acc)
        a = z if l == n_layers - 1 else [max(v, 0.0) for v in z]
    return a


def oracle_example_loss(params, x, y):
    logits = oracle_forward(params, x)
    m = max(logits)
    lse = m + math.log(sum(math.exp(v - m) for v in logits))
    return lse - logits[int(y)]


def oracle_preacts(params, x):
    a = [float(v) for v in x]
    out = []
    n_layers = len(params.weights)
    for l in range(n_layers):
        w, b = params.weights[l], params.biases[l]
        z = []
        for o in range(w.shape[0]):
            acc = float(b[o])
            for i in range(w.shape[1]):
                acc += float(w[o, i]) * a[i]
            z.append(acc)
        out.extend(z)
        a = z if l == n_layers - 1 else [max(v, 0.0) for v in z]
    return out


def oracle_batch_loss(params, x, y):
    return sum(oracle_example_loss(params, x[n], y[n]) for n in range(len(y))) / len(y)


def draw_smooth_instance(rng, sizes, n_classes, margin=1e-3):
    # Central differences cross the ReLU kink when a preactivation sits within
    # the FD step of 0; resample until every preactivation clears a margin.
    while True:
        params = init_params(sizes, rng)
        x = rng.normal(size=sizes[0])
        y = int(rng.integers(0, n_classes))
        if min(abs(z) for z in oracle_preacts(params, x)) > margin:
            return params, x, y


def fd_gradient(params, x, y, step=1e-5):
    sizes = params.layer_sizes
    flat = flatten_params(params)
    grad = np.empty_like(flat)
    for j in range(flat.shape[0]):
        saved = flat[j]
        flat[j] = saved + step
        up = oracle_example_loss(unflatten_params(flat, sizes), x, y)
        flat[j] = saved - step
        down = oracle_example_loss(unflatten_params(flat, sizes), x, y)
        flat[j] = saved
        grad[j] = (up - down) / (2.0 * step)
    return grad


def rel_close(analytic, reference, rel=1e-4, floor=1e-8):
    return np.all(np.abs(analytic - reference) <= rel * np.maximum(np.abs(analytic), np.abs(reference)) + floor)


# ---------------------------------------------------------------------------
# forward


def logits(params, x):
    """The output layer of the forward pass that `accuracy` and `backprop` run."""
    return list(_layer_outputs(params, np.asarray(x, dtype=np.float64)))[-1]


def test_forward_zero_params_gives_zero_logits():
    params = ParamSet(
        (np.zeros((4, 3)), np.zeros((2, 4))),
        (np.zeros(4), np.zeros(2)),
    )
    assert np.all(logits(params, [[1.0, -2.0, 3.0]]) == 0.0)


def test_forward_single_affine_layer():
    params = ParamSet((np.array([[2.0]]),), (np.array([1.0]),))
    assert logits(params, [[3.0]])[0] == pytest.approx([7.0])


def test_forward_matches_independent_oracle():
    rng = np.random.default_rng(42)
    params = init_params([5, 7, 6, 4], rng)
    for _ in range(50):
        x = rng.normal(size=5)
        got = logits(params, x[None, :])[0]
        want = oracle_forward(params, x)
        assert np.allclose(got, want, atol=1e-12)


def test_forward_softmax_normalizes():
    rng = np.random.default_rng(3)
    params = init_params([6, 8, 8, 5], rng)
    z = logits(params, rng.normal(size=(20, 6)))
    shifted = np.exp(z - z.max(axis=1, keepdims=True))
    probs = shifted / shifted.sum(axis=1, keepdims=True)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_forward_dimension_errors():
    rng = np.random.default_rng(0)
    params = init_params([5, 4, 3], rng)
    with pytest.raises(DimensionError):
        embeddings(params, np.ones((1, 6)))
    with pytest.raises(DimensionError):
        embeddings(params, np.ones(5))
    with pytest.raises(EmptyInputError):
        embeddings(params, np.empty((0, 5)))


# ---------------------------------------------------------------------------
# gradients


def test_per_example_gradients_match_finite_differences():
    rng = np.random.default_rng(20240812)
    for trial in range(100):
        params, x, y = draw_smooth_instance(rng, [6, 8, 8, 5], 5)
        grads = per_example_gradients(params, x[None, :], [y])
        assert rel_close(grads[0], fd_gradient(params, x, y)), f"trial {trial}"


def test_single_example_row_is_its_own_loss_gradient():
    rng = np.random.default_rng(1)
    params = init_params([4, 6, 3], rng)
    x = rng.normal(size=(1, 4))
    y = np.array([2])
    row = per_example_gradients(params, x, y)[0]
    assert np.allclose(row, mean_gradient(params, x, y), atol=1e-14)


def test_duplicated_example_gives_identical_rows():
    rng = np.random.default_rng(2)
    params = init_params([4, 6, 3], rng)
    x = rng.normal(size=4)
    grads = per_example_gradients(params, np.stack([x, x]), [1, 1])
    assert np.array_equal(grads[0], grads[1])


def test_mean_of_rows_equals_fused_batch_gradient():
    rng = np.random.default_rng(9)
    params = init_params([7, 10, 10, 4], rng)
    x = rng.normal(size=(33, 7))
    y = rng.integers(0, 4, size=33)
    rows = per_example_gradients(params, x, y)
    fused = mean_gradient(params, x, y)
    assert np.abs(rows.mean(axis=0) - fused).max() < 1e-10


def test_partial_selector_slices_full_gradient():
    rng = np.random.default_rng(13)
    params = init_params([5, 6, 7, 4], rng)
    x = rng.normal(size=(11, 5))
    y = rng.integers(0, 4, size=11)
    full = per_example_gradients(params, x, y)
    bounds = np.cumsum([0] + [w.size + b.size for w, b in zip(params.weights, params.biases)])
    slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    for chosen in [(0,), (2,), (0, 2), (1, 2), (0, 1, 2)]:
        part = per_example_gradients(params, x, y, chosen)
        want = np.concatenate([full[:, slices[l]] for l in chosen], axis=1)
        assert np.array_equal(part, want)


def test_gradient_step_decreases_loss():
    rng = np.random.default_rng(7)
    for _ in range(20):
        params = init_params([6, 9, 5], rng)
        x = rng.normal(size=(16, 6))
        y = rng.integers(0, 5, size=16)
        before = oracle_batch_loss(params, x, y)
        stepped = backprop(params, x, y).step(np.full(16, 1 / 16), 1e-4)
        assert oracle_batch_loss(stepped, x, y) < before


# ---------------------------------------------------------------------------
# Backprop.step / accuracy


def test_backprop_step_arithmetic():
    # One layer, two classes, x = 2, label 1: logits (2, 0), so d = (p0, -p0) with p0 = e^2 / (e^2 + 1).
    params = ParamSet((np.array([[1.0], [0.0]]),), (np.zeros(2),))
    bp = backprop(params, np.array([[2.0]]), [1])
    p0 = math.exp(2.0) / (math.exp(2.0) + 1.0)
    stepped = bp.step([1.0], 0.1)
    assert stepped.weights[0][:, 0] == pytest.approx([1.0 - 0.1 * 2 * p0, 0.1 * 2 * p0], rel=1e-15)
    assert stepped.biases[0] == pytest.approx([-0.1 * p0, 0.1 * p0], rel=1e-15)
    assert np.array_equal(flatten_params(params), [1.0, 0.0, 0.0, 0.0])  # a new ParamSet; the old one is unchanged
    assert np.array_equal(flatten_params(bp.step([0.0], 0.5)), flatten_params(params))
    assert np.array_equal(flatten_params(bp.step([1.0], 0.0)), flatten_params(params))
    with pytest.raises(DimensionError):
        bp.step(np.ones(2), 0.1)


def test_backprop_step_matches_per_example_oracle():
    # W - lr * M^T c over materialised rows M, for arbitrary per-row coefficients c (zeros and negatives included).
    rng = np.random.default_rng(40)
    params = init_params([7, 10, 10, 4], rng)
    x = rng.normal(size=(13, 7))
    y = rng.integers(0, 4, size=13)
    rows = per_example_gradients(params, x, y)
    for coef in (np.full(13, 1 / 13), rng.normal(size=13), np.where(rng.uniform(size=13) < 0.5, 0.0, 0.2)):
        want = flatten_params(params) - 0.05 * (rows.T @ coef)
        got = flatten_params(backprop(params, x, y).step(coef, 0.05))
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_non_finite_update_or_logits_raise_divergence():
    params = ParamSet((np.array([[1.0], [0.0]]),), (np.zeros(2),))
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError, match="update left 4 of 4 parameters non-finite"):
            backprop(params, np.array([[1.0]]), [1]).step([np.inf], 0.1)
    huge = ParamSet((np.array([[1e308], [0.0]]),), (np.zeros(2),))
    assert accuracy(huge, np.array([[1.0], [0.5]]), [0, 0]) == 1.0
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError, match="left 2 of 4"):
            # d = (1, -1) and a = 1e300: the weight steps overflow to inf, the bias steps stay finite.
            backprop(params, np.array([[1e300]]), [1]).step([1.0], 1e10)
        with pytest.raises(DivergenceError, match="1 of 2 evaluation rows"):
            accuracy(huge, np.array([[1.0], [10.0]]), [0, 0])


def test_accuracy_refuses_non_finite_logits():
    # A NaN pixel makes its row's logits NaN: accuracy counts those rows and refuses the whole evaluation.
    rng = np.random.default_rng(45)
    params = init_params([5, 6, 4, 3], rng)
    x = rng.uniform(size=(7, 5))
    y = rng.integers(0, 3, size=7)
    assert 0.0 <= accuracy(params, x, y) <= 1.0
    x[[1, 4, 6], [0, 3, 2]] = np.nan
    with pytest.raises(DivergenceError, match=r"^3 of 7 evaluation rows have non-finite logits$"):
        accuracy(params, x, y)


def test_dead_hidden_layer_fails_evaluation():
    # Every unit of hidden layer 1 is off on every row, so every row gets the same logits.
    rng = np.random.default_rng(41)
    params = init_params([5, 6, 4, 3], rng)
    x = rng.uniform(size=(8, 5))
    assert 0.0 <= accuracy(params, x, np.zeros(8, np.int64)) <= 1.0
    dead = ParamSet(params.weights, (params.biases[0], np.full(4, -1e6), params.biases[2]))
    with pytest.raises(DivergenceError, match="hidden layer 1 is inactive on all 8 evaluation rows"):
        accuracy(dead, x, np.zeros(8, np.int64))


def test_accuracy_matches_the_forward_pass():
    # accuracy() keeps only the last of _layer_outputs' layers; every row's argmax must be the full pass's.
    rng = np.random.default_rng(43)
    for sizes in ([784, 256, 256, 10], [5, 8, 6, 3], [4, 3]):
        params = init_params(sizes, rng)
        x = rng.uniform(size=(50, sizes[0]))
        labels = np.argmax(logits(params, x), axis=1)
        assert accuracy(params, x, labels) == 1.0, sizes
        assert accuracy(params, x, (labels + 1) % sizes[-1]) == 0.0, sizes


def test_accuracy_counts_and_tie_break():
    # Zero weights: all logits 0, argmax tie resolves to class 0.
    params = ParamSet((np.zeros((3, 2)),), (np.zeros(3),))
    x = np.ones((4, 2))
    assert accuracy(params, x, [0, 0, 0, 0]) == 1.0
    assert accuracy(params, x, [1, 1, 1, 1]) == 0.0
    assert accuracy(params, x, [0, 0, 0, 1]) == 0.75
    with pytest.raises(EmptyInputError):
        accuracy(params, np.empty((0, 2)), [])


def test_embeddings_are_final_layer_input():
    rng = np.random.default_rng(21)
    params = init_params([5, 8, 6, 3], rng)
    x = rng.normal(size=(10, 5))
    emb = embeddings(params, x)
    assert emb.shape == (10, 6)
    # Feeding the embeddings through the last layer reproduces the logits.
    z = emb @ params.weights[-1].T + params.biases[-1]
    assert np.allclose(z, logits(params, x), atol=1e-12)


@pytest.mark.parametrize("sizes", [[5, 3], [5, 8, 3], [5, 8, 6, 3]])
def test_embeddings_stop_before_the_final_layer(monkeypatch, sizes):
    rng = np.random.default_rng(22)
    params = init_params(sizes, rng)
    x = rng.normal(size=(4, 5))
    every = [x, *_layer_outputs(params, x)]
    yielded = []

    def counting(params, x):
        for a in _layer_outputs(params, x):
            yielded.append(a.shape[1])
            yield a

    monkeypatch.setattr(model, "_layer_outputs", counting)
    assert embeddings(params, x).tobytes() == every[-2].tobytes()
    assert yielded == sizes[1:-1]  # the hidden layers, and not the output layer


# ---------------------------------------------------------------------------
# init / checkpoint


def test_init_params_glorot_bounds_and_determinism():
    sizes = [20, 12, 5]
    a = init_params(sizes, np.random.default_rng(123))
    b = init_params(sizes, np.random.default_rng(123))
    assert all(np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))
    for w, (fan_in, fan_out) in zip(a.weights, zip(sizes[:-1], sizes[1:])):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= limit
        assert w.shape == (fan_out, fan_in)
    assert all(np.all(bias == 0.0) for bias in a.biases)


def test_checkpoint_bytes():
    rng = np.random.default_rng(77)
    params = init_params([9, 6, 4], rng)
    assert checkpoint_bytes(params) == b"9 6 4\n" + flatten_params(params).astype("<f8").tobytes()
