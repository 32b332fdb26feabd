"""The Gram ("ghost") scoring path against the materialised per-example gradients.

Production OCS scoring never forms gradient rows: one `model.backprop` pass
over the candidates followed by the replay rows gives their Gram matrix, and
`selection.score_gram` scores the candidates from its blocks.
The oracle is `score_batch(per_example_gradients(...))` from `oracles.py`,
which materialises every row, against the mean of the replay rows' gradients.
Scores may differ in the last bits because the sums run in another order;
the ranking may not.
"""

import numpy as np
import pytest

from coresel import trainer
from coresel.datastream import Dataset
from coresel.errors import DimensionError
from coresel.model import GradSelector, ParamSet, backprop, init_params
from coresel.selection import SelectionConfig, rank, score_gram, take_ranked
from coresel.trainer import REGISTRY, TrainConfig, _with_replay, new_run_state
from oracles import per_example_gradients, score_batch

SIZES = [40, 24, 16, 10]  # three layers, so every selector subset below is proper
SELECTORS = (None, GradSelector((0,)), GradSelector((1, 2)), GradSelector((0, 2)))
# The two paths sum in different orders, so they agree to rounding: at worst
# 3.3e-16 on a cosine and 2.8e-13 on a combined score (tau = 1000) in these tests.
COSINE_TOL = 1e-12
COMBINED_TOL = 1e-9


def dead_relu_rows(params, n, rng):
    """Inputs whose first-layer pre-activations are all -1, so every first-layer ReLU is off."""
    w0, b0 = params.weights[0], params.biases[0]
    target = -1.0 - b0
    base = np.linalg.lstsq(w0, target, rcond=None)[0]
    null = np.linalg.svd(w0)[2][w0.shape[0]:]  # directions w0 maps to 0
    return base + rng.normal(size=(n, null.shape[0])) @ null


def certain_of_class_3(params):
    """`params` with a huge output bias on class 3: its softmax is exactly one-hot there."""
    biases = list(params.biases)
    biases[-1] = biases[-1].copy()
    biases[-1][3] = 1e6
    return ParamSet(params.weights, tuple(biases))


def draw_batch(rng, params, b):
    """Random rows; from b = 4 on, a quarter labelled 3 and a fifth with dead first-layer ReLUs.

    Under `certain_of_class_3` parameters the rows labelled 3 have exactly zero gradient.
    """
    x = rng.normal(size=(b, SIZES[0]))
    y = rng.integers(0, SIZES[-1], size=b)
    if b >= 4:
        y[: b // 4] = 3
        dead = rng.choice(b, size=b // 5, replace=False)
        x[dead] = dead_relu_rows(params, dead.size, rng)
    return x, y


def oracle(params, x, y, selector, replay, tau):
    ref = None if replay is None else per_example_gradients(params, *replay, selector).mean(axis=0)
    return score_batch(per_example_gradients(params, x, y, selector), ref, tau)


def assert_scores_match(got, want):
    assert np.abs(got.similarity - want.similarity).max() <= COSINE_TOL
    assert np.abs(got.diversity - want.diversity).max() <= COSINE_TOL
    assert (got.affinity is None) == (want.affinity is None)
    if want.affinity is not None:
        assert np.abs(got.affinity - want.affinity).max() <= COSINE_TOL
    assert np.abs(got.combined - want.combined).max() <= COMBINED_TOL
    assert np.array_equal(np.argsort(-got.combined, kind="stable"), np.argsort(-want.combined, kind="stable"))


def gram_scores(params, x, y, selector, replay, tau):
    gram = backprop(params, *_with_replay(x, y, replay)).gram(selector)
    return score_gram(gram, x.shape[0], tau)


def test_gram_and_reference_dots_equal_the_materialised_products():
    rng = np.random.default_rng(30)
    params = init_params(SIZES, rng)
    x, y = draw_batch(rng, params, 12)
    rx, ry = draw_batch(rng, params, 5)
    bp = backprop(params, np.concatenate([x, rx]), np.concatenate([y, ry]))
    for selector in SELECTORS:
        rows = per_example_gradients(params, np.concatenate([x, rx]), np.concatenate([y, ry]), selector)
        gram = bp.gram(selector)
        scale = np.abs(rows).sum(axis=1).max() ** 2
        assert np.abs(gram - rows @ rows.T).max() <= 1e-13 * scale
        # The replay mean's dots and squared norm are block sums of the same matrix.
        ref = rows[12:].mean(axis=0)
        assert np.abs(gram[:12, 12:].sum(axis=1) / 5 - rows[:12] @ ref).max() <= 1e-13 * scale
        assert abs(gram[12:, 12:].sum() / 25 - ref @ ref) <= 1e-13 * scale
    with pytest.raises(DimensionError):
        bp.gram(GradSelector((1, 3)))


def selector_id(selector):
    return "all" if selector is None else "layers" + "-".join(str(l) for l in selector.layers)


@pytest.mark.parametrize("selector", SELECTORS, ids=selector_id)
def test_gram_scores_match_materialised_scores(selector):
    rng = np.random.default_rng(31)
    for trial in range(12):
        params = certain_of_class_3(init_params(SIZES, rng))
        b = (1, 2, 7, 25, 100)[trial % 5]
        x, y = draw_batch(rng, params, b)
        replay = None if trial % 3 == 0 else draw_batch(rng, params, (1, 5, 10)[trial % 3])
        tau = (0.0, 1.0, 1000.0)[trial % 3]
        want = oracle(params, x, y, selector, replay, tau)
        got = gram_scores(params, x, y, selector, replay, tau)
        assert_scores_match(got, want)
        if b >= 4:  # the one-hot rows are exact zeros on both paths
            zero = y == 3
            for scores in (got, want):
                assert np.all(scores.similarity[zero] == 0.0) and np.all(scores.diversity[zero] == 0.0)


def test_dead_relu_rows_have_no_first_layer_gradient():
    rng = np.random.default_rng(32)
    params = init_params(SIZES, rng)
    x = dead_relu_rows(params, 3, rng)
    y = np.array([0, 1, 2])
    bp = backprop(params, x, y)
    assert np.all(bp.gram(GradSelector((0,))) == 0.0)
    assert np.all(np.diag(bp.gram(GradSelector((1, 2)))) > 0.0)


@pytest.mark.parametrize("pool", [200, 333, 460])
def test_commit_ranking_matches_materialised_pool_scores(pool, monkeypatch):
    rng = np.random.default_rng(pool)
    selector = None if pool != 333 else GradSelector((1, 2))
    cfg = TrainConfig(
        stream_batch_size=20, buffer_batch_size=10, buffer_capacity=40, hidden=(24, 16),
        selection=SelectionConfig(kappa=5, tau=1000.0), grad_selector=selector, seed=pool,
    )
    state = new_run_state(cfg, num_tasks=2, input_dim=SIZES[0])
    state.params = certain_of_class_3(state.params)
    x, y = draw_batch(rng, state.params, pool)
    ocs = REGISTRY["ocs"]
    want = oracle(state.params, x, y, selector, None, cfg.selection.tau).combined
    candidates = Dataset(x, y, np.arange(pool))
    assert np.array_equal(ocs.commit_order(state, cfg, candidates), np.argsort(-want, kind="stable"))

    # Once a task is committed, the reference is the mean gradient of a replay sample.
    buf_x, buf_y = draw_batch(rng, state.params, 30)
    state.buffer.stage_candidates(0, buf_x, buf_y, np.arange(30))
    state.buffer.commit_task(0, np.arange(30), class_balanced=False)
    state.task_index = 1
    replays = []
    real = trainer.examples_as_arrays

    def recording(examples):
        replays.append(real(examples))
        return replays[-1]

    monkeypatch.setattr(trainer, "examples_as_arrays", recording)
    ranking = ocs.commit_order(state, cfg, candidates)
    assert len(replays) == 1
    want = oracle(state.params, x, y, selector, replays[0], cfg.selection.tau).combined
    assert np.array_equal(ranking, np.argsort(-want, kind="stable"))


def test_step_pick_matches_materialised_scores():
    rng = np.random.default_rng(34)
    for selector in SELECTORS:
        cfg = TrainConfig(
            stream_batch_size=25, hidden=(24, 16), selection=SelectionConfig(kappa=10, tau=1000.0),
            grad_selector=selector,
        )
        state = new_run_state(cfg, num_tasks=1, input_dim=SIZES[0])
        state.params = certain_of_class_3(state.params)
        x, y = draw_batch(rng, state.params, 25)
        batch = Dataset(x, y, np.arange(25))
        for replay in (None, draw_batch(rng, state.params, 10)):
            bp = backprop(state.params, *_with_replay(x, y, replay))
            picked, got = REGISTRY["ocs"].pick(state, cfg, batch, 10, bp)
            want = oracle(state.params, x, y, selector, replay, cfg.selection.tau)
            assert_scores_match(got, want)
            assert np.array_equal(picked, take_ranked(rank(want.combined), 10))
