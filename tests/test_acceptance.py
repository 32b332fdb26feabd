"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single `CRITERION n: PASS/FAIL` line (visible with
`pytest -s tests/test_acceptance.py` or in the captured output of a failing
run). Criterion 10 — the full-scale 20-task reproduction — is intentionally
not a test: it takes hours and its accuracy target assumes the real MNIST
corpus. It lives in scripts/full_scale.py; see README.

Criteria 6–8 run on the built-in synthetic digit corpus (no MNIST files ship
with this repository); they check the behavioral orderings, which is what
they assert, not absolute MNIST accuracy levels.
"""

import contextlib
import io
import itertools
import time

import numpy as np
import pytest

from coresel.cli import build_stream, load_corpora, run_experiment
from coresel.config import parse_config
from coresel.datastream import make_synthetic_corpus, permute_pixels
from coresel.metrics import (
    AccuracyMatrix,
    average_accuracy,
    average_forgetting,
    grad_approx_diagnostic,
)
from coresel.model import flatten_params, init_params
from coresel.selection import rank, take_ranked
from coresel.trainer import agem_project, run_metrics, run_stream
from oracles import per_example_gradients, score_batch


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient exactness against central finite differences


def _theta_loss(theta, layers, x, y):
    """Forward pass straight off the flat parameter vector.

    Reads the canonical layout (per layer: row-major weights then biases)
    directly, so it doubles as a check of that layout.
    """
    a = x
    offset = 0
    for li, (fan_in, fan_out) in enumerate(layers):
        w = theta[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in)
        offset += fan_out * fan_in
        b = theta[offset : offset + fan_out]
        offset += fan_out
        z = w @ a + b
        a = z if li == len(layers) - 1 else np.maximum(z, 0.0)
    m = a.max()
    return float(m + np.log(np.exp(a - m).sum()) - a[y])


def test_criterion_01_gradients_match_finite_differences():
    sizes = [784, 8, 8, 10]
    layers = list(zip(sizes[:-1], sizes[1:]))
    rng = np.random.default_rng(20260815)
    step = 1e-5
    started = time.perf_counter()
    worst = 0.0
    trials = 0
    while trials < 100:
        params = init_params(sizes, rng)
        x = rng.uniform(size=784)
        y = int(rng.integers(0, 10))
        theta = flatten_params(params)
        # Central differences step across the ReLU kink when a preactivation
        # sits within the step of zero; such draws are not differentiable
        # test points, so redraw.
        a = x
        kink = False
        offset = 0
        for li, (fan_in, fan_out) in enumerate(layers):
            w = theta[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in)
            offset += fan_out * fan_in
            b = theta[offset : offset + fan_out]
            offset += fan_out
            z = w @ a + b
            if np.abs(z).min() <= 1e-3:
                kink = True
                break
            a = z if li == len(layers) - 1 else np.maximum(z, 0.0)
        if kink:
            continue
        trials += 1
        analytic = per_example_gradients(params, x[None, :], np.array([y]))[0]
        fd = np.empty_like(theta)
        for j in range(theta.size):
            theta[j] += step
            up = _theta_loss(theta, layers, x, y)
            theta[j] -= 2 * step
            down = _theta_loss(theta, layers, x, y)
            theta[j] += step
            fd[j] = (up - down) / (2 * step)
        err = np.abs(analytic - fd)
        tol = 1e-4 * np.maximum(np.abs(analytic), np.abs(fd)) + 1e-8
        if not (err <= tol).all():
            report(1, False, f"trial {trials}: max excess {float((err - tol).max()):.3e}")
        worst = max(worst, float((err / tol).max()))
    elapsed = time.perf_counter() - started
    report(1, elapsed < 60.0, f"100 pairs, worst err/tol {worst:.3f}, {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. Selection matches exhaustive subset enumeration


def test_criterion_02_selection_matches_exhaustive_enumeration():
    rng = np.random.default_rng(20260816)
    started = time.perf_counter()
    taus = (0.0, 1.0, 1000.0)
    for trial in range(200):
        b = int(rng.integers(2, 13))
        p = int(rng.integers(3, 24))
        kappa = min(int(rng.integers(1, 6)), b)
        tau = taus[trial % 3]
        grads = rng.normal(size=(b, p))
        ref = rng.normal(size=p) if trial % 5 else None
        scores = score_batch(grads, ref, tau).combined
        chosen = take_ranked(rank(scores), kappa)
        best = max(itertools.combinations(range(b), kappa), key=lambda s: scores[list(s)].sum())
        if set(chosen) != set(best):
            report(2, False, f"trial {trial}: chose {list(chosen)}, optimum {list(best)}")
    elapsed = time.perf_counter() - started
    report(2, elapsed < 60.0, f"200 instances over κ∈1..5, τ∈{{0,1,1000}}, {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 3. Score ranges and rescaling invariance


def test_criterion_03_score_ranges_and_rescale_invariance():
    rng = np.random.default_rng(20260817)
    for trial in range(10_000):
        b = int(rng.integers(1, 17))
        p = int(rng.integers(2, 12))
        grads = rng.normal(size=(b, p))
        ref = rng.normal(size=p)
        tau = float(rng.choice([0.0, 1.0, 1000.0]))
        br = score_batch(grads, ref, tau)
        ok = (
            (br.similarity >= -1).all() and (br.similarity <= 1).all()
            and (br.diversity >= -1).all() and (br.diversity <= 0).all()
            and (br.affinity >= -1).all() and (br.affinity <= 1).all()
        )
        if not ok:
            report(3, False, f"trial {trial}: range violation")
        kappa = int(rng.integers(1, b + 1))
        alpha = float(rng.lognormal(0.0, 2.0))
        scaled = score_batch(alpha * grads, ref, tau)
        if list(take_ranked(rank(br.combined), kappa)) != list(take_ranked(rank(scaled.combined), kappa)):
            report(3, False, f"trial {trial}: selection changed under rescale by {alpha:.3g}")
    report(3, True, "10^4 batches: S∈[−1,1], V∈[−1,0], A∈[−1,1]; selection invariant to positive rescaling")


# ---------------------------------------------------------------------------
# 4. Gradient projection contract


def test_criterion_04_projection_contract():
    out = agem_project(np.array([1.0, -1.0]), np.array([0.0, 1.0]), np.eye(2))  # u^T I v = u . v
    if not np.array_equal(out, np.array([1.0, 0.0])):
        report(4, False, f"worked example gave {out}")
    rng = np.random.default_rng(20260818)
    for trial in range(1000):
        n = int(rng.integers(1, 50))
        g = rng.normal(size=n) * float(rng.lognormal(0, 2))
        ref = rng.normal(size=n)
        projected = agem_project(g, ref, np.eye(n))
        if float(projected @ ref) < -1e-10:
            report(4, False, f"trial {trial}: residual dot {float(projected @ ref):.3e}")
        if float(g @ ref) >= 0 and projected is not g:
            report(4, False, f"trial {trial}: non-conflicting gradient was modified")
    report(4, True, "10^3 pairs: dot ≥ −1e-10 after projection, pass-through when aligned; worked example exact")


# ---------------------------------------------------------------------------
# 5. Metrics against brute-force formulas


def test_criterion_05_metrics_match_brute_force():
    rng = np.random.default_rng(20260819)
    for trial in range(1000):
        t = int(rng.integers(1, 9))
        m = AccuracyMatrix(t)
        for row in range(t):
            for col in range(row + 1):
                m.set(row, col, float(rng.uniform()))
        vals = m.values
        for row in range(t):
            expect = sum(vals[row, i] for i in range(row + 1)) / (row + 1)
            if abs(average_accuracy(m, row) - expect) > 1e-12:
                report(5, False, f"trial {trial}: accuracy row {row} off")
        if t == 1:
            expect_f = 0.0
        else:
            expect_f = sum(
                max(vals[row, i] for row in range(i, t - 1)) - vals[t - 1, i] for i in range(t - 1)
            ) / (t - 1)
        if abs(average_forgetting(m) - expect_f) > 1e-12:
            report(5, False, f"trial {trial}: forgetting off")
    two = AccuracyMatrix(2)
    two.set(0, 0, 0.9)
    two.set(1, 0, 0.8)
    two.set(1, 1, 0.95)
    if average_forgetting(two) != pytest.approx(0.1, abs=1e-15):
        report(5, False, f"T=2 example gave {average_forgetting(two)}")
    report(5, True, "10^3 random matrices match brute force to 1e-12; T=2 example F=0.1")


# ---------------------------------------------------------------------------
# 6. Batch-gradient fidelity trend


def test_criterion_06_gradient_approximation_trend():
    started = time.perf_counter()
    train = make_synthetic_corpus(5000, 20260820)
    cross = permute_pixels(train, np.random.SeedSequence([20260820, 1]))
    params = init_params([784, 256, 256, 10], np.random.default_rng(np.random.SeedSequence([20260820])))
    rows = grad_approx_diagnostic(
        params, train, (10, 50, 100, 500), n_batches=20, seed=20260820, other_dataset=cross
    )
    cosines = [row.mean_cosine for row in rows]
    crosses = [row.cross_cosine for row in rows]
    elapsed = time.perf_counter() - started
    trend_ok = all(b >= a for a, b in zip(cosines, cosines[1:]))
    dominance_ok = all(c > x for c, x in zip(cosines, crosses))
    detail = (
        f"cosine {['%.3f' % c for c in cosines]} vs cross {['%.3f' % c for c in crosses]}, "
        f"{elapsed:.1f}s (< 300s)"
    )
    report(6, trend_ok and dominance_ok and elapsed < 300, detail)


# ---------------------------------------------------------------------------
# 7–8. Desk-scale behavioral orderings (shared runs)

DESK_OVERRIDES = dict(
    synthetic_train="4000",
    synthetic_test="1000",
    num_tasks="5",
    train_per_task="2000",
    test_per_task="500",
    buffer_capacity="50",
    stream_batch_size="100",
    lr0="0.04",
)
# The imbalanced stream keeps 10% of 8 of 10 classes, so each task holds ~560
# rows instead of 2,000. A proportionally smaller stream batch keeps the
# optimizer-step count per task (~20) the same as the other variants.
DESK_VARIANT_OVERRIDES = {"imbalanced": dict(stream_batch_size="25")}
DESK_SEEDS = (0, 1, 2)


def _desk_runs(variant: str):
    """All (strategy, seed) runs for one stream variant; cached per session."""
    overrides = dict(DESK_OVERRIDES, **DESK_VARIANT_OVERRIDES.get(variant, {}))
    cfg = parse_config(None, dict(overrides, variant=variant), env={})
    train, test = load_corpora(cfg)
    out = {}
    for strategy in ("ocs", "uniform"):
        rows = []
        for seed in DESK_SEEDS:
            stream = build_stream(cfg, train, test, seed)
            state = run_stream(stream, cfg.train_config(strategy, seed))
            summary = run_metrics(state)
            noisy = {(t, s) for t, task in enumerate(stream.tasks) for s in task.noisy_source}
            examples = state.buffer_examples()
            noise_frac = sum(1 for e in examples if (e.task_id, e.source_index) in noisy) / max(len(examples), 1)
            rows.append(
                {
                    "accuracy": summary["final_average_accuracy"],
                    "forgetting": summary["average_forgetting"],
                    "noise_fraction": noise_frac,
                }
            )
        out[strategy] = rows
    return out


@pytest.fixture(scope="module")
def desk_imbalanced():
    return _desk_runs("imbalanced")


@pytest.fixture(scope="module")
def desk_balanced():
    return _desk_runs("balanced")


@pytest.fixture(scope="module")
def desk_noisy():
    return _desk_runs("noisy")


def _mean(rows, key):
    return float(np.mean([r[key] for r in rows]))


def test_criterion_07a_imbalanced_accuracy_margin(desk_imbalanced):
    started = time.perf_counter()
    ocs = _mean(desk_imbalanced["ocs"], "accuracy")
    uni = _mean(desk_imbalanced["uniform"], "accuracy")
    detail = f"imbalanced mean accuracy: ocs {ocs:.4f} vs uniform {uni:.4f} (need ≥ +0.02)"
    report("7a", ocs - uni >= 0.02, detail)
    assert time.perf_counter() - started < 1800


def test_criterion_07b_balanced_forgetting(desk_balanced):
    ocs = _mean(desk_balanced["ocs"], "forgetting")
    uni = _mean(desk_balanced["uniform"], "forgetting")
    report("7b", ocs <= uni, f"balanced mean forgetting: ocs {ocs:.4f} vs uniform {uni:.4f} (need ≤)")


def test_criterion_08_noisy_stream_contamination(desk_noisy):
    ocs = _mean(desk_noisy["ocs"], "noise_fraction")
    uni = _mean(desk_noisy["uniform"], "noise_fraction")
    per_seed = [
        (r_o["noise_fraction"], r_u["noise_fraction"])
        for r_o, r_u in zip(desk_noisy["ocs"], desk_noisy["uniform"])
    ]
    detail = f"coreset noise fraction: ocs {ocs:.3f} vs uniform {uni:.3f} (need < half); per seed {per_seed}"
    report(8, ocs < 0.5 * uni, detail)


# ---------------------------------------------------------------------------
# 9. Bit-identical summaries


def test_criterion_09_bit_identical_summaries(tmp_path):
    overrides = dict(
        synthetic_train="300",
        synthetic_test="120",
        num_tasks="2",
        train_per_task="80",
        test_per_task="40",
        stream_batch_size="20",
        kappa="5",
        buffer_capacity="20",
        buffer_batch_size="5",
        hidden="32",
        strategies="ocs,uniform",
        num_seeds="2",
    )
    texts = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = parse_config(None, dict(overrides, output_dir=str(out)), env={})
        with contextlib.redirect_stdout(io.StringIO()):  # the run's progress lines; the CRITERION line still prints
            code = run_experiment(cfg)
        if code != 0:
            report(9, False, f"run_experiment exited {code}")
        texts.append((out / "summary.csv").read_bytes())
    report(9, texts[0] == texts[1], "two identical-config invocations produced byte-identical summary.csv")
