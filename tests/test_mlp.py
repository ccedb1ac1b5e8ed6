"""Network math: forward values, loss oracles, gradients, SGD arithmetic."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdfmlp.mlp import (
    BATCH_NORM_ARRAYS,
    BatchNormState,
    DenseLayer,
    MlpModel,
    backward,
    build_model,
    cross_entropy,
    forward,
    mean_cross_entropy,
    predict,
    sgd_step,
    sigmoid,
)

import mlp_reference
from gradcheck import grad_arrays, max_relative_error, min_relu_margin, param_arrays


def tiny_model(weights, biases, activation="relu", out_weights=None, out_bias=0.0):
    """input -> one hidden neuron -> sigmoid output, no batch norm."""
    w = np.asarray(weights, dtype=np.float64).reshape(1, -1)
    layers = [
        DenseLayer(weights=w, biases=np.array([biases], dtype=float), activation=activation),
        DenseLayer(
            weights=np.array([[1.0 if out_weights is None else out_weights]]),
            biases=np.array([out_bias]),
            activation="sigmoid",
        ),
    ]
    return MlpModel(layers=layers, threshold=0.5)


# -- cross entropy -------------------------------------------------------------


def test_cross_entropy_half_wrong():
    # -log(0.5) = ln 2
    assert cross_entropy(0.5, 1) == pytest.approx(math.log(2.0), abs=1e-12)
    assert cross_entropy(0.5, 1) == pytest.approx(0.693147, abs=1e-6)


def test_cross_entropy_confident_right():
    assert cross_entropy(0.9, 1) == pytest.approx(-math.log(0.9), abs=1e-12)
    assert cross_entropy(0.9, 1) == pytest.approx(0.105361, abs=1e-6)
    assert cross_entropy(0.1, 0) == pytest.approx(-math.log(0.9), abs=1e-12)


def test_cross_entropy_vanishes_with_error():
    previous = np.inf
    for p in (0.5, 0.9, 0.99, 0.999999, 1.0):
        loss = cross_entropy(p, 1)
        assert loss >= 0.0
        assert loss < previous
        previous = loss
    assert cross_entropy(1.0, 1) == pytest.approx(0.0, abs=1e-11)


def test_cross_entropy_clamps_saturated_probabilities():
    assert math.isfinite(cross_entropy(0.0, 1))
    assert math.isfinite(cross_entropy(1.0, 0))
    assert cross_entropy(0.0, 1) == pytest.approx(-math.log(1e-12))


def test_cross_entropy_nonnegative_always():
    rng = np.random.default_rng(0)
    p = rng.random(1000)
    y = rng.integers(0, 2, 1000)
    assert np.all(cross_entropy(p, y) >= 0.0)


# -- forward -------------------------------------------------------------------


def test_zero_model_outputs_half():
    model = build_model(48, (72, 72), dropout_rate=0.0, batch_norm=False)
    for layer in model.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    X = np.random.default_rng(1).normal(size=(5, 48))
    probs, _ = forward(model, X, mode="infer")
    np.testing.assert_array_equal(probs, np.full(5, 0.5))


def test_relu_cutoff_single_neuron():
    # The unit output weight hands the ReLU's value to the sigmoid: -3 and
    # 0 are both clamped to 0, and 2.5 passes through.
    model = tiny_model([1.0], 0.0)
    probs, _ = forward(model, np.array([[-3.0], [0.0], [2.5]]), mode="infer")
    assert probs.tolist() == sigmoid(np.array([0.0, 0.0, 2.5])).tolist()


def test_outputs_strictly_inside_unit_interval():
    rng = np.random.default_rng(7)
    model = build_model(48, (72, 72), dropout_rate=0.15, batch_norm=True, rng=rng)
    X = rng.normal(size=(64, 48)) * 50  # large inputs push the sigmoid hard
    probs, _ = forward(model, X, mode="infer")
    assert np.all(probs > 0.0)
    assert np.all(probs < 1.0)


def test_forward_rejects_wrong_width():
    model = build_model(48, (8,), rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="batch must be"):
        forward(model, np.zeros((3, 47)))


def test_train_mode_dropout_needs_rng():
    model = build_model(48, (8,), dropout_rate=0.5, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="needs an rng"):
        forward(model, np.zeros((3, 48)), mode="train")


def test_infer_forward_holds_no_per_layer_arrays():
    # An infer pass keeps at most the previous layer's output and the
    # current one alive; a per-layer cache would keep every layer's.
    rng = np.random.default_rng(3)
    model = build_model(48, (72, 72), rng=rng)
    n = 20_000
    X = rng.normal(size=(n, 48))
    tracemalloc.start()
    try:
        probs, cache = forward(model, X, mode="infer")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert probs.shape == (n,)
    assert cache.layers == [] and cache.probs_raw is None
    assert peak < 2.5 * n * 72 * 8


def test_infer_ignores_rng_and_never_mutates():
    rng = np.random.default_rng(42)
    model = build_model(48, (16, 16), dropout_rate=0.3, batch_norm=True, rng=rng)
    snapshot = copy.deepcopy(model)
    X = rng.normal(size=(10, 48))
    a, _ = forward(model, X, mode="infer", rng=np.random.default_rng(1))
    b, _ = forward(model, X, mode="infer", rng=np.random.default_rng(999))
    c, _ = forward(model, X, mode="infer")
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c)
    for before, after in zip(param_arrays(snapshot), param_arrays(model)):
        np.testing.assert_array_equal(before, after)
    for l0, l1 in zip(snapshot.layers, model.layers):
        if l0.batch_norm:
            np.testing.assert_array_equal(l0.batch_norm.running_mean, l1.batch_norm.running_mean)
            np.testing.assert_array_equal(l0.batch_norm.running_var, l1.batch_norm.running_var)


def test_same_seed_same_dropout_masks():
    rng = np.random.default_rng(3)
    model = build_model(48, (32,), dropout_rate=0.4, batch_norm=False, rng=rng)
    X = rng.normal(size=(16, 48))
    p1, c1 = forward(model, X, mode="train", rng=np.random.default_rng(77))
    p2, c2 = forward(model, X, mode="train", rng=np.random.default_rng(77))
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(c1.layers[0].dropout_mask, c2.layers[0].dropout_mask)


def test_train_mode_updates_running_stats():
    rng = np.random.default_rng(5)
    model = build_model(48, (8,), dropout_rate=0.0, batch_norm=True, rng=rng)
    before = model.layers[0].batch_norm.running_mean.copy()
    forward(model, rng.normal(size=(32, 48)) + 10.0, mode="train")
    after = model.layers[0].batch_norm.running_mean
    assert not np.array_equal(before, after)


# -- backward against finite differences -----------------------------------------


def _random_case(seed, batch_norm):
    rng = np.random.default_rng(seed)
    model = build_model(
        48, (72, 72), dropout_rate=0.0, batch_norm=batch_norm, rng=rng
    )
    X = rng.normal(size=(4, 48))
    y = rng.integers(0, 2, 4).astype(float)
    return model, X, y


def test_gradients_match_finite_differences_every_parameter():
    model, X, y = _random_case(seed=2024, batch_norm=False)
    assert min_relu_margin(model, X) > 1e-4  # finite differences stay off the kink
    probs, cache = forward(model, X, mode="train")
    grads = backward(model, cache, y)
    assert max_relative_error(model, X, y, grads) <= 1e-4


def test_gradients_with_batch_norm_every_parameter():
    model, X, y = _random_case(seed=99, batch_norm=True)
    assert min_relu_margin(model, X) > 1e-4
    probs, cache = forward(model, X, mode="train")
    grads = backward(model, cache, y)
    assert max_relative_error(model, X, y, grads) <= 1e-3


def test_zero_batch_zero_weights_gradients():
    # All-zero input and parameters: p = 0.5 everywhere, so the output bias
    # gradient is mean(p - y) and every weight gradient is zero.
    model = build_model(48, (72, 72), dropout_rate=0.0, batch_norm=False)
    for layer in model.layers:
        layer.weights[:] = 0.0
        layer.biases[:] = 0.0
    X = np.zeros((6, 48))
    y = np.array([1, 0, 1, 1, 0, 0], dtype=float)
    probs, cache = forward(model, X, mode="train")
    grads = backward(model, cache, y)
    for g in grads:
        np.testing.assert_array_equal(g.weights, np.zeros_like(g.weights))
    np.testing.assert_allclose(grads[-1].biases, [np.mean(0.5 - y)], atol=1e-15)
    np.testing.assert_array_equal(grads[0].biases, np.zeros(72))


def test_duplicating_batch_keeps_mean_gradient():
    model, X, y = _random_case(seed=5, batch_norm=True)
    _, cache1 = forward(model, X, mode="train")
    g1 = backward(model, cache1, y)
    X2 = np.concatenate([X, X])
    y2 = np.concatenate([y, y])
    _, cache2 = forward(model, X2, mode="train")
    g2 = backward(model, cache2, y2)
    for a, b in zip(grad_arrays(g1), grad_arrays(g2)):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_backward_rejects_infer_cache():
    model, X, y = _random_case(seed=1, batch_norm=False)
    _, cache = forward(model, X, mode="infer")
    with pytest.raises(ValueError, match="train-mode"):
        backward(model, cache, y)


def test_backward_rejects_mismatched_cache():
    model, X, y = _random_case(seed=1, batch_norm=False)
    other = build_model(48, (9, 9), dropout_rate=0.0, rng=np.random.default_rng(0))
    _, cache = forward(other, X, mode="train")
    with pytest.raises(ValueError, match="does not match"):
        backward(model, cache, y)
    _, cache2 = forward(model, X, mode="train")
    with pytest.raises(ValueError, match="label count"):
        backward(model, cache2, y[:2])


def _snapshot(cache):
    arrays = [cache.probs_raw]
    for lc in cache.layers:
        arrays += [lc.x, lc.y, lc.h, lc.bn_inv_std, lc.bn_xhat, lc.dropout_mask]
    return [None if a is None else a.copy() for a in arrays]


def _aliasing_model(rng):
    model = build_model(48, (16, 16), dropout_rate=0.3, batch_norm=True, rng=rng)
    model.layers[1].activation = "sigmoid"
    return model


def test_backward_writes_no_cache_array():
    # backward updates its temporaries in place; a second call on the same
    # cache must see the cache exactly as forward left it.
    rng = np.random.default_rng(11)
    model = _aliasing_model(rng)
    X = rng.normal(size=(12, 48))
    y = rng.integers(0, 2, 12).astype(float)
    _, cache = forward(model, X, mode="train", rng=np.random.default_rng(1))
    before = _snapshot(cache)
    first = backward(model, cache, y)
    second = backward(model, cache, y)
    for a, b in zip(grad_arrays(first), grad_arrays(second)):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(before, _snapshot(cache)):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_read_only_batch_and_labels_are_left_unchanged(mode):
    rng = np.random.default_rng(12)
    model = _aliasing_model(rng)
    X = rng.normal(size=(12, 48))
    y = rng.integers(0, 2, 12).astype(float)
    X_copy, y_copy = X.copy(), y.copy()
    X.setflags(write=False)
    y.setflags(write=False)
    _, cache = forward(model, X, mode=mode, rng=np.random.default_rng(1))
    if mode == "train":
        backward(model, cache, y)
    assert X.tobytes() == X_copy.tobytes()
    assert y.tobytes() == y_copy.tobytes()


# -- sgd step ---------------------------------------------------------------------


def test_sgd_zero_eta_is_bitwise_noop():
    model, X, y = _random_case(seed=8, batch_norm=True)
    snapshot = copy.deepcopy(model)
    _, cache = forward(model, X, mode="train")
    grads = backward(model, cache, y)
    sgd_step(model, grads, eta=0.0)
    for before, after in zip(param_arrays(snapshot), param_arrays(model)):
        np.testing.assert_array_equal(before, after)


def test_sgd_scalar_arithmetic():
    # w=1, grad=2, eta=0.1: w' = 1 - 0.1*2 = 0.8
    model = tiny_model([1.0], 0.0)
    grads = [
        type("G", (), {"weights": np.array([[2.0]]), "biases": np.array([0.0]), "gamma": None, "beta": None})(),
        type("G", (), {"weights": np.array([[0.0]]), "biases": np.array([0.0]), "gamma": None, "beta": None})(),
    ]
    sgd_step(model, grads, eta=0.1)
    assert model.layers[0].weights[0, 0] == pytest.approx(0.8, abs=1e-15)


def test_sgd_negative_eta_rejected():
    model, X, y = _random_case(seed=8, batch_norm=False)
    _, cache = forward(model, X, mode="train")
    grads = backward(model, cache, y)
    snapshot = copy.deepcopy(model)
    for eta in (-0.1, np.nan):
        with pytest.raises(ValueError):
            sgd_step(model, grads, eta=eta)
    for before, after in zip(param_arrays(snapshot), param_arrays(model)):
        np.testing.assert_array_equal(before, after)


def _bn_model_and_grads():
    model, X, y = _random_case(seed=8, batch_norm=True)
    _, cache = forward(model, X, mode="train")
    return model, backward(model, cache, y)


def _narrow_gamma(model, grads):
    # A (1,) gradient broadcast over the 72-wide layer.
    grads[0].gamma = grads[0].gamma[:1]


def _no_gamma(model, grads):
    # The layer's scale and shift were left where they were.
    grads[0].gamma = grads[0].beta = None


def _gamma_without_batch_norm(model, grads):
    # The gradient was ignored.
    model.layers[0].batch_norm = None


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_narrow_gamma, "gamma/beta gradient shapes"),
        (_no_gamma, "has batch norm but got no"),
        (_gamma_without_batch_norm, "has no batch norm but got"),
    ],
    ids=["narrow-gamma", "no-gamma", "gamma-without-batch-norm"],
)
@pytest.mark.parametrize("eta", [0.0, 0.1])
def test_sgd_rejects_batch_norm_gradients_that_do_not_fit(spoil, message, eta):
    model, grads = _bn_model_and_grads()
    spoil(model, grads)
    snapshot = copy.deepcopy(model)
    with pytest.raises(ValueError, match=message):
        sgd_step(model, grads, eta=eta)
    for before, after in zip(param_arrays(snapshot), param_arrays(model)):
        np.testing.assert_array_equal(before, after)


def test_sgd_step_decreases_convex_loss():
    # Single linear path to the sigmoid makes the loss convex in the weight.
    model, X, y = _random_case(seed=31, batch_norm=False)
    _, cache = forward(model, X, mode="train")
    before = mean_cross_entropy(forward(model, X, mode="train")[0], y)
    grads = backward(model, cache, y)
    sgd_step(model, grads, eta=0.05)
    after = mean_cross_entropy(forward(model, X, mode="train")[0], y)
    assert after < before


# -- predict ------------------------------------------------------------------------


def test_predict_threshold_tie_is_malicious():
    # drive the output near 0.62 via a constant bias, then set the
    # threshold to that exact probability: the >= rule flags the tie
    model = tiny_model([0.0], 0.0, out_bias=math.log(0.62 / 0.38))
    p, _ = predict(model, np.zeros(1))
    assert p == pytest.approx(0.62, abs=1e-12)
    model.threshold = p
    assert predict(model, np.zeros(1)) == (p, "malicious")
    model.threshold = 0.5
    p2, verdict = predict(tiny_model([0.0], 0.0), np.zeros(1))
    assert (p2, verdict) == (0.5, "malicious")


def test_predict_zero_probability_is_benign():
    model = tiny_model([0.0], 0.0, out_bias=-60.0)
    for threshold in (0.01, 0.5, 0.99):
        model.threshold = threshold
        p, verdict = predict(model, np.zeros(1))
        assert verdict == "benign"
        assert p < threshold


def test_raising_threshold_only_flips_toward_benign():
    rng = np.random.default_rng(12)
    model = build_model(48, (16,), dropout_rate=0.0, batch_norm=False, rng=rng)
    xs = rng.normal(size=(50, 48))
    verdicts = {}
    for threshold in (0.2, 0.5, 0.8):
        model.threshold = threshold
        verdicts[threshold] = [predict(model, x)[1] for x in xs]
    for lo, hi in ((0.2, 0.5), (0.5, 0.8)):
        for a, b in zip(verdicts[lo], verdicts[hi]):
            if a == "benign":
                assert b == "benign"


def test_predict_rejects_wrong_width():
    model = build_model(48, (8,), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        predict(model, np.zeros(47))


# -- model construction ---------------------------------------------------------------


def test_paper_architecture_shape():
    model = build_model()
    assert model.widths() == (48, 72, 72, 1)
    assert model.threshold == 0.62
    assert [l.activation for l in model.layers] == ["relu", "relu", "sigmoid"]
    assert [l.dropout_rate for l in model.layers] == [0.15, 0.15, 0.0]
    assert model.layers[0].batch_norm is not None
    assert model.layers[-1].batch_norm is None


def test_model_validation():
    good = build_model(4, (3,), rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="chain"):
        MlpModel(layers=[good.layers[0], good.layers[0]])
    with pytest.raises(ValueError, match="threshold"):
        build_model(4, (3,), threshold=1.5, rng=np.random.default_rng(0))


@pytest.mark.parametrize(
    "running_var, epsilon, message",
    [
        ([np.nan, 1.0], 1e-5, "running variance"),
        ([1.0, 1.0], np.nan, "epsilon"),
        ([-1.0, 1.0], 1e-5, "running variance"),
        ([1.0, 1.0], 0.0, "epsilon"),
    ],
)
def test_batch_norm_state_validation(running_var, epsilon, message):
    # NaN fails `< 0` and `<= 0` as well, so a NaN variance or epsilon passed.
    with pytest.raises(ValueError, match=message):
        _batch_norm_state(running_var=np.array(running_var), epsilon=epsilon)


def _batch_norm_state(width=2, **changes):
    fields = dict(
        gamma=np.ones(width),
        beta=np.zeros(width),
        running_mean=np.zeros(width),
        running_var=np.ones(width),
    )
    return BatchNormState(**{**fields, **changes})


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"momentum": 5.0}, "momentum"),
        ({"momentum": -0.1}, "momentum"),
        ({"momentum": np.nan}, "momentum"),
        ({"epsilon": np.inf}, "epsilon"),
        ({"beta": np.zeros(3)}, "one length"),
        ({"running_mean": np.zeros((2, 1))}, "one length"),
        ({name: np.ones((1, 2)) for name in BATCH_NORM_ARRAYS}, "vectors"),
    ],
    ids=[
        "momentum-5",
        "momentum-negative",
        "momentum-nan",
        "epsilon-inf",
        "two-lengths",
        "one-array-2d",
        "all-arrays-2d",
    ],
)
def test_batch_norm_state_rules(changes, message):
    # Each of these constructed, and a momentum of 5 moved the running
    # statistics outside the batch statistics in training.
    with pytest.raises(ValueError, match=message):
        _batch_norm_state(**changes)


def test_batch_norm_bounds_are_allowed():
    _batch_norm_state(momentum=0.0)
    _batch_norm_state(momentum=1.0, epsilon=1e-300)


def test_dense_layer_rejects_batch_norm_of_another_width():
    # A narrower state broadcast over the layer's outputs when scoring.
    with pytest.raises(ValueError, match="batch-norm width"):
        DenseLayer(
            weights=np.ones((3, 2)),
            biases=np.zeros(3),
            activation="relu",
            batch_norm=_batch_norm_state(width=1),
        )


def test_initialization_bounds_and_seeding():
    a = build_model(48, (72, 72), rng=np.random.default_rng(4))
    b = build_model(48, (72, 72), rng=np.random.default_rng(4))
    for pa, pb in zip(param_arrays(a), param_arrays(b)):
        np.testing.assert_array_equal(pa, pb)
    limit = math.sqrt(6.0 / (48 + 72))
    assert np.max(np.abs(a.layers[0].weights)) <= limit
    assert np.all(a.layers[0].biases == 0.0)


# -- bit identity with the reference arithmetic ---------------------------------------


def _model_arrays(model):
    for layer in model.layers:
        yield layer.weights
        yield layer.biases
        if layer.batch_norm is not None:
            for name in BATCH_NORM_ARRAYS:
                yield getattr(layer.batch_norm, name)


def _assert_same_bytes(actual, expected):
    actual, expected = list(actual), list(expected)
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


_ORACLE_CASE = dict(
    input_width=48, hidden=[72, 72], batch_size=64, batch_norm=True, dropout_rate=0.15,
    activation="relu", mode="train", layout="contiguous", seed=1,
)


@st.composite
def _oracle_cases(draw):
    return dict(
        input_width=draw(st.integers(1, 80)),
        hidden=draw(st.lists(st.integers(1, 80), min_size=1, max_size=2)),
        batch_size=draw(st.integers(1, 70)),  # 1 row gives a zero batch variance
        batch_norm=draw(st.booleans()),
        dropout_rate=draw(st.sampled_from([0.0, 0.15, 0.5])),
        activation=draw(st.sampled_from(["relu", "sigmoid"])),
        mode=draw(st.sampled_from(["train", "infer"])),
        layout=draw(st.sampled_from(["contiguous", "row-window", "row-slice", "column-slice"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _oracle_inputs(case):
    rng = np.random.default_rng(case["seed"])
    model = build_model(
        case["input_width"], case["hidden"], dropout_rate=case["dropout_rate"],
        batch_norm=case["batch_norm"], rng=rng,
    )
    for layer in model.layers:
        layer.biases[:] = rng.normal(size=layer.out_width)
        if layer is not model.layers[-1]:
            layer.activation = case["activation"]
        bn = layer.batch_norm
        if bn is not None:
            bn.gamma[:] = rng.normal(size=layer.out_width)
            bn.beta[:] = rng.normal(size=layer.out_width)
            bn.running_mean[:] = rng.normal(size=layer.out_width)
            bn.running_var[:] = rng.uniform(0.0, 3.0, size=layer.out_width)
    n, w = case["batch_size"], case["input_width"]
    rows = 3.0 * rng.normal(size=(2 * n, 2 * w))
    batch = {
        "contiguous": rows[:n, :w].copy(),
        "row-window": rows[:, :w].copy()[n // 2 : n // 2 + n],  # a training batch
        "row-slice": rows[::2, :w],
        "column-slice": rows[:n, ::2],
    }[case["layout"]]
    return model, batch, rng.integers(0, 2, n).astype(float)


@given(case=_oracle_cases())
@example(case=_ORACLE_CASE)
@example(case=dict(_ORACLE_CASE, batch_size=1, hidden=[1], input_width=1))
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_the_reference_bit_for_bit(case):
    model, batch, labels = _oracle_inputs(case)
    reference = copy.deepcopy(model)
    rng, reference_rng = np.random.default_rng(7), np.random.default_rng(7)
    mode = case["mode"]

    probs, cache = forward(model, batch, mode=mode, rng=rng)
    expected_probs, expected_cache = mlp_reference.forward(reference, batch, mode=mode, rng=reference_rng)
    _assert_same_bytes([probs], [expected_probs])
    assert (cache.mode, cache.batch_size, cache.widths) == (
        expected_cache.mode, expected_cache.batch_size, expected_cache.widths,
    )
    _assert_same_bytes(_model_arrays(model), _model_arrays(reference))
    if mode == "infer":
        assert cache.layers == [] and cache.probs_raw is None
    else:
        _assert_same_bytes(_snapshot(cache), _snapshot(expected_cache))
        grads = backward(model, cache, labels)
        expected_grads = mlp_reference.backward(reference, expected_cache, labels)
        for g, e in zip(grads, expected_grads, strict=True):
            _assert_same_bytes([g.weights, g.biases, g.gamma, g.beta],
                               [e.weights, e.biases, e.gamma, e.beta])
        sgd_step(model, grads, 0.03)
        mlp_reference.sgd_step(reference, expected_grads, 0.03)
        _assert_same_bytes(_model_arrays(model), _model_arrays(reference))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


# Edges of the two branches and of exp: signed zeros, where exp(-|z|)
# underflows to a subnormal and then to 0, infinities and NaNs.
_SIGMOID_EDGES = [
    0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 746.0, -746.0, 5e-324, -5e-324,
    2.2250738585072014e-308, -2.2250738585072014e-308, math.inf, -math.inf,
]
_SIGMOID_NANS = np.array(  # quiet and signalling, both signs, with payloads
    [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0xFFF0000000000001],
    dtype=np.uint64,
)


@given(
    values=st.lists(st.floats() | st.sampled_from(_SIGMOID_EDGES), max_size=40),
    bits=st.lists(st.integers(0, 2**64 - 1), max_size=10),
    column=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_sigmoid_matches_the_reference_bit_for_bit(values, bits, column):
    z = np.concatenate([values, _SIGMOID_NANS.view(np.float64), np.array(bits, dtype=np.uint64).view(np.float64)])
    if column:
        z = z[:, None]  # the output layer's (n, 1) shape
    got, expected = sigmoid(z), mlp_reference.sigmoid(z)
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()
