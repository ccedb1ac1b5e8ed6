"""From-scratch multilayer perceptron for binary classification.

Dense layers compute f(x W^T + b); hidden layers optionally apply batch
normalization between the affine map and the activation, then inverted
dropout after it.  The output layer is a single sigmoid probability.
Training minimizes mean binary cross-entropy via analytic
backpropagation and plain SGD steps (delta = -eta * gradient).

Everything is float64 and deterministic for a given RNG, which is what
makes the finite-difference gradient tests and reproducible training
runs possible.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence

import numpy as np

__all__ = [
    "BATCH_NORM_ARRAYS",
    "BatchNormState",
    "DenseLayer",
    "ForwardCache",
    "LayerGrads",
    "MlpModel",
    "backward",
    "build_model",
    "cross_entropy",
    "forward",
    "mean_cross_entropy",
    "predict",
    "sgd_step",
    "sigmoid",
]

PROB_EPS = 1e-12  # clamp for log arguments and reported probabilities

Mode = Literal["train", "infer"]
Verdict = Literal["benign", "malicious"]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    ``exp`` only ever sees -|z|, written ``where(z >= 0, -z, z)`` so that
    a NaN keeps its sign and payload.
    """
    z = np.asarray(z, dtype=np.float64)
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


# The batch-norm arrays, in the order a model file stores them.
BATCH_NORM_ARRAYS = ("gamma", "beta", "running_mean", "running_var")


@dataclass
class BatchNormState:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    epsilon: float = 1e-5

    def __post_init__(self) -> None:
        shapes = [np.shape(getattr(self, name)) for name in BATCH_NORM_ARRAYS]
        if len(shapes[0]) != 1 or len(set(shapes)) != 1:
            raise ValueError(f"batch-norm arrays must be vectors of one length, got {shapes}")
        # Written so that NaN fails them: NaN fails every comparison.
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError(f"batch-norm momentum must be in [0, 1], got {self.momentum!r}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"batch-norm epsilon must be positive and finite, got {self.epsilon!r}")
        if not np.all(self.running_var >= 0):
            raise ValueError("running variance must be non-negative")


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray  # (out,)
    activation: Literal["relu", "sigmoid"]
    batch_norm: Optional[BatchNormState] = None
    dropout_rate: float = 0.0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ValueError("weight/bias shapes do not match")
        if self.activation not in ("relu", "sigmoid"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.batch_norm is not None and np.shape(self.batch_norm.gamma) != self.biases.shape:
            raise ValueError("batch-norm width does not match the layer's output width")

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]

    @property
    def out_width(self) -> int:
        return self.weights.shape[0]


@dataclass
class MlpModel:
    layers: list[DenseLayer]
    threshold: float = 0.62

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("model needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_width != b.in_width:
                raise ValueError(f"layer widths do not chain: {a.out_width} -> {b.in_width}")
        if self.layers[-1].activation != "sigmoid":
            raise ValueError("output layer must be sigmoid")
        if self.layers[-1].dropout_rate != 0.0:
            raise ValueError("output layer must not use dropout")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be inside (0, 1)")

    @property
    def input_width(self) -> int:
        return self.layers[0].in_width

    def widths(self) -> tuple[int, ...]:
        return (self.input_width,) + tuple(l.out_width for l in self.layers)

    def copy(self) -> "MlpModel":
        return copy.deepcopy(self)


def build_model(
    input_width: int = 48,
    hidden_widths: Sequence[int] = (72, 72),
    *,
    dropout_rate: float = 0.15,
    batch_norm: bool = True,
    threshold: float = MlpModel.threshold,
    rng: Optional[np.random.Generator] = None,
) -> MlpModel:
    """Create a freshly initialized network.

    Weights start uniform in +-sqrt(6 / (fan_in + fan_out)), biases at 0,
    batch-norm scale at 1 and shift at 0.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    widths = [input_width, *hidden_widths, 1]
    layers = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        last = i == len(widths) - 2
        bn = None
        if batch_norm and not last:
            bn = BatchNormState(
                gamma=np.ones(fan_out),
                beta=np.zeros(fan_out),
                running_mean=np.zeros(fan_out),
                running_var=np.ones(fan_out),
            )
        layers.append(
            DenseLayer(
                weights=weights,
                biases=np.zeros(fan_out),
                activation="sigmoid" if last else "relu",
                batch_norm=bn,
                dropout_rate=0.0 if last else dropout_rate,
            )
        )
    return MlpModel(layers=layers, threshold=threshold)


@dataclass
class _LayerCache:
    x: np.ndarray  # layer input
    y: np.ndarray  # post batch-norm (== the affine output when no batch norm)
    h: np.ndarray  # post activation
    bn_inv_std: Optional[np.ndarray] = None
    bn_xhat: Optional[np.ndarray] = None
    dropout_mask: Optional[np.ndarray] = None


@dataclass
class ForwardCache:
    mode: Mode
    batch_size: int
    layers: list[_LayerCache] = field(default_factory=list)  # empty in infer mode
    probs_raw: Optional[np.ndarray] = None  # pre-clamp sigmoid outputs; train mode only
    widths: tuple[int, ...] = ()


def forward(
    model: MlpModel,
    batch: np.ndarray,
    mode: Mode = "infer",
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network over a batch of rows.

    Train mode normalizes with batch statistics (updating the running
    ones), applies inverted dropout from ``rng`` and fills the cache
    backward needs.  Infer mode uses the running statistics, applies no
    dropout, leaves the model untouched and returns a cache with no
    layers.  Returns probabilities clamped into (0, 1) plus the cache.

    Every in-place operation below writes an array this call created;
    the batch and the model's arrays are only read.
    """
    X = np.asarray(batch, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    widths = model.widths()
    if X.ndim != 2 or X.shape[1] != widths[0]:
        raise ValueError(f"batch must be (n, {widths[0]}), got {X.shape}")
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    n = X.shape[0]
    cache = ForwardCache(mode=mode, batch_size=n, widths=widths)
    if mode == "infer":
        return _infer(model, X), cache
    if rng is None and any(l.dropout_rate > 0 for l in model.layers):
        raise ValueError("train mode with dropout needs an rng")

    out = X
    for layer in model.layers:
        x = out
        z = x @ layer.weights.T
        z += layer.biases
        lc = _LayerCache(x=x, y=z, h=z)
        bn = layer.batch_norm
        if bn is not None:
            # np.var's own steps, reusing the mean: sum / n, centre,
            # sum of squares / n.
            mean = np.add.reduce(z, 0) / n
            z -= mean
            var = np.add.reduce(z * z, 0) / n
            bn.running_mean = (1.0 - bn.momentum) * bn.running_mean + bn.momentum * mean
            bn.running_var = (1.0 - bn.momentum) * bn.running_var + bn.momentum * var
            var += bn.epsilon
            inv_std = np.divide(1.0, np.sqrt(var, out=var), out=var)
            z *= inv_std  # now xhat
            lc.y = bn.gamma * z
            lc.y += bn.beta
            lc.bn_inv_std, lc.bn_xhat = inv_std, z
        lc.h = np.maximum(lc.y, 0.0) if layer.activation == "relu" else sigmoid(lc.y)
        out = lc.h
        if layer.dropout_rate > 0.0:
            mask = rng.random(out.shape)
            np.greater_equal(mask, layer.dropout_rate, out=mask)  # 1.0 keeps, 0.0 drops
            lc.dropout_mask = mask
            out = out * mask
            out /= 1.0 - layer.dropout_rate
        cache.layers.append(lc)

    cache.probs_raw = out[:, 0]
    return np.clip(cache.probs_raw, PROB_EPS, 1.0 - PROB_EPS), cache


def _infer(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Infer-mode probabilities, with no cache.

    Each layer's bias, batch norm (from the running statistics) and ReLU
    are applied in place to the array its product returns, so at most
    two layers' outputs are alive at a time.
    """
    out = X
    for layer in model.layers:
        out = out @ layer.weights.T
        out += layer.biases
        bn = layer.batch_norm
        if bn is not None:
            out -= bn.running_mean
            var = bn.running_var + bn.epsilon
            out *= np.divide(1.0, np.sqrt(var, out=var), out=var)
            np.multiply(bn.gamma, out, out=out)
            out += bn.beta
        if layer.activation == "relu":
            np.maximum(out, 0.0, out=out)
        else:
            out = sigmoid(out)
    return np.clip(out[:, 0], PROB_EPS, 1.0 - PROB_EPS)


def cross_entropy(y_hat, y) -> float:
    """Binary cross-entropy -y log p - (1-y) log (1-p) with clamped p."""
    p = np.clip(np.asarray(y_hat, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(y, dtype=np.float64)
    value = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return float(value) if value.ndim == 0 else value


def mean_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(cross_entropy(probs, labels)))


@dataclass
class LayerGrads:
    weights: np.ndarray
    biases: np.ndarray
    gamma: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None


def backward(model: MlpModel, cache: ForwardCache, labels: np.ndarray) -> list[LayerGrads]:
    """Exact gradients of the mean cross-entropy for every parameter.

    Requires the cache of a train-mode forward over the same batch; the
    sigmoid+cross-entropy pair collapses to (p - y)/n at the output.
    Every in-place operation below writes an array this call created, so
    the cache and the labels are only read.
    """
    if cache.mode != "train":
        raise ValueError("backward needs a train-mode forward cache")
    if cache.widths != model.widths() or len(cache.layers) != len(model.layers):
        raise ValueError("cache does not match this model")
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if y.shape[0] != cache.batch_size:
        raise ValueError("label count does not match the cached batch")

    n = cache.batch_size
    last = len(model.layers) - 1
    grads: list[Optional[LayerGrads]] = [None] * len(model.layers)
    # d(mean CE)/dz at the sigmoid output.
    delta = (cache.probs_raw - y)[:, None] / n

    for i in range(last, -1, -1):
        layer = model.layers[i]
        lc = cache.layers[i]
        dy = delta  # at the output it already includes the sigmoid derivative
        if i != last:
            if lc.dropout_mask is not None:
                dy *= lc.dropout_mask
                dy /= 1.0 - layer.dropout_rate
            if layer.activation == "relu":
                dy *= lc.y > 0.0
            else:
                dy *= lc.h
                dy *= 1.0 - lc.h

        dgamma = dbeta = None
        bn = layer.batch_norm
        if bn is not None:
            xhat = lc.bn_xhat
            t = dy * xhat
            dgamma = np.add.reduce(t, 0)
            dbeta = np.add.reduce(dy, 0)
            dy *= bn.gamma  # now dxhat
            sum_dxhat = np.add.reduce(dy, 0)
            np.multiply(dy, xhat, out=t)
            sum_dxhat_xhat = np.add.reduce(t, 0)
            # dz = inv_std / n * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))
            dy *= n
            dy -= sum_dxhat
            dy -= np.multiply(xhat, sum_dxhat_xhat, out=t)
            dy *= lc.bn_inv_std / n
        dz = dy

        grads[i] = LayerGrads(
            weights=dz.T @ lc.x,
            biases=np.add.reduce(dz, 0),
            gamma=dgamma,
            beta=dbeta,
        )
        if i:
            delta = dz @ layer.weights

    return grads  # type: ignore[return-value]


def sgd_step(model: MlpModel, grads: list[LayerGrads], eta: float) -> MlpModel:
    """Apply p <- p - eta * grad(p) to every parameter, in place.

    Every gradient is checked against its layer before any parameter
    moves: a batch-norm layer needs a ``gamma`` and ``beta`` gradient of
    its width, and a layer without batch norm must get neither.
    """
    if not eta >= 0:
        raise ValueError("learning rate must not be negative or NaN")
    if len(grads) != len(model.layers):
        raise ValueError("gradient/layer count mismatch")
    for i, (layer, g) in enumerate(zip(model.layers, grads)):
        width = layer.biases.shape
        if g.weights.shape != layer.weights.shape or g.biases.shape != width:
            raise ValueError("gradient shapes do not match the model")
        if layer.batch_norm is None:
            if g.gamma is not None or g.beta is not None:
                raise ValueError(f"layer {i} has no batch norm but got gamma/beta gradients")
        elif g.gamma is None or g.beta is None:
            raise ValueError(f"layer {i} has batch norm but got no gamma/beta gradients")
        elif g.gamma.shape != width or g.beta.shape != width:
            raise ValueError(f"layer {i}: gamma/beta gradient shapes do not match the layer")
    if eta == 0.0:
        return model
    for layer, g in zip(model.layers, grads):
        layer.weights -= eta * g.weights
        layer.biases -= eta * g.biases
        if layer.batch_norm is not None:
            layer.batch_norm.gamma -= eta * g.gamma
            layer.batch_norm.beta -= eta * g.beta
    return model


def predict(model: MlpModel, x: np.ndarray) -> tuple[float, Verdict]:
    """Score one standardized feature vector; malicious iff p >= threshold."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_width,):
        raise ValueError(f"expected a vector of {model.input_width} values")
    probs, _ = forward(model, x[None, :], mode="infer")
    p = float(probs[0])
    return p, ("malicious" if p >= model.threshold else "benign")
