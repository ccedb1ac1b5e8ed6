"""Reference MLP arithmetic that the library's ``sigmoid``, ``forward``,
``backward`` and ``sgd_step`` are checked against, bit for bit.

This is the straightforward version: every intermediate is a fresh array,
both modes fill a cache of every layer, the batch-norm variance comes from
``np.var`` (which takes the mean a second time), sums go through
``np.sum``, ``sgd_step`` checks only the weight and bias shapes and
``sigmoid`` fills the two signs through boolean masks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from pdfmlp.mlp import (
    PROB_EPS,
    ForwardCache,
    LayerGrads,
    MlpModel,
    Mode,
    _LayerCache,
)


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward(
    model: MlpModel,
    batch: np.ndarray,
    mode: Mode = "infer",
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, ForwardCache]:
    X = np.asarray(batch, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != model.input_width:
        raise ValueError(f"batch must be (n, {model.input_width}), got {X.shape}")
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "train" and rng is None and any(l.dropout_rate > 0 for l in model.layers):
        raise ValueError("train mode with dropout needs an rng")

    cache = ForwardCache(mode=mode, batch_size=X.shape[0], widths=model.widths())
    out = X
    for layer in model.layers:
        x = out
        z = x @ layer.weights.T + layer.biases
        lc = _LayerCache(x=x, y=z, h=z)
        if layer.batch_norm is not None:
            bn = layer.batch_norm
            if mode == "train":
                mean = z.mean(axis=0)
                var = z.var(axis=0)
                bn.running_mean = (1.0 - bn.momentum) * bn.running_mean + bn.momentum * mean
                bn.running_var = (1.0 - bn.momentum) * bn.running_var + bn.momentum * var
            else:
                mean = bn.running_mean
                var = bn.running_var
            inv_std = 1.0 / np.sqrt(var + bn.epsilon)
            xhat = (z - mean) * inv_std
            lc.y = bn.gamma * xhat + bn.beta
            if mode == "train":
                lc.bn_inv_std, lc.bn_xhat = inv_std, xhat
        lc.h = np.maximum(lc.y, 0.0) if layer.activation == "relu" else sigmoid(lc.y)
        out = lc.h
        if mode == "train" and layer.dropout_rate > 0.0:
            keep = 1.0 - layer.dropout_rate
            mask = (rng.random(out.shape) >= layer.dropout_rate).astype(np.float64)
            lc.dropout_mask = mask
            out = out * mask / keep
        cache.layers.append(lc)

    probs_raw = out[:, 0]
    cache.probs_raw = probs_raw
    probs = np.clip(probs_raw, PROB_EPS, 1.0 - PROB_EPS)
    return probs, cache


def backward(model: MlpModel, cache: ForwardCache, labels: np.ndarray) -> list[LayerGrads]:
    if cache.mode != "train":
        raise ValueError("backward needs a train-mode forward cache")
    if cache.widths != model.widths() or len(cache.layers) != len(model.layers):
        raise ValueError("cache does not match this model")
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if y.shape[0] != cache.batch_size:
        raise ValueError("label count does not match the cached batch")

    n = cache.batch_size
    grads: list[Optional[LayerGrads]] = [None] * len(model.layers)
    # d(mean CE)/dz at the sigmoid output.
    delta = (cache.probs_raw - y)[:, None] / n

    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        lc = cache.layers[i]
        if i != len(model.layers) - 1:
            dh = delta
            if lc.dropout_mask is not None:
                dh = dh * lc.dropout_mask / (1.0 - layer.dropout_rate)
            if layer.activation == "relu":
                dy = dh * (lc.y > 0.0)
            else:
                dy = dh * lc.h * (1.0 - lc.h)
        else:
            dy = delta  # already includes the sigmoid derivative

        dgamma = dbeta = None
        if layer.batch_norm is not None:
            bn = layer.batch_norm
            xhat, inv_std = lc.bn_xhat, lc.bn_inv_std
            dgamma = np.sum(dy * xhat, axis=0)
            dbeta = np.sum(dy, axis=0)
            dxhat = dy * bn.gamma
            dz = (
                inv_std
                / n
                * (n * dxhat - np.sum(dxhat, axis=0) - xhat * np.sum(dxhat * xhat, axis=0))
            )
        else:
            dz = dy

        grads[i] = LayerGrads(
            weights=dz.T @ lc.x,
            biases=dz.sum(axis=0),
            gamma=dgamma,
            beta=dbeta,
        )
        delta = dz @ layer.weights

    return grads  # type: ignore[return-value]


def sgd_step(model: MlpModel, grads: list[LayerGrads], eta: float) -> MlpModel:
    if eta < 0:
        raise ValueError("learning rate must not be negative")
    if len(grads) != len(model.layers):
        raise ValueError("gradient/layer count mismatch")
    if eta == 0.0:
        return model
    for layer, g in zip(model.layers, grads):
        if g.weights.shape != layer.weights.shape or g.biases.shape != layer.biases.shape:
            raise ValueError("gradient shapes do not match the model")
        layer.weights -= eta * g.weights
        layer.biases -= eta * g.biases
        if layer.batch_norm is not None and g.gamma is not None:
            layer.batch_norm.gamma -= eta * g.gamma
            layer.batch_norm.beta -= eta * g.beta
    return model
