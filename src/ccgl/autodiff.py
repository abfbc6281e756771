"""Minimal reverse-mode differentiation on numpy arrays, double precision.

Every differentiable computation in this package is a composition of the
primitives defined here; each primitive records its parents and a
vector-Jacobian product on a tape that is replayed once per backward pass.
A primitive's operands are Tensors or numpy arrays, and a numpy operand is a
constant: it is never recorded and gets no gradient, and a primitive with no
Tensor operand returns a plain ndarray. The closed primitive set keeps every
gradient auditable against central finite differences.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CHECKPOINT_VERSION = "ccgl-ckpt-1"


class Tensor:
    """A node of the recorded computation graph."""

    __slots__ = ("data", "grad", "_parents", "_vjp")

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


@dataclass
class Tape:
    """Topologically ordered record of one forward pass, oldest node first."""

    nodes: list = field(default_factory=list)

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(nodes=order)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad for every leaf in the loss's ancestry.

    A leaf is a tensor without parents. Interior gradients are dropped as
    soon as they have been propagated, so after the call only leaves hold
    a ``.grad``. During the walk a gradient is kept as its piece arrives,
    possibly a read-only broadcast view or an array another node also holds,
    and a second piece is added out of place, so no gradient is ever written
    in place. Once a leaf's consumers have all run, its gradient becomes an
    owned, writable, C-contiguous float64 array of the leaf's shape.
    """
    if loss.data.size != 1:
        raise ValueError(f"non-scalar loss: shape {loss.data.shape}")
    tape = Tape.trace(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node.grad is None:
            continue
        if node._vjp is None:
            # a leaf: the nodes that consume it sit later on the tape and have run
            node.grad = np.array(node.grad, dtype=np.float64, order="C")
            continue
        for parent, piece in zip(node._parents, node._vjp(node.grad)):
            if piece.shape != parent.data.shape:
                piece = np.broadcast_to(piece, parent.data.shape)
            parent.grad = piece if parent.grad is None else parent.grad + piece
        # its gradient was complete and now lives on in its parents
        node.grad = None


def value(x) -> np.ndarray:
    """The array behind ``x``: a Tensor's data, or x itself as a float64 array."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _record(out, operands, *vjps):
    """A primitive's result ``out``, recorded with its Tensor operands as parents.

    ``vjps[i]`` maps the output's gradient to operand i's gradient piece. A
    numpy operand is a constant: it is not recorded and its vjp is never
    called, so with no Tensor operand ``out`` comes back as a plain ndarray.
    """
    out = np.asarray(out, dtype=np.float64)
    recorded = [(t, vjp) for t, vjp in zip(operands, vjps) if isinstance(t, Tensor)]
    if not recorded:
        return out
    parents, fns = zip(*recorded)
    return Tensor(out, parents, lambda g: tuple(fn(g) for fn in fns))


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _unreduce(g: np.ndarray, shape, axis, keepdims: bool) -> np.ndarray:
    """A reduction's output gradient broadcast back to the operand's ``shape``.

    The result is a read-only view, which backward never writes into.
    """
    return np.broadcast_to(g if axis is None or keepdims else np.expand_dims(g, axis), shape)


# ---------------------------------------------------------------------------
# primitives: each takes Tensors or numpy arrays, numpy ones being constants
# ---------------------------------------------------------------------------

def add(a, b):
    x, y = value(a), value(b)
    return _record(x + y, (a, b), lambda g: _unbroadcast(g, x.shape), lambda g: _unbroadcast(g, y.shape))


def sub(a, b):
    x, y = value(a), value(b)
    return _record(x - y, (a, b), lambda g: _unbroadcast(g, x.shape), lambda g: _unbroadcast(-g, y.shape))


def mul(a, b):
    x, y = value(a), value(b)
    return _record(x * y, (a, b), lambda g: _unbroadcast(g * y, x.shape), lambda g: _unbroadcast(g * x, y.shape))


def div(a, b):
    x, y = value(a), value(b)
    return _record(
        x / y, (a, b), lambda g: _unbroadcast(g / y, x.shape), lambda g: _unbroadcast(-g * x / (y * y), y.shape)
    )


def neg(a):
    return _record(-value(a), (a,), lambda g: -g)


def matmul(a, b):
    """a @ b; either operand may carry a leading batch axis.

    The gradient of a 2-D operand of a batched product is summed over the batch.
    """
    x, y = value(a), value(b)
    if (
        x.ndim not in (2, 3)
        or y.ndim not in (2, 3)
        or x.shape[-1] != y.shape[-2]
        or (x.ndim == y.ndim == 3 and x.shape[0] != y.shape[0])
    ):
        raise ValueError(f"matmul shape mismatch: {x.shape} @ {y.shape}")

    def grad_b(g):
        if y.ndim == 2:
            # one product sums over the batch and the rows together
            return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return _unbroadcast(np.swapaxes(x, -1, -2) @ g, y.shape)

    return _record(x @ y, (a, b), lambda g: _unbroadcast(g @ np.swapaxes(y, -1, -2), x.shape), grad_b)


def transpose(a):
    x = value(a)
    if x.ndim != 2:
        raise ValueError(f"transpose expects a matrix, got shape {x.shape}")
    return _record(x.T, (a,), lambda g: g.T)


def relu(a):
    x = value(a)
    return _record(np.maximum(x, 0.0), (a,), lambda g: g * (x > 0.0))


def exp(a):
    val = np.exp(value(a))
    return _record(val, (a,), lambda g: g * val)


def log(a):
    x = value(a)
    return _record(np.log(x), (a,), lambda g: g / x)


def sqrt(a):
    val = np.sqrt(value(a))
    return _record(val, (a,), lambda g: g * 0.5 / val)


def tanh(a):
    val = np.tanh(value(a))
    return _record(val, (a,), lambda g: g * (1.0 - val * val))


def power(a, exponent: float):
    """Elementwise a ** exponent for a fixed real exponent."""
    x = value(a)
    exponent = float(exponent)

    def vjp(g):
        if exponent == 0.0:
            return np.zeros_like(x)
        local = exponent * x ** (exponent - 1.0)
        if exponent >= 1.0:
            local = np.where(x == 0.0, 0.0, local)
        return g * local

    return _record(x**exponent, (a,), vjp)


def reduce_sum(a, axis=None, keepdims: bool = False):
    x = value(a)
    return _record(x.sum(axis=axis, keepdims=keepdims), (a,), lambda g: _unreduce(g, x.shape, axis, keepdims))


def reduce_mean(a, axis=None, keepdims: bool = False):
    x = value(a)
    count = x.size if axis is None else x.shape[axis]
    return _record(x.mean(axis=axis, keepdims=keepdims), (a,), lambda g: _unreduce(g, x.shape, axis, keepdims) / count)


def reduce_max(a, axis=None, keepdims: bool = False):
    """Max reduction; on ties the gradient routes to the first maximal element."""
    x = value(a)

    def vjp(g):
        mask = np.zeros_like(x)
        if axis is None:
            mask.flat[np.argmax(x)] = 1.0
        else:
            np.put_along_axis(mask, np.expand_dims(np.argmax(x, axis=axis), axis), 1.0, axis=axis)
        return mask * _unreduce(g, x.shape, axis, keepdims)

    return _record(x.max(axis=axis, keepdims=keepdims), (a,), vjp)


def concat(tensors, axis: int = 0):
    arrays = [value(t) for t in tensors]
    offsets = np.cumsum([0] + [x.shape[axis] for x in arrays])
    vjps = [lambda g, lo=lo, hi=hi: np.take(g, np.arange(lo, hi), axis=axis) for lo, hi in zip(offsets, offsets[1:])]
    return _record(np.concatenate(arrays, axis=axis), tensors, *vjps)


def take(a, index):
    """a[index] on the tape, for an integer array or a tuple of them on a's leading axes.

    The backward adds each pick's gradient in one bincount over flat
    positions, so repeated indices accumulate in the order they were picked.
    """
    x = value(a)
    index = tuple(np.asarray(i, dtype=np.int64) for i in (index if isinstance(index, tuple) else (index,)))
    return _record(x[index], (a,), lambda g: _scatter_add(g, index, x.shape))


def _scatter_add(g: np.ndarray, index: tuple, shape) -> np.ndarray:
    """The gradient of ``x[index]`` for x of ``shape``: each pick's slice of g added back where it came from.

    One bincount over flat element positions adds repeated picks in the
    order they were made, which is the order ``np.add.at`` uses.
    """
    width = math.prod(shape[len(index):])
    # "wrap" reads a negative index as the forward's indexing did; that rejected any out of range
    rows = np.ravel_multi_index(index, shape[: len(index)], mode="wrap")
    flat = (rows[..., None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=math.prod(shape)).reshape(shape)


# ---------------------------------------------------------------------------
# parameters, optimizer, checkpoints
# ---------------------------------------------------------------------------

class ParamStore:
    """Named parameter tensors plus per-parameter Adam moments and a step count."""

    def __init__(self):
        self.values: dict = {}
        self.m: dict = {}
        self.v: dict = {}
        self.step: int = 0

    def add(self, name: str, array) -> None:
        if name in self.values:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = np.asarray(array, dtype=np.float64)
        self.values[name] = arr
        self.m[name] = np.zeros_like(arr)
        self.v[name] = np.zeros_like(arr)

    def names(self):
        return list(self.values)

    def copy(self) -> "ParamStore":
        other = ParamStore()
        other.values = {k: v.copy() for k, v in self.values.items()}
        other.m = {k: v.copy() for k, v in self.m.items()}
        other.v = {k: v.copy() for k, v in self.v.items()}
        other.step = self.step
        return other


def glorot(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform Glorot draw for a (fan_in, fan_out) weight."""
    limit = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def make_leaves(params: ParamStore) -> dict:
    return {name: Tensor(val) for name, val in params.values.items()}


def _gradients(leaves: dict, loss) -> dict:
    """Run ``backward`` from ``loss`` and return each leaf's gradient; leaves it never touched get zeros."""
    if not isinstance(loss, Tensor):
        raise ValueError("computation must return a Tensor")
    backward(loss)
    return {name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)) for name, leaf in leaves.items()}


def forward_backward(f, params: ParamStore, *inputs):
    """Run f(leaves, *inputs) to a scalar and return (value, per-parameter grads, zeros where untouched)."""
    leaves = make_leaves(params)
    out = f(leaves, *inputs)
    grads = _gradients(leaves, out)
    return float(out.data.reshape(())), grads


def train_step(store: ParamStore, leaves: dict, loss: Tensor, lr: float, where: str):
    """One Adam step on ``loss``, built from ``leaves = make_leaves(store)``; returns (loss value, new store).

    A non-finite loss raises ``ValueError("non-finite <where>")`` before ``backward`` runs."""
    value = loss.data.item()
    if not math.isfinite(value):
        raise ValueError(f"non-finite {where}")
    return value, adam_step(store, _gradients(leaves, loss), lr)


def grad_check(f, params: ParamStore, eps: float = 1e-5, samples: int = 30, seed: int = 0) -> float:
    """Max relative disagreement between backprop and central differences.

    Perturbs ``samples`` randomly chosen parameter coordinates by +-eps and
    compares the symmetric difference quotient against the recorded gradient.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    _, grads = forward_backward(f, params)

    coords = []
    for name in params.names():
        coords.extend((name, i) for i in range(params.values[name].size))
    rng = np.random.default_rng(seed)
    picked = [coords[i] for i in rng.choice(len(coords), size=min(samples, len(coords)), replace=False)]

    def value_at(store: ParamStore) -> float:
        val = float(f(make_leaves(store)).data.reshape(()))
        if not np.isfinite(val):
            raise ValueError("non-finite loss at perturbed point")
        return val

    worst = 0.0
    for name, flat in picked:
        probe = params.copy()
        probe.values[name].flat[flat] += eps
        plus = value_at(probe)
        probe.values[name].flat[flat] -= 2 * eps
        minus = value_at(probe)
        numeric = (plus - minus) / (2 * eps)
        analytic = grads[name].flat[flat]
        rel = abs(analytic - numeric) / max(1e-12, abs(analytic) + abs(numeric))
        worst = max(worst, rel)
    return worst


def adam_step(
    params: ParamStore,
    grads: dict,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> ParamStore:
    """One Adam update; returns a new store with moments and step advanced."""
    if lr < 0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    for name, g in grads.items():
        if name not in params.values:
            raise ValueError(f"gradient for unknown parameter {name!r}")
        if np.asarray(g).shape != params.values[name].shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {name!r}")

    out = ParamStore()
    out.step = params.step + 1
    t = out.step
    for name, val in params.values.items():
        g = np.asarray(grads.get(name, np.zeros_like(val)), dtype=np.float64)
        m = beta1 * params.m[name] + (1.0 - beta1) * g
        v = beta2 * params.v[name] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        out.values[name] = val - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.m[name] = m
        out.v[name] = v
    return out


@contextmanager
def atomic_write(path, mode: str = "w"):
    """A handle on ``<path>.partial``, renamed onto ``path`` only once the block completes.

    If the block raises, the partial file is removed and ``path`` keeps its
    previous bytes. Text is written without newline translation, as csv needs.
    """
    partial = f"{path}.partial"
    try:
        with open(partial, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(partial, path)
    finally:
        Path(partial).unlink(missing_ok=True)


def write_json(doc, path) -> None:
    """``doc`` as indented, key-sorted JSON with a trailing newline, through ``atomic_write``."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """``header`` then each of ``rows`` as a CSV table, through ``atomic_write``.

    csv writes a float, ``np.float64`` included, as its ``repr``, which reads
    back as the same float.
    """
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_checkpoint(params: ParamStore, path) -> None:
    """Write ``params`` as JSON through ``atomic_write``."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "params": {
            name: {"shape": list(arr.shape), "values": arr.ravel().tolist()}
            for name, arr in params.values.items()
        },
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True)


def load_checkpoint(path) -> ParamStore:
    """The parameters ``save_checkpoint`` wrote; a malformed file raises a ValueError naming it."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"checkpoint {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("params"), dict):
        raise ValueError(f"checkpoint {path} must hold a JSON object with a 'params' object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r} in {path}")
    store = ParamStore()
    for name in sorted(payload["params"]):
        entry = payload["params"][name]
        if not isinstance(entry, dict) or not {"shape", "values"} <= entry.keys():
            raise ValueError(f"checkpoint {path}: parameter {name!r} needs 'shape' and 'values'")
        try:
            arr = np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint {path}: parameter {name!r} does not fit its shape: {exc}") from None
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint {path}: parameter {name!r} holds non-finite values")
        store.add(name, arr)
    return store
