"""Minimal reverse-mode differentiation on numpy arrays, double precision.

Every differentiable computation in this package is a composition of the
primitives defined here; each primitive records its parents and a
vector-Jacobian product on a tape that is replayed once per backward pass.
The closed primitive set keeps every gradient auditable against central
finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
    a ``.grad``.
    """
    if loss.data.size != 1:
        raise ValueError(f"non-scalar loss: shape {loss.data.shape}")
    tape = Tape.trace(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node._vjp is None or node.grad is None:
            continue
        for parent, piece in zip(node._parents, node._vjp(node.grad)):
            if piece is None:
                continue
            if parent.grad is None:
                # an owned copy: a piece may alias node.grad or be a broadcast view
                grad = np.array(piece, dtype=np.float64)
                if grad.shape != parent.data.shape:
                    grad = np.array(np.broadcast_to(grad, parent.data.shape))
                parent.grad = grad
            else:
                parent.grad += piece
        # the nodes that consume this one sit later on the tape and have run,
        # so its gradient was complete and now lives on in its parents; leaves
        # never reach this line and keep theirs
        node.grad = None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data, (a, b))
    out._vjp = lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data, (a, b))
    out._vjp = lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape))
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data, (a, b))
    out._vjp = lambda g: (
        _unbroadcast(g * b.data, a.data.shape),
        _unbroadcast(g * a.data, b.data.shape),
    )
    return out


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data / b.data, (a, b))
    out._vjp = lambda g: (
        _unbroadcast(g / b.data, a.data.shape),
        _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
    )
    return out


def neg(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(-a.data, (a,))
    out._vjp = lambda g: (-g,)
    return out


def matmul(a, b) -> Tensor:
    """a @ b; either operand may carry a leading batch axis.

    A numpy operand is a constant: it is not recorded and gets no gradient.
    The gradient of a 2-D operand of a batched product is summed over the batch.
    """
    x = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
    y = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    if (
        x.ndim not in (2, 3)
        or y.ndim not in (2, 3)
        or x.shape[-1] != y.shape[-2]
        or (x.ndim == y.ndim == 3 and x.shape[0] != y.shape[0])
    ):
        raise ValueError(f"matmul shape mismatch: {x.shape} @ {y.shape}")
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def vjp(g):
        pieces = []
        if isinstance(a, Tensor):
            pieces.append(_unbroadcast(g @ np.swapaxes(y, -1, -2), x.shape))
        if isinstance(b, Tensor):
            if y.ndim == 2:
                # one product sums over the batch and the rows together
                pieces.append(x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            else:
                pieces.append(_unbroadcast(np.swapaxes(x, -1, -2) @ g, y.shape))
        return tuple(pieces)

    out = Tensor(x @ y, parents)
    out._vjp = vjp
    return out


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError(f"transpose expects a matrix, got shape {a.data.shape}")
    out = Tensor(a.data.T, (a,))
    out._vjp = lambda g: (g.T,)
    return out


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape), (a,))
    out._vjp = lambda g: (g.reshape(a.data.shape),)
    return out


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), (a,))
    out._vjp = lambda g: (g * (a.data > 0.0),)
    return out


def exp(a) -> Tensor:
    a = _as_tensor(a)
    val = np.exp(a.data)
    out = Tensor(val, (a,))
    out._vjp = lambda g: (g * val,)
    return out


def log(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.log(a.data), (a,))
    out._vjp = lambda g: (g / a.data,)
    return out


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    val = np.sqrt(a.data)
    out = Tensor(val, (a,))
    out._vjp = lambda g: (g * 0.5 / val,)
    return out


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    val = np.tanh(a.data)
    out = Tensor(val, (a,))
    out._vjp = lambda g: (g * (1.0 - val * val),)
    return out


def power(a, exponent: float) -> Tensor:
    """Elementwise a ** exponent for a fixed real exponent."""
    a = _as_tensor(a)
    exponent = float(exponent)
    out = Tensor(a.data ** exponent, (a,))

    def vjp(g):
        if exponent == 0.0:
            return (np.zeros_like(a.data),)
        local = exponent * a.data ** (exponent - 1.0)
        if exponent >= 1.0:
            local = np.where(a.data == 0.0, 0.0, local)
        return (g * local,)

    out._vjp = vjp
    return out


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        # a read-only view: backward copies a piece before it keeps it
        return (np.broadcast_to(g, a.data.shape),)

    out._vjp = vjp
    return out


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims), (a,))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape) / count,)

    out._vjp = vjp
    return out


def reduce_max(a, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; on ties the gradient routes to the first maximal element."""
    a = _as_tensor(a)
    out = Tensor(a.data.max(axis=axis, keepdims=keepdims), (a,))

    def vjp(g):
        mask = np.zeros_like(a.data)
        if axis is None:
            mask.flat[np.argmax(a.data)] = 1.0
            return (mask * g,)
        idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)
        np.put_along_axis(mask, idx, 1.0, axis=axis)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (mask * g,)

    out._vjp = vjp
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    out._vjp = vjp
    return out


def take(a, index) -> Tensor:
    """a[index] on the tape, for an integer array or a tuple of them on a's leading axes.

    The backward adds each pick's gradient in one bincount over flat
    positions, so repeated indices accumulate in the order they were picked.
    """
    a = _as_tensor(a)
    index = tuple(np.asarray(i, dtype=np.int64) for i in (index if isinstance(index, tuple) else (index,)))
    out = Tensor(a.data[index], (a,))
    out._vjp = lambda g: (_scatter_add(g, index, a.data.shape),)
    return out


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


def edge_relu(a, b, nbr) -> Tensor:
    """relu(a[i] + b[nbr[i, j]]) as an (n, k, H) tensor, for a (n, H), b (m, H) and integer nbr (n, k).

    The fused form of gathering neighbour rows, adding each node's own row
    and applying relu: only the (n, k, H) output is kept, and the backward
    gives the same bits as that chain of primitives.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    nbr = np.asarray(nbr, dtype=np.int64)
    if (
        a.data.ndim != 2
        or b.data.ndim != 2
        or nbr.ndim != 2
        or a.data.shape[1] != b.data.shape[1]
        or nbr.shape[0] != a.data.shape[0]
    ):
        raise ValueError(f"edge_relu shape mismatch: a {a.data.shape}, b {b.data.shape}, nbr {nbr.shape}")
    val = np.take(b.data, nbr, axis=0)
    val += a.data[:, None, :]
    np.maximum(val, 0.0, out=val)
    out = Tensor(val, (a, b))

    def vjp(g):
        gm = g * (val > 0.0)
        return gm.sum(axis=1), _scatter_add(gm, (nbr,), b.data.shape)

    out._vjp = vjp
    return out


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor) built from relu; gradient is 1 above the floor, 0 below."""
    return add(relu(sub(a, floor)), Tensor(floor))


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


def leaf_grads(leaves: dict) -> dict:
    """Each leaf's gradient after ``backward``; leaves the loss never touched get zeros."""
    return {name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)) for name, leaf in leaves.items()}


def forward_backward(f, params: ParamStore, *inputs):
    """Run f(leaves, *inputs) to a scalar and return (value, per-parameter grads).

    Parameters the computation never touches map to zero gradients.
    """
    leaves = make_leaves(params)
    out = f(leaves, *inputs)
    if not isinstance(out, Tensor):
        raise ValueError("computation must return a Tensor")
    if out.data.size != 1:
        raise ValueError(f"non-scalar loss: shape {out.data.shape}")
    backward(out)
    return float(out.data.reshape(())), leaf_grads(leaves)


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
        leaves = make_leaves(store)
        out = f(leaves)
        val = float(out.data.reshape(()))
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


def save_checkpoint(params: ParamStore, path) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "params": {
            name: {"shape": list(arr.shape), "values": arr.ravel().tolist()}
            for name, arr in params.values.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_checkpoint(path) -> ParamStore:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r} in {path}")
    store = ParamStore()
    for name in sorted(payload["params"]):
        entry = payload["params"][name]
        arr = np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
        store.add(name, arr)
    return store
