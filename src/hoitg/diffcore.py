"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray plus a gradient buffer and remembers how it was
produced. Calling :func:`backward` on a scalar loss walks the graph once in
reverse topological order, accumulates exact gradients into the leaves and
releases the tape as it goes. Leaf gradients add up across backward calls on
separate graphs that share leaves; clear them explicitly with
:func:`zero_grads` between optimizer steps.

Inside a :class:`no_grad` block every op computes the same output but
records no tape: the result has no parents and no backward closure, so the
buffers an op saved for its backward are freed as soon as it returns.
Forward-only passes (evaluation, attention export, the finite-difference
re-evaluations of :func:`gradcheck`) run under it.

Training arithmetic is float32. The finite-difference oracle
(:func:`gradcheck`) re-runs the same graph in float64; every op keeps the
dtype of its inputs, so both modes share one code path.

Broadcasting is deliberately absent except for the bias row of ``linear``
and ``add_bias`` (added over the leading dimension) and ``scale_t``
(multiplication by a one-element tensor). Everything else demands exact
shape agreement and raises ``DimensionError`` otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DataError, DimensionError, GraphError

_uid_counter = itertools.count()
_grad_enabled = True


class no_grad:
    """Context in which ops record no tape, as ``torch.no_grad``.

    Outputs built inside the block have no parents and no backward closure,
    so nothing is differentiated through them and nothing an op saved for
    its backward outlives the op. The previous mode is restored on exit,
    also after an exception, so blocks nest. It is a class, not a function:
    the benchmark's tracer wraps every public function of this module as a
    graph op and reads ``_bwd`` from what it returns.
    """

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev


class Tensor:
    """A node in the computation graph: value, gradient, provenance."""

    __slots__ = ("data", "grad", "uid", "_parents", "_bwd")

    def __init__(self, data, _parents=(), _bwd=None, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.uid = next(_uid_counter)
        if _grad_enabled:
            self._parents = _parents
            self._bwd = _bwd
        else:
            self._parents = ()
            self._bwd = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, uid={self.uid})"


def tensor(data, dtype=None):
    """Wrap data as a leaf tensor (no parents)."""
    return Tensor(data, dtype=dtype)


def _accum(t: Tensor, g):
    if t.grad is None:  # zeros + g in one pass: the same cast, and -0 becomes +0
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def bwd(g):
        _accum(a, g)
        _accum(b, g)

    return Tensor(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")

    def bwd(g):
        _accum(a, g)
        _accum(b, -g)

    return Tensor(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")

    def bwd(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return Tensor(a.data * b.data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "div")

    def bwd(g):
        _accum(a, g / b.data)
        _accum(b, -g * a.data / (b.data * b.data))

    return Tensor(a.data / b.data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)

    def bwd(g):
        _accum(a, g * c)

    return Tensor(a.data * c, (a,), bwd)


def scale_t(x: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor by a one-element tensor (differentiable in both)."""
    if s.data.size != 1:
        raise DimensionError(f"scale_t: scale must have one element, got shape {s.data.shape}")
    sval = s.data.reshape(())

    def bwd(g):
        _accum(x, g * sval)
        _accum(s, np.asarray(np.sum(g * x.data), dtype=s.data.dtype).reshape(s.data.shape))

    return Tensor(x.data * sval, (x, s), bwd)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a bias row to every row of x (the one permitted broadcast)."""
    brow = b.data.reshape(-1)
    if x.data.ndim != 2 or brow.shape[0] != x.data.shape[1]:
        raise DimensionError(f"add_bias: x {x.data.shape} incompatible with bias {b.data.shape}")

    def bwd(g):
        _accum(x, g)
        _accum(b, g.sum(axis=0).reshape(b.data.shape))

    return Tensor(x.data + brow[None, :], (x, b), bwd)


def absolute(a: Tensor) -> Tensor:
    def bwd(g):
        _accum(a, g * np.sign(a.data))

    return Tensor(np.abs(a.data), (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)

    def bwd(g):
        _accum(a, g * (0.5 / out))

    return Tensor(out, (a,), bwd)


def sin(a: Tensor) -> Tensor:
    def bwd(g):
        _accum(a, g * np.cos(a.data))

    return Tensor(np.sin(a.data), (a,), bwd)


def softplus(a: Tensor) -> Tensor:
    """Numerically stable log(1 + e^x); derivative is the logistic sigmoid."""
    x = a.data
    out = np.where(x > 20.0, x, np.log1p(np.exp(np.minimum(x, 20.0))))

    def bwd(g):
        _accum(a, g / (1.0 + np.exp(-x)))

    return Tensor(out.astype(x.dtype), (a,), bwd)


def gelu(a: Tensor) -> Tensor:
    """Exact GeLU x * Phi(x) with Phi the standard normal CDF."""
    out, phi = kernels.gelu_forward(a.data)

    def bwd(g):
        _accum(a, g * kernels.gelu_grad(a.data, phi))

    return Tensor(out, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    def bwd(g):
        _accum(a, np.full_like(a.data, g.reshape(())))

    return Tensor(np.asarray([a.data.sum()], dtype=a.data.dtype), (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def bwd(g):
        _accum(a, np.full_like(a.data, g.reshape(()) / n))

    return Tensor(np.asarray([a.data.mean()], dtype=a.data.dtype), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def bwd(g):
        _accum(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), (a,), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose: expected 2-d tensor, got shape {a.data.shape}")

    def bwd(g):
        _accum(a, g.T)

    return Tensor(np.ascontiguousarray(a.data.T), (a,), bwd)


def rows(a: Tensor, i0: int, i1: int) -> Tensor:
    if not (0 <= i0 <= i1 <= a.data.shape[0]):
        raise DimensionError(f"rows: slice [{i0}:{i1}] out of range for shape {a.data.shape}")

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[i0:i1] += g

    return Tensor(a.data[i0:i1].copy(), (a,), bwd)


def cols(a: Tensor, j0: int, j1: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= j0 <= j1 <= a.data.shape[1]):
        raise DimensionError(f"cols: slice [{j0}:{j1}] out of range for shape {a.data.shape}")

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[:, j0:j1] += g

    return Tensor(np.ascontiguousarray(a.data[:, j0:j1]), (a,), bwd)


def gather_rows(a: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, idx, g)

    return Tensor(a.data[idx].copy(), (a,), bwd)


def concat_rows(parts) -> Tensor:
    parts = list(parts)
    sizes = [p.data.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, o0, o1 in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[o0:o1])

    return Tensor(np.concatenate([p.data for p in parts], axis=0), tuple(parts), bwd)


def concat_cols(parts) -> Tensor:
    parts = list(parts)
    sizes = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, o0, o1 in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[:, o0:o1])

    return Tensor(np.concatenate([p.data for p in parts], axis=1), tuple(parts), bwd)


def row_norms(a: Tensor, eps: float = 1e-12) -> Tensor:
    """Euclidean norm of every row of a 2-d tensor, shape (n, 1)."""
    if a.data.ndim != 2:
        raise DimensionError(f"row_norms: expected 2-d tensor, got shape {a.data.shape}")
    out = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True) + eps)

    def bwd(g):
        _accum(a, g * a.data / out)

    return Tensor(out, (a,), bwd)


def skew3(a: Tensor) -> Tensor:
    """Cross-product matrix of a 3-vector (any shape with 3 elements)."""
    if a.data.size != 3:
        raise DimensionError(f"skew3: expected 3 elements, got shape {a.data.shape}")
    x, y, z = a.data.reshape(3)
    out = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]], dtype=a.data.dtype)

    def bwd(g):
        dv = np.array(
            [g[2, 1] - g[1, 2], g[0, 2] - g[2, 0], g[1, 0] - g[0, 1]], dtype=a.data.dtype
        )
        _accum(a, dv.reshape(a.data.shape))

    return Tensor(out, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra and network ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: shape mismatch {a.data.shape} x {b.data.shape}")

    def bwd(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return Tensor(a.data @ b.data, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w`` plus a bias row, as one graph node.

    ``b`` is ``(o,)`` or ``(1, o)``, as for ``add_bias``. The output and all
    three gradients are bit-equal to ``add_bias(matmul(x, w), b)``.
    """
    brow = b.data.reshape(-1)
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or brow.shape[0] != w.data.shape[1]):
        raise DimensionError(
            f"linear: x {x.data.shape}, w {w.data.shape} and bias {b.data.shape} do not chain"
        )

    def bwd(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0).reshape(b.data.shape))

    out = x.data @ w.data
    out += brow
    return Tensor(out, (x, w, b), bwd)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    nd = a.data.ndim
    if not (-nd <= axis < nd):
        raise DimensionError(f"softmax: axis {axis} invalid for shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        _accum(a, out * (g - inner))

    return Tensor(out, (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of x to zero mean / unit variance, then affine."""
    if x.data.ndim != 2:
        raise DimensionError(f"layer_norm: expected 2-d input, got shape {x.data.shape}")
    d = x.data.shape[1]
    if gain.data.reshape(-1).shape[0] != d or bias.data.reshape(-1).shape[0] != d:
        raise DimensionError(
            f"layer_norm: gain {gain.data.shape} / bias {bias.data.shape} do not match width {d}"
        )
    g_row = gain.data.reshape(-1)
    b_row = bias.data.reshape(-1)
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * g_row[None, :] + b_row[None, :]

    def bwd(g):
        dxhat = g * g_row[None, :]
        dvar = (dxhat * xc).sum(axis=1, keepdims=True) * (-0.5) * inv**3
        dmu = -(dxhat * inv).sum(axis=1, keepdims=True) + dvar * (-2.0 / d) * xc.sum(
            axis=1, keepdims=True
        )
        dx = dxhat * inv + dvar * (2.0 / d) * xc + dmu / d
        _accum(x, dx.astype(x.data.dtype))
        _accum(gain, (g * xhat).sum(axis=0).reshape(gain.data.shape))
        _accum(bias, g.sum(axis=0).reshape(bias.data.shape))

    return Tensor(out.astype(x.data.dtype), (x, gain, bias), bwd)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int, retain: bool = False):
    """Scaled dot-product attention over column-partitioned heads.

    q, k, v are (n, d) with d divisible by ``heads``. Returns the (n, d)
    output and, when ``retain`` is set, the (heads, n, n) attention weights.
    """
    n, d = q.data.shape
    if k.data.shape != (n, d) or v.data.shape != (n, d):
        raise DimensionError(
            f"attention: q {q.data.shape}, k {k.data.shape}, v {v.data.shape} must agree"
        )
    if d % heads != 0:
        raise DimensionError(f"attention: width {d} not divisible by {heads} heads")
    dh = d // heads
    alpha = 1.0 / math.sqrt(dh)  # a Python float keeps float32 scores float32
    attn = np.empty((heads, n, n), dtype=q.data.dtype)
    out = np.empty_like(q.data)
    for h in range(heads):
        s = slice(h * dh, (h + 1) * dh)
        scores = (q.data[:, s] @ k.data[:, s].T) * alpha
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        a = e / e.sum(axis=1, keepdims=True)
        attn[h] = a
        out[:, s] = a @ v.data[:, s]

    def bwd(g):
        dq = np.zeros_like(q.data)
        dk = np.zeros_like(k.data)
        dv = np.zeros_like(v.data)
        for h in range(heads):
            s = slice(h * dh, (h + 1) * dh)
            a = attn[h]
            go = g[:, s]
            da = go @ v.data[:, s].T
            dv[:, s] = a.T @ go
            ds = a * (da - (da * a).sum(axis=1, keepdims=True))
            dq[:, s] = (ds @ k.data[:, s]) * alpha
            dk[:, s] = (ds.T @ q.data[:, s]) * alpha
        _accum(q, dq)
        _accum(k, dk)
        _accum(v, dv)

    out_t = Tensor(out, (q, k, v), bwd)
    return (out_t, attn.copy()) if retain else (out_t, None)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Single-image 2-d convolution: x (Cin,H,W), w (Cout,Cin,kh,kw), b (Cout,)."""
    cin, hh, ww = x.data.shape
    cout, cin_w, kh, kw = w.data.shape
    if cin_w != cin:
        raise DimensionError(f"conv2d: input channels {cin} vs kernel {cin_w}")
    ho = (hh + 2 * pad - kh) // stride + 1
    wo = (ww + 2 * pad - kw) // stride + 1
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad))) if pad else x.data
    cols_mat = kernels.im2col(np.ascontiguousarray(xp), kh, kw, stride, stride, ho, wo)
    w2 = w.data.reshape(cout, -1)
    out = (cols_mat @ w2.T).T.reshape(cout, ho, wo) + b.data.reshape(cout, 1, 1)

    def bwd(g):
        gflat = g.reshape(cout, -1).T  # (ho*wo, cout)
        _accum(w, (gflat.T @ cols_mat).reshape(w.data.shape))
        _accum(b, g.sum(axis=(1, 2)).reshape(b.data.shape))
        dcols = np.ascontiguousarray(gflat @ w2)
        dxp = kernels.col2im(
            dcols, cin, xp.shape[1], xp.shape[2], kh, kw, stride, stride, ho, wo
        )
        dx = dxp[:, pad : pad + hh, pad : pad + ww] if pad else dxp
        _accum(x, dx)

    return Tensor(out.astype(x.data.dtype), (x, w, b), bwd)


def global_mean_pool(x: Tensor) -> Tensor:
    """Average a (C,h,w) feature map over its spatial axes into (1, C)."""
    c, h, w = x.data.shape

    def bwd(g):
        _accum(x, np.broadcast_to(g.reshape(c, 1, 1) / (h * w), x.data.shape).copy())

    return Tensor(x.data.reshape(c, -1).mean(axis=1)[None, :], (x,), bwd)


def grid_sample(f: Tensor, pts: Tensor) -> Tensor:
    """Bilinear interpolation of a (C,h,w) grid at n points in [-1,1]^2.

    Align-corners convention; out-of-range coordinates are clamped to the
    border. Differentiable in both the grid and the points.
    """
    c, h, w = f.data.shape
    if pts.data.ndim != 2 or pts.data.shape[1] != 2:
        raise DimensionError(f"grid_sample: points must be (n,2), got {pts.data.shape}")
    su = 0.5 * (w - 1)
    sv = 0.5 * (h - 1)
    # non-finite coordinates land on the border; the loss-side finiteness
    # check is what aborts a diverged run
    u = np.nan_to_num((pts.data[:, 0] + 1.0) * su, nan=0.0, posinf=w - 1.0, neginf=0.0)
    v = np.nan_to_num((pts.data[:, 1] + 1.0) * sv, nan=0.0, posinf=h - 1.0, neginf=0.0)
    out = kernels.bilinear_forward(f.data, u, v)

    def bwd(g):
        dgrid, du, dv = kernels.bilinear_backward(f.data, u, v, np.ascontiguousarray(g))
        _accum(f, dgrid)
        dpts = np.stack([du * su, dv * sv], axis=1)
        _accum(pts, dpts.astype(pts.data.dtype))

    return Tensor(out, (f, pts), bwd)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _topo_order(root: Tensor):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node.uid in seen:
            continue
        seen.add(node.uid)
        stack.append((node, True))
        for p in node._parents:
            if p.uid not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Accumulate the gradients of a scalar loss into the leaves it reaches.

    Each interior node drops its closure, with the buffers it saved, and its
    gradient once it has passed the gradient on, so a graph is differentiated
    once. Calls on separate graphs that share leaves accumulate; call
    :func:`zero_grads` between steps.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    order = _topo_order(loss)
    if any(node._bwd is None and node._parents for node in order):
        raise GraphError("backward: the graph was released by an earlier backward pass")
    _accum(loss, np.ones_like(loss.data))
    for node in reversed(order):
        if node._bwd is not None and node.grad is not None:
            node._bwd(node.grad)
            node._bwd = node.grad = None


def zero_grads(params):
    """Clear gradients on an iterable or dict of tensors."""
    values = params.values() if isinstance(params, dict) else params
    for p in values:
        p.grad = None


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Optimizer state: step count, per-parameter first/second moments."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, state: AdamState):
    """One Adam update with bias correction, in place on the parameter data.

    Parameters with a ``None`` gradient are treated as having zero gradient.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise DimensionError(f"adam_step: grad {g.shape} vs param {p.data.shape} for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data -= (state.lr * mhat / (np.sqrt(vhat) + state.eps)).astype(p.data.dtype)


# ---------------------------------------------------------------------------
# parameter file format
# ---------------------------------------------------------------------------
# Layout: 4-byte little-endian uint32 manifest length, the UTF-8 JSON
# manifest, then raw little-endian float32 values. The manifest carries
# {"params": [{"name", "shape", "byte_offset"}, ...]} plus any extra metadata;
# byte offsets are relative to the start of the float payload.

def save_params(path, params: dict, extra: dict | None = None):
    entries = []
    blobs = []
    offset = 0
    for name, p in params.items():
        arr = np.ascontiguousarray(p.data, dtype="<f4")
        entries.append({"name": name, "shape": list(arr.shape), "byte_offset": offset})
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    manifest = {"params": entries}
    if extra:
        manifest.update(extra)
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(mbytes)))
        fh.write(mbytes)
        for blob in blobs:
            fh.write(blob)


def load_params(path):
    """Read a parameter file; returns (dict name -> float32 array, manifest).

    Raise DataError, naming the file and the field, when the framing is
    broken: a short length prefix, a manifest that is not a UTF-8 JSON object
    with a ``params`` list, or an entry that does not fit the payload.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise DataError(f"{path}: {len(data)} bytes, too short for the manifest length prefix")
    (mlen,) = struct.unpack_from("<I", data)
    if 4 + mlen > len(data):
        raise DataError(f"{path}: manifest length {mlen} exceeds the {len(data) - 4} bytes after the prefix")
    try:
        manifest = json.loads(data[4 : 4 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: manifest is not UTF-8 JSON: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("params"), list):
        raise DataError(f"{path}: manifest field 'params' must be a list")
    payload = memoryview(data)[4 + mlen :]
    out = {}
    for i, entry in enumerate(manifest["params"]):
        try:
            name, o = str(entry["name"]), int(entry["byte_offset"])
            shape = tuple(int(n) for n in entry["shape"])
        except (TypeError, KeyError, ValueError) as exc:
            raise DataError(f"{path}: manifest field 'params[{i}]' needs name, shape and byte_offset: {exc}") from exc
        count = int(np.prod(shape))
        if o < 0 or min(shape, default=0) < 0 or o + 4 * count > len(payload):
            raise DataError(
                f"{path}: manifest field 'params[{i}]' ({name!r}, {4 * count} bytes at offset {o}) "
                f"does not fit the {len(payload)}-byte payload"
            )
        out[name] = np.frombuffer(payload, dtype="<f4", count=count, offset=o).reshape(shape).copy()
    return out, manifest


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    ok: bool
    max_abs_err: float
    worst: str = ""


def gradcheck(
    fn,
    arrays,
    eps: float = 1e-4,
    rtol: float = 1e-4,
    atol: float = 1e-6,
    max_coords: int | None = None,
    rng=None,
) -> GradCheckReport:
    """Compare analytic gradients against central differences in float64.

    ``fn`` maps a list of leaf tensors to a scalar tensor. When
    ``max_coords`` is set, only a random subset of coordinates per input is
    probed (seeded through ``rng``), which keeps large-op checks affordable.
    Only the analytic pass records a tape; the perturbed re-evaluations run
    under :class:`no_grad`.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    leaves = [tensor(a.copy()) for a in arrays]
    out = fn(leaves)
    backward(out)
    analytic = [
        leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.data)
        for leaf in leaves
    ]

    def probe(i, j, delta):
        pert = [a.copy() for a in arrays]
        pert[i].reshape(-1)[j] += delta
        with no_grad():
            return float(fn([tensor(p) for p in pert]).data.reshape(()))

    ok = True
    max_err = 0.0
    worst = ""
    for i, base in enumerate(arrays):
        flat = base.reshape(-1)
        idxs = range(flat.size)
        if max_coords is not None and flat.size > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            idxs = sorted(rng.choice(flat.size, size=max_coords, replace=False).tolist())
        for j in idxs:
            numeric = (probe(i, j, eps) - probe(i, j, -eps)) / (2.0 * eps)
            a_val = float(analytic[i].reshape(-1)[j])
            err = abs(a_val - numeric)
            if err > max_err:
                max_err = err
                worst = f"input {i} coord {j}: analytic {a_val:.8g} vs fd {numeric:.8g}"
            if err > atol + rtol * abs(numeric):
                ok = False
    return GradCheckReport(ok=ok, max_abs_err=max_err, worst=worst)
