"""Minimal differentiable-computation substrate.

Everything downstream (the encoder, the heads, both pretraining regimes) is
built from the pieces here: named float64 matrices, four layer kinds with
hand-written backward passes, plain SGD, and a central finite-difference
oracle used to audit every analytic gradient in the test suite.

All operations are pure: parameters are immutable snapshots and every update
returns a new collection.  That is what makes the first-order meta-gradient
code downstream easy to reason about.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import CacheError, DimensionError, NumericError

Array = np.ndarray

LAYER_KINDS = ("frame_stack", "affine", "tanh", "recurrent_bidi")


def _as_matrix(value) -> Array:
    """A read-only 2-D float64 copy of value (1-D input becomes one row)."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise NumericError("matrix contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class NamedParams:
    """Immutable, lexicographically ordered collection of named matrices.

    Iteration order is always sorted by name, which pins down every
    accumulation order in training and makes reruns bit-identical.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Array] | Iterable[tuple[str, Array]]):
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        store: dict[str, Array] = {}
        for name, value in pairs:
            if not isinstance(name, str) or not name:
                raise DimensionError(f"parameter name must be a non-empty string, got {name!r}")
            if name in store:
                raise DimensionError(f"duplicate parameter name {name!r}")
            store[name] = _as_matrix(value)
        self._entries = dict(sorted(store.items()))

    @classmethod
    def _from_owned(cls, entries: dict[str, Array]) -> "NamedParams":
        # fast path, no validation or copy: the caller hands over 2-D float64
        # arrays that nothing else writes to, either fresh results or entries
        # of another NamedParams (already validated and read-only)
        out = object.__new__(cls)
        for arr in entries.values():
            arr.setflags(write=False)
        out._entries = dict(sorted(entries.items()))
        return out

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def shapes(self) -> dict[str, tuple[int, int]]:
        return {name: arr.shape for name, arr in self._entries.items()}

    def items(self) -> Iterator[tuple[str, Array]]:
        return iter(self._entries.items())

    def __getitem__(self, name: str) -> Array:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"no parameter named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{a.shape[0]}x{a.shape[1]}" for n, a in self._entries.items())
        return f"NamedParams({inner})"

    @property
    def size(self) -> int:
        """Total scalar parameter count."""
        return sum(arr.size for arr in self._entries.values())

    def _check_compatible(self, other: "NamedParams") -> None:
        if self.shapes() != other.shapes():
            raise DimensionError(f"parameters differ: {self.shapes()} vs {other.shapes()}")

    def add(self, other: "NamedParams") -> "NamedParams":
        self._check_compatible(other)
        return NamedParams._from_owned(
            {n: a + other._entries[n] for n, a in self._entries.items()}
        )

    def scale(self, factor: float) -> "NamedParams":
        f = float(factor)
        return NamedParams._from_owned({n: f * a for n, a in self._entries.items()})

    def norm(self) -> float:
        """Frobenius norm over all entries."""
        return float(np.sqrt(sum(float(np.sum(a * a)) for a in self._entries.values())))

    def max_abs_diff(self, other: "NamedParams") -> float:
        self._check_compatible(other)
        out = 0.0
        for name, arr in self._entries.items():
            if arr.size:
                out = max(out, float(np.max(np.abs(arr - other._entries[name]))))
        return out

    def same_values(self, other: "NamedParams") -> bool:
        """Bit-exact equality of names, shapes and values."""
        if self.names() != other.names():
            return False
        return all(np.array_equal(a, other._entries[n]) for n, a in self._entries.items())

    def subset(self, prefix: str) -> "NamedParams":
        """Entries whose name starts with prefix, with the prefix removed."""
        picked = {n[len(prefix):]: a for n, a in self._entries.items() if n.startswith(prefix)}
        return NamedParams._from_owned(picked)

    def with_prefix(self, prefix: str) -> "NamedParams":
        return NamedParams({prefix + n: a for n, a in self._entries.items()})

    @staticmethod
    def union(*parts: "NamedParams") -> "NamedParams":
        merged: dict[str, Array] = {}
        for part in parts:
            for name, arr in part.items():
                if name in merged:
                    raise DimensionError(f"duplicate parameter name {name!r} in union")
                merged[name] = arr
        return NamedParams(merged)


def grad_relative_error(a: NamedParams, b: NamedParams, *, floor: float = 1.0) -> float:
    """Max entrywise |a-b| / max(floor, |a|, |b|).

    The floor keeps near-zero entries from dominating: at float64 with a
    1e-5 central-difference step, true agreement shows up around 1e-10 on
    this scale, while a wrong term or sign shows up at order one.
    """
    a._check_compatible(b)
    worst = 0.0
    for name, arr in a.items():
        other = b[name]
        if not arr.size:
            continue
        denom = np.maximum(floor, np.maximum(np.abs(arr), np.abs(other)))
        worst = max(worst, float(np.max(np.abs(arr - other) / denom)))
    return worst


# ---------------------------------------------------------------------------
# layers


@dataclass(frozen=True)
class LayerSpec:
    """Declaration of one encoder layer.

    kind is one of LAYER_KINDS.  stride is only meaningful for frame_stack,
    hidden only for recurrent_bidi; both must be None elsewhere.
    """

    kind: str
    input_dim: int
    output_dim: int
    stride: int | None = None
    hidden: int | None = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise DimensionError(f"unknown layer kind {self.kind!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise DimensionError("layer dims must be positive")
        if self.kind == "frame_stack":
            if self.stride is None or self.stride < 1:
                raise DimensionError("frame_stack needs a positive stride")
            if self.output_dim != self.input_dim * self.stride:
                raise DimensionError(
                    f"frame_stack output_dim must be input_dim*stride, "
                    f"got {self.output_dim} != {self.input_dim}*{self.stride}"
                )
        elif self.stride is not None:
            raise DimensionError(f"{self.kind} takes no stride")
        if self.kind == "recurrent_bidi":
            if self.hidden is None or self.hidden < 1:
                raise DimensionError("recurrent_bidi needs a positive hidden size")
            if self.output_dim != 2 * self.hidden:
                raise DimensionError(
                    f"recurrent_bidi output_dim must be 2*hidden, "
                    f"got {self.output_dim} != 2*{self.hidden}"
                )
        elif self.hidden is not None:
            raise DimensionError(f"{self.kind} takes no hidden size")
        if self.kind == "tanh" and self.input_dim != self.output_dim:
            raise DimensionError("tanh layer must preserve the dimension")


def layer_param_shapes(spec: LayerSpec) -> dict[str, tuple[int, int]]:
    """Required parameter names and shapes for a layer (empty for stateless)."""
    if spec.kind == "affine":
        return {"w": (spec.input_dim, spec.output_dim), "b": (1, spec.output_dim)}
    if spec.kind == "recurrent_bidi":
        h = spec.hidden
        shapes = {}
        for d in ("f", "b"):
            shapes[f"w_in_{d}"] = (spec.input_dim, h)
            shapes[f"w_rec_{d}"] = (h, h)
            shapes[f"bias_{d}"] = (1, h)
        return shapes
    return {}


def init_uniform(shapes: Mapping[str, tuple[int, int]], rng: np.random.Generator) -> NamedParams:
    """Seeded uniform init in [-r, r], r = 1/sqrt(fan-in), of matrices with these shapes.

    Fan-in is taken per matrix: the row count for weights (the input
    dimension of the linear map they implement) and the hidden/output width
    for biases.  Draws happen in sorted name order so a given generator
    state always produces the same parameters.
    """
    entries: dict[str, Array] = {}
    for name, (rows, cols) in sorted(shapes.items()):
        fan_in = cols if rows == 1 else rows
        r = 1.0 / np.sqrt(fan_in)
        entries[name] = rng.uniform(-r, r, size=(rows, cols))
    return NamedParams(entries)


def init_layer_params(spec: LayerSpec, rng: np.random.Generator) -> NamedParams:
    """Seeded init_uniform draw of one layer's parameters."""
    return init_uniform(layer_param_shapes(spec), rng)


@dataclass(frozen=True)
class ForwardCache:
    """Intermediate values one forward pass stored for the matching backward.

    Valid only for the exact (spec, input, params) triple that produced it;
    backward_layer rejects mismatched shapes with CacheError.
    """

    spec: LayerSpec
    in_shape: tuple[int, int]
    out_shape: tuple[int, int]
    arrays: tuple[tuple[str, Array], ...]

    def get(self, name: str) -> Array:
        for key, arr in self.arrays:
            if key == name:
                return arr
        raise CacheError(f"cache holds no array named {name!r}")


def _require_params(spec: LayerSpec, params: NamedParams) -> None:
    want = layer_param_shapes(spec)
    if params.shapes() != want:
        raise DimensionError(f"{spec.kind} layer needs parameters {want}, got {params.shapes()}")


def _check_input(spec: LayerSpec, x: Array) -> Array:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"layer input must be 2-D, got ndim={x.ndim}")
    if x.shape[0] < 1:
        raise DimensionError("layer input must have at least one frame")
    if x.shape[1] != spec.input_dim:
        raise DimensionError(
            f"{spec.kind} expects width {spec.input_dim}, got {x.shape[1]}"
        )
    return x


def _run_recurrence(pre: Array, w_rec: Array) -> Array:
    """Hidden states h[t] = tanh(pre[t] + h[t-1] @ w_rec), forward in time from zero."""
    h = np.empty(pre.shape)
    state = np.zeros(w_rec.shape[0])
    for t in range(pre.shape[0]):
        state = np.tanh(pre[t] + state @ w_rec)
        h[t] = state
    return h


def forward_layer(spec: LayerSpec, params: NamedParams, x: Array) -> tuple[Array, ForwardCache]:
    """Run one layer; returns the output and the cache its backward needs."""
    x = _check_input(spec, x)
    _require_params(spec, params)
    stored: list[tuple[str, Array]] = []

    if spec.kind == "frame_stack":
        s = spec.stride
        T = x.shape[0]
        t_out = -(-T // s)  # ceil division; tail frames are zero-padded
        padded = np.zeros((t_out * s, spec.input_dim))
        padded[:T] = x
        out = padded.reshape(t_out, spec.input_dim * s)
    elif spec.kind == "affine":
        out = x @ params["w"] + params["b"]
        stored.append(("x", x))
    elif spec.kind == "tanh":
        out = np.tanh(x)
        stored.append(("y", out))
    else:  # recurrent_bidi: the backward direction is the same recurrence on reversed frames
        h_f = _run_recurrence(x @ params["w_in_f"] + params["bias_f"], params["w_rec_f"])
        pre_b = x @ params["w_in_b"] + params["bias_b"]
        h_b = _run_recurrence(pre_b[::-1], params["w_rec_b"])[::-1]
        out = np.concatenate([h_f, h_b], axis=1)
        stored.extend([("x", x), ("h_f", h_f), ("h_b", h_b)])

    cache = ForwardCache(
        spec=spec,
        in_shape=x.shape,
        out_shape=out.shape,
        arrays=tuple(stored),
    )
    return out, cache


def _frame_sum(terms: Array) -> Array:
    """terms summed over axis 0 from zeros, last frame first, as the time loop runs.

    Whole-frame adds in a loop: np.sum adds pairwise when the other axes hold
    a single element (hidden size 1), which changes the bits.
    """
    total = np.zeros(terms.shape[1:])
    for term in terms[::-1]:
        total += term
    return total


def _recurrence_grads(
    x: Array, w_in: Array, w_rec: Array, h: Array, grad_h: Array
) -> tuple[Array, Array, Array, Array]:
    """Backprop through one forward-in-time recurrence.

    Returns (grad_x, grad_w_in, grad_w_rec, grad_bias).  grad_h is the
    upstream gradient on the hidden states h.  The time loop carries only the
    recurrence; the weight gradients are frame sums after it.
    """
    T, H = h.shape
    dx = np.empty((T, w_in.shape[0]))
    da = np.empty((T, H))
    carry = np.zeros(H)
    for t in range(T - 1, -1, -1):
        d = (grad_h[t] + carry) * (1.0 - h[t] * h[t])
        da[t] = d
        dx[t] = d @ w_in.T
        carry = d @ w_rec.T
    dw_in = _frame_sum(x[:, :, None] * da[:, None, :])
    dw_rec = _frame_sum(h[:-1, :, None] * da[1:, None, :])  # frame t starts from h[t-1]
    return dx, dw_in, dw_rec, _frame_sum(da)[None]


_NO_PARAMS = NamedParams({})  # the gradient of a stateless layer


def backward_layer(
    spec: LayerSpec, params: NamedParams, cache: ForwardCache, grad_out: Array
) -> tuple[Array, NamedParams]:
    """Backprop one layer: upstream grad_out -> (grad wrt input, grad wrt params)."""
    if cache.spec != spec:
        raise CacheError("cache was produced by a different layer spec")
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != cache.out_shape:
        raise CacheError(
            f"grad_out shape {grad_out.shape} does not match cached output {cache.out_shape}"
        )
    _require_params(spec, params)

    if spec.kind == "frame_stack":
        T = cache.in_shape[0]
        flat = grad_out.reshape(-1, spec.input_dim)
        return flat[:T].copy(), _NO_PARAMS
    if spec.kind == "affine":
        x = cache.get("x")
        grad_x = grad_out @ params["w"].T
        gw = x.T @ grad_out
        gb = grad_out.sum(axis=0, keepdims=True)
        return grad_x, NamedParams._from_owned({"w": gw, "b": gb})
    if spec.kind == "tanh":
        y = cache.get("y")
        return grad_out * (1.0 - y * y), _NO_PARAMS

    # recurrent_bidi
    x = cache.get("x")
    h_f, h_b = cache.get("h_f"), cache.get("h_b")
    H = spec.hidden
    dx_f, dwi_f, dwr_f, db_f = _recurrence_grads(
        x, params["w_in_f"], params["w_rec_f"], h_f, grad_out[:, :H]
    )
    dx_b, dwi_b, dwr_b, db_b = _recurrence_grads(
        x[::-1], params["w_in_b"], params["w_rec_b"], h_b[::-1], grad_out[::-1, H:]
    )
    grads = NamedParams._from_owned(
        {
            "w_in_f": dwi_f, "w_rec_f": dwr_f, "bias_f": db_f,
            "w_in_b": dwi_b, "w_rec_b": dwr_b, "bias_b": db_b,
        }
    )
    return dx_f + dx_b[::-1], grads


# ---------------------------------------------------------------------------
# optimization and the finite-difference oracle


def sgd_step(params: NamedParams, grads: NamedParams, lr: float) -> NamedParams:
    """out = params - lr * grads, entrywise; inputs are left untouched."""
    params._check_compatible(grads)
    lr = float(lr)
    return NamedParams._from_owned(
        {name: arr - lr * grads[name] for name, arr in params.items()}
    )


def finite_diff_grad(
    loss_fn: Callable[[NamedParams], float], params: NamedParams, step: float = 1e-5
) -> NamedParams:
    """Central-difference gradient of loss_fn at params.

    (f(p+e) - f(p-e)) / (2*step) per entry.  Exhaustive and slow by design:
    this is the oracle the analytic backward passes are audited against, so
    it shares no code with them.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    base = {name: arr for name, arr in params.items()}
    grads: dict[str, Array] = {}
    for name, arr in base.items():
        work = arr.copy()
        work.setflags(write=True)
        g = np.zeros_like(work)
        it = np.nditer(work, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = work[idx]
            work[idx] = orig + step
            plus = float(loss_fn(NamedParams({**base, name: work})))
            work[idx] = orig - step
            minus = float(loss_fn(NamedParams({**base, name: work})))
            work[idx] = orig
            g[idx] = (plus - minus) / (2.0 * step)
        if g.size and not np.all(np.isfinite(g)):
            raise NumericError(f"finite differences produced non-finite values for {name!r}")
        grads[name] = g
    return NamedParams._from_owned(grads)


# ---------------------------------------------------------------------------
# serialization: JSON header line + raw little-endian float64 payload


def save_params(params: NamedParams, path) -> None:
    """Write params as a UTF-8 JSON header line plus concatenated <f8 data."""
    header = [
        {"name": name, "rows": int(arr.shape[0]), "cols": int(arr.shape[1])}
        for name, arr in params.items()
    ]
    blob = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in params.items()
    )
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob)


def load_params(path) -> NamedParams:
    """Inverse of save_params; round-trips bit-exactly."""
    from .errors import ParseError

    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ParseError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, list):
        raise ParseError(f"{path}: header must be a JSON list")
    blob = raw[nl + 1:]
    entries: dict[str, Array] = {}
    offset = 0
    for item in header:
        try:
            name, rows, cols = item["name"], int(item["rows"]), int(item["cols"])
        except (TypeError, KeyError, ValueError) as exc:
            raise ParseError(f"{path}: malformed header entry {item!r}") from exc
        if not isinstance(name, str) or not name:
            raise ParseError(f"{path}: parameter name must be a non-empty string, got {name!r}")
        if name in entries:
            raise ParseError(f"{path}: duplicate parameter name {name!r}")
        if rows < 0 or cols < 0:
            raise ParseError(f"{path}: negative shape {rows}x{cols} for {name!r}")
        nbytes = rows * cols * 8
        if offset + nbytes > len(blob):
            raise ParseError(f"{path}: payload truncated at {name!r}")
        arr = np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=offset)
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"{path}: non-finite value in {name!r}")
        entries[name] = arr.reshape(rows, cols)
        offset += nbytes
    if offset != len(blob):
        raise ParseError(f"{path}: {len(blob) - offset} trailing bytes after payload")
    return NamedParams(entries)
