"""Parameter containers, layer forward/backward, FD oracle, serialization."""
import numpy as np
import pytest

from metactc import ctc
from metactc.diffcore import (
    LAYER_KINDS,
    LayerSpec,
    NamedParams,
    backward_layer,
    finite_diff_grad,
    forward_layer,
    grad_relative_error,
    init_layer_params,
    layer_param_shapes,
    load_params,
    save_params,
    sgd_step,
)
from metactc.errors import CacheError, DimensionError, NumericError, ParseError


# ---------------------------------------------------------------------------
# NamedParams


def test_named_params_sorted_and_copied():
    w = np.ones((2, 3))
    p = NamedParams({"b.z": w, "a.x": np.zeros((1, 2))})
    assert p.names() == ("a.x", "b.z")
    w[0, 0] = 99.0  # the container must hold its own copy
    assert p["b.z"][0, 0] == 1.0
    with pytest.raises(ValueError):
        p["b.z"][0, 0] = 5.0  # read-only view


def test_named_params_promotes_vectors():
    p = NamedParams({"b": np.arange(3.0)})
    assert p["b"].shape == (1, 3)


def test_named_params_rejects_bad_values():
    with pytest.raises(DimensionError):
        NamedParams({"x": np.zeros((2, 2, 2))})
    with pytest.raises(NumericError):
        NamedParams({"x": np.array([[np.nan, 0.0]])})
    with pytest.raises(ValueError):
        NamedParams({"": np.zeros((1, 1))})


def test_named_params_arithmetic():
    a = NamedParams({"w": np.full((2, 2), 2.0)})
    b = NamedParams({"w": np.full((2, 2), 3.0)})
    assert np.allclose(a.add(b)["w"], 5.0)
    assert np.allclose(a.scale(-1.0)["w"], -2.0)
    assert a.max_abs_diff(b) == 1.0
    assert a.same_values(NamedParams({"w": np.full((2, 2), 2.0)}))
    assert not a.same_values(b)
    assert a.norm() == pytest.approx(4.0)


def test_named_params_mismatch_errors():
    a = NamedParams({"w": np.zeros((2, 2))})
    b = NamedParams({"v": np.zeros((2, 2))})
    c = NamedParams({"w": np.zeros((3, 2))})
    with pytest.raises(DimensionError):
        a.add(b)
    with pytest.raises(DimensionError):
        a.add(c)


def test_named_params_prefix_tools():
    p = NamedParams({"enc.w": np.ones((1, 1)), "enc.b": np.zeros((1, 1)),
                     "head.w": np.full((1, 1), 2.0)})
    enc = p.subset("enc.")
    assert enc.names() == ("b", "w")
    kept = p.subset("enc.").with_prefix("enc.")
    assert kept.names() == ("enc.b", "enc.w")
    back = enc.with_prefix("enc.")
    assert back.names() == ("enc.b", "enc.w")
    merged = NamedParams.union(back, p.subset("head.").with_prefix("head."))
    assert merged.names() == ("enc.b", "enc.w", "head.w")
    with pytest.raises(ValueError):
        NamedParams.union(back, back)  # duplicate names


def test_grad_relative_error_floor():
    a = NamedParams({"w": np.array([[1e-9]])})
    b = NamedParams({"w": np.array([[3e-9]])})
    # floor keeps tiny absolute differences from exploding the ratio
    assert grad_relative_error(a, b) == pytest.approx(2e-9)
    big_a = NamedParams({"w": np.array([[10.0]])})
    big_b = NamedParams({"w": np.array([[12.0]])})
    assert grad_relative_error(big_a, big_b) == pytest.approx(2.0 / 12.0)


# ---------------------------------------------------------------------------
# layers


def _spec(kind):
    if kind == "frame_stack":
        return LayerSpec(kind, input_dim=3, output_dim=6, stride=2)
    if kind == "affine":
        return LayerSpec(kind, input_dim=3, output_dim=4)
    if kind == "tanh":
        return LayerSpec(kind, input_dim=3, output_dim=3)
    return LayerSpec(kind, input_dim=3, output_dim=4, hidden=2)


@pytest.mark.parametrize("kind", LAYER_KINDS)
def test_layer_shapes_roundtrip(kind, rng):
    spec = _spec(kind)
    params = init_layer_params(spec, rng)
    assert params.shapes() == layer_param_shapes(spec)
    x = rng.normal(size=(5, spec.input_dim))
    y, cache = forward_layer(spec, params, x)
    assert y.shape[1] == spec.output_dim
    gx, grads = backward_layer(spec, params, cache, np.ones_like(y))
    assert grads.shapes() == params.shapes()
    assert gx.shape == x.shape


def test_layer_spec_validation():
    with pytest.raises(DimensionError):
        LayerSpec("affine", input_dim=0, output_dim=2)
    with pytest.raises(DimensionError):
        LayerSpec("frame_stack", input_dim=3, output_dim=7, stride=2)
    with pytest.raises(DimensionError):
        LayerSpec("tanh", input_dim=3, output_dim=4)
    with pytest.raises(DimensionError):
        LayerSpec("recurrent_bidi", input_dim=3, output_dim=5, hidden=2)
    with pytest.raises(ValueError):
        LayerSpec("conv", input_dim=3, output_dim=3)


def test_frame_stack_pads_tail(rng):
    spec = LayerSpec("frame_stack", input_dim=2, output_dim=6, stride=3)
    params = init_layer_params(spec, rng)
    x = np.arange(10.0).reshape(5, 2)
    y, _ = forward_layer(spec, params, x)
    assert y.shape == (2, 6)  # ceil(5 / 3)
    assert np.allclose(y[0], [0, 1, 2, 3, 4, 5])
    assert np.allclose(y[1], [6, 7, 8, 9, 0, 0])  # zero-padded tail


def test_frame_stack_gradient_routes_back():
    spec = LayerSpec("frame_stack", input_dim=2, output_dim=4, stride=2)
    params = init_layer_params(spec, np.random.default_rng(0))
    x = np.arange(6.0).reshape(3, 2)
    y, cache = forward_layer(spec, params, x)
    g = np.arange(float(y.size)).reshape(y.shape)
    gx, _ = backward_layer(spec, params, cache, g)
    # every input frame appears in exactly one stacked frame
    assert np.allclose(gx, g.reshape(-1, 2)[:3])


def test_tanh_matches_closed_form(rng):
    spec = _spec("tanh")
    params = init_layer_params(spec, rng)
    x = rng.normal(size=(4, 3))
    y, cache = forward_layer(spec, params, x)
    assert np.allclose(y, np.tanh(x))
    g = rng.normal(size=y.shape)
    gx, _ = backward_layer(spec, params, cache, g)
    assert np.allclose(gx, g * (1.0 - np.tanh(x) ** 2))


def test_affine_matches_closed_form(rng):
    spec = _spec("affine")
    params = init_layer_params(spec, rng)
    x = rng.normal(size=(4, 3))
    y, _ = forward_layer(spec, params, x)
    assert np.allclose(y, x @ params["w"] + params["b"])


@pytest.mark.parametrize("kind", LAYER_KINDS)
def test_layer_param_gradients_match_fd(kind, rng):
    spec = _spec(kind)
    params = init_layer_params(spec, rng)
    x = rng.normal(size=(6, spec.input_dim))
    probe = rng.normal(size=(6 if kind != "frame_stack" else 3, spec.output_dim))

    def loss(p):
        y, _ = forward_layer(spec, p, x)
        return float(np.sum(probe * y))

    y, cache = forward_layer(spec, params, x)
    _, grads = backward_layer(spec, params, cache, probe)
    fd = finite_diff_grad(loss, params)
    assert grad_relative_error(grads, fd) < 1e-7


def test_recurrent_input_gradient_matches_fd(rng):
    spec = _spec("recurrent_bidi")
    params = init_layer_params(spec, rng)
    x = rng.normal(size=(5, 3))
    probe = rng.normal(size=(5, 4))
    y, cache = forward_layer(spec, params, x)
    gx, _ = backward_layer(spec, params, cache, probe)

    fd = np.zeros_like(x)
    eps = 1e-6
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            for sign in (1.0, -1.0):
                xp = x.copy()
                xp[i, j] += sign * eps
                yp, _ = forward_layer(spec, params, xp)
                fd[i, j] += sign * float(np.sum(probe * yp)) / (2 * eps)
    assert np.max(np.abs(gx - fd)) < 1e-7


# Per-frame references for the recurrence and the CTC occupancies: each frame
# does its own updates, in the order the vectorised kernels must reproduce.


def _ref_run_recurrence(x, w_in, w_rec, bias, reverse):
    T = x.shape[0]
    h = np.empty((T, w_rec.shape[0]))
    pre = x @ w_in + bias
    state = np.zeros(w_rec.shape[0])
    order = range(T - 1, -1, -1) if reverse else range(T)
    for t in order:
        state = np.tanh(pre[t] + state @ w_rec)
        h[t] = state
    return h


def _ref_recurrence_grads(x, w_in, w_rec, h, grad_h, reverse):
    T, H = h.shape
    dx = np.zeros_like(x)
    dw_in = np.zeros_like(w_in)
    dw_rec = np.zeros_like(w_rec)
    dbias = np.zeros((1, H))
    order = list(range(T - 1, -1, -1)) if reverse else list(range(T))
    carry = np.zeros(H)
    for j in range(T - 1, -1, -1):
        t = order[j]
        da = (grad_h[t] + carry) * (1.0 - h[t] * h[t])
        prev = h[order[j - 1]] if j > 0 else None
        if prev is not None:
            dw_rec += np.outer(prev, da)
        dw_in += np.outer(x[t], da)
        dbias[0] += da
        dx[t] = da @ w_in.T
        carry = da @ w_rec.T
    return dx, dw_in, dw_rec, dbias


def _ref_ctc_grad(lp, target):
    T, K = lp.shape
    log_p, log_alpha, ext, skip, emit = ctc._alpha_pass(lp, target)
    S = ext.size
    log_beta = np.full((T, S), -np.inf)
    log_beta[T - 1, S - 1] = 0.0
    if S > 1:
        log_beta[T - 1, S - 2] = 0.0
    for t in range(T - 2, -1, -1):
        nxt = log_beta[t + 1] + emit[t + 1]
        step1 = np.full(S, -np.inf)
        step1[:-1] = nxt[1:]
        step2 = np.full(S, -np.inf)
        step2[:-2] = np.where(skip[2:], nxt[2:], -np.inf)
        log_beta[t] = np.logaddexp(np.logaddexp(nxt, step1), step2)
    grad = np.zeros((T, K))
    for t in range(T):
        occ = np.full(K, -np.inf)
        np.logaddexp.at(occ, ext, log_alpha[t] + log_beta[t])
        grad[t] = -np.exp(occ - log_p)
    return grad


def _same_bits(a, b):
    return np.array_equal(a, b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("width,hidden", [(6, 8), (1, 1)])
@pytest.mark.parametrize("frames", [1, 2, 16])
def test_recurrence_bits_match_per_frame_reference(frames, width, hidden):
    rng = np.random.default_rng(400 + frames)
    spec = LayerSpec("recurrent_bidi", width, 2 * hidden, hidden=hidden)
    params = init_layer_params(spec, rng)
    x = rng.normal(size=(frames, width))
    x[:, 0] = 0.0  # products with a zero input carry signed zeros into dw_in
    out, cache = forward_layer(spec, params, x)
    h = {
        d: _ref_run_recurrence(
            x, params[f"w_in_{d}"], params[f"w_rec_{d}"], params[f"bias_{d}"], d == "b"
        )
        for d in ("f", "b")
    }
    assert _same_bits(out, np.concatenate([h["f"], h["b"]], axis=1))

    probe = rng.normal(size=out.shape)
    gx, grads = backward_layer(spec, params, cache, probe)
    ref = {
        d: _ref_recurrence_grads(
            x, params[f"w_in_{d}"], params[f"w_rec_{d}"], h[d], probe[:, cols], d == "b"
        )
        for d, cols in (("f", slice(0, hidden)), ("b", slice(hidden, None)))
    }
    assert _same_bits(gx, ref["f"][0] + ref["b"][0])
    for d, (_, dw_in, dw_rec, dbias) in ref.items():
        assert _same_bits(grads[f"w_in_{d}"], dw_in)
        assert _same_bits(grads[f"w_rec_{d}"], dw_rec)
        assert _same_bits(grads[f"bias_{d}"], dbias)


@pytest.mark.parametrize("frames", [1, 2, 16])
def test_ctc_grad_bits_match_per_frame_reference(frames):
    rng = np.random.default_rng(500 + frames)
    logits = rng.normal(size=(frames, 5))
    lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    target = rng.integers(0, 4, size=max(1, frames // 3))
    _, grad = ctc.ctc_loss(lp, target)
    assert _same_bits(grad, _ref_ctc_grad(lp, target))


def test_backward_rejects_foreign_cache(rng):
    spec = _spec("affine")
    params = init_layer_params(spec, rng)
    x = rng.normal(size=(4, 3))
    y, cache = forward_layer(spec, params, x)
    with pytest.raises(CacheError):
        backward_layer(_spec("tanh"), params, cache, np.ones_like(y))
    with pytest.raises(CacheError):
        backward_layer(spec, params, cache, np.ones((2, spec.output_dim)))


def test_init_is_seed_deterministic():
    spec = _spec("recurrent_bidi")
    a = init_layer_params(spec, np.random.default_rng(7))
    b = init_layer_params(spec, np.random.default_rng(7))
    assert a.same_values(b)
    c = init_layer_params(spec, np.random.default_rng(8))
    assert not a.same_values(c)


def test_init_bounds_follow_fan_in(rng):
    spec = LayerSpec("affine", input_dim=100, output_dim=50)
    params = init_layer_params(spec, rng)
    assert np.max(np.abs(params["w"])) <= 1.0 / np.sqrt(100)
    assert np.max(np.abs(params["b"])) <= 1.0 / np.sqrt(50)


# ---------------------------------------------------------------------------
# sgd and finite differences


def test_sgd_step_definition():
    p = NamedParams({"w": np.full((1, 2), 1.0)})
    g = NamedParams({"w": np.array([[0.5, -1.0]])})
    out = sgd_step(p, g, 0.1)
    assert np.allclose(out["w"], [[0.95, 1.1]])


def test_finite_diff_quadratic_exact():
    p = NamedParams({"w": np.array([[1.0, -2.0], [0.5, 3.0]])})

    def loss(q):
        return float(np.sum(q["w"] ** 2))

    fd = finite_diff_grad(loss, p)
    assert np.allclose(fd["w"], 2.0 * p["w"], atol=1e-9)


# ---------------------------------------------------------------------------
# serialization


def test_params_roundtrip_bit_exact(tmp_path, rng):
    p = NamedParams({"enc.w": rng.normal(size=(3, 4)),
                     "enc.b": rng.normal(size=(1, 4)),
                     "head.x": rng.normal(size=(2, 2))})
    path = tmp_path / "p.params"
    save_params(p, path)
    q = load_params(path)
    assert q.names() == p.names()
    for (_, a), (_, b) in zip(p.items(), q.items()):
        assert a.tobytes() == b.tobytes()


def test_save_params_is_byte_deterministic(tmp_path, rng):
    p = NamedParams({"w": rng.normal(size=(5, 5))})
    save_params(p, tmp_path / "a.params")
    save_params(p, tmp_path / "b.params")
    assert (tmp_path / "a.params").read_bytes() == (tmp_path / "b.params").read_bytes()


def test_load_params_rejects_corruption(tmp_path, rng):
    p = NamedParams({"w": rng.normal(size=(2, 2))})
    path = tmp_path / "p.params"
    save_params(p, path)
    raw = path.read_bytes()

    (tmp_path / "trunc.params").write_bytes(raw[:-8])
    with pytest.raises(ParseError):
        load_params(tmp_path / "trunc.params")

    (tmp_path / "trail.params").write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ParseError):
        load_params(tmp_path / "trail.params")

    (tmp_path / "junk.params").write_bytes(b"not json\n" + raw)
    with pytest.raises(ParseError):
        load_params(tmp_path / "junk.params")

    payload = raw[raw.index(b"\n"):]
    for case, header in (
        ("negative", b'[{"name":"v","rows":-2,"cols":2},{"name":"w","rows":2,"cols":2}]'),
        ("unnamed", b'[{"name":7,"rows":2,"cols":2}]'),
        ("duplicate", b'[{"name":"w","rows":1,"cols":2},{"name":"w","rows":1,"cols":2}]'),
    ):
        (tmp_path / f"{case}.params").write_bytes(header + payload)
        with pytest.raises(ParseError):
            load_params(tmp_path / f"{case}.params")

    nan = raw[: raw.index(b"\n") + 1] + np.array([np.nan], dtype="<f8").tobytes() + raw[-24:]
    (tmp_path / "nan.params").write_bytes(nan)
    with pytest.raises(ParseError, match="nan.params"):
        load_params(tmp_path / "nan.params")
