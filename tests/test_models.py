import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvmlp import models
from mvmlp.mlp import CostLedger, MlpConfig, mlp_estimate
from mvmlp.models import (
    KuramotoParams,
    OuParams,
    default_cost_units,
    kuramoto_diffusion,
    kuramoto_drift,
    kuramoto_model,
    ou_diffusion,
    ou_drift,
    ou_model,
    random_params,
)
from mvmlp.numerics import TimeGrid
from mvmlp.randomness import derive_stream, sample_brownian_increments
from oracles import reuse_class


def _ou_params(d, seed=0, scale=0.25):
    return random_params("ou", d, derive_stream(seed, (0,)), scale)


class TestOuDrift:
    def test_at_origin(self):
        p = _ou_params(3)
        np.testing.assert_allclose(ou_drift(p, np.zeros(3), np.zeros(3)), p.a0)

    def test_identity_matrices(self):
        d = 4
        p = OuParams(
            a0=np.zeros(d), A1=np.eye(d), A2=np.eye(d),
            b=np.zeros((d, d)), B=np.zeros((d, d, d)),
        )
        x, y = np.arange(d, dtype=float), np.ones(d)
        np.testing.assert_allclose(ou_drift(p, x, y), x + y)

    def test_affine_increment(self):
        p = _ou_params(3, seed=5)
        rng = np.random.default_rng(0)
        x1, x2, h = rng.normal(size=(3, 3))
        lhs = ou_drift(p, x1 + h, x2) - ou_drift(p, x1, x2)
        np.testing.assert_allclose(lhs, p.A1 @ h, atol=1e-12)

    def test_lipschitz_sampled(self):
        p = _ou_params(3, seed=2)
        c = 2 * max(np.linalg.norm(p.A1), np.linalg.norm(p.A2))
        rng = np.random.default_rng(8)
        for _ in range(100):
            x1, x2, y1, y2 = rng.normal(scale=3, size=(4, 3))
            gap = np.linalg.norm(ou_drift(p, x1, x2) - ou_drift(p, y1, y2))
            bound = 0.5 * c * np.linalg.norm(x1 - y1) + 0.5 * c * np.linalg.norm(x2 - y2)
            assert gap <= bound + 1e-12

    def test_dim_mismatch(self):
        p = _ou_params(3)
        with pytest.raises(ValueError):
            ou_drift(p, np.zeros(2), np.zeros(3))


class TestOuDiffusion:
    def test_at_origin_gives_offsets(self):
        p = _ou_params(3)
        np.testing.assert_allclose(ou_diffusion(p, np.zeros(3)), p.b)

    def test_constant_when_b_matrices_zero(self):
        p = _ou_params(3)
        p0 = OuParams(a0=p.a0, A1=p.A1, A2=p.A2, b=p.b, B=np.zeros((3, 3, 3)))
        rng = np.random.default_rng(1)
        np.testing.assert_array_equal(ou_diffusion(p0, rng.normal(size=3)), p0.b)

    def test_hand_case(self):
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        B = np.stack([np.eye(2), np.zeros((2, 2))])
        p = OuParams(a0=np.zeros(2), A1=np.zeros((2, 2)), A2=np.zeros((2, 2)), b=b, B=B)
        got = ou_diffusion(p, np.array([2.0, 3.0]))
        np.testing.assert_allclose(got[:, 0], [3.0, 3.0])
        np.testing.assert_allclose(got[:, 1], [0.0, 1.0])

    def test_linear_in_mean_argument(self):
        p = _ou_params(4, seed=3)
        rng = np.random.default_rng(2)
        x = rng.normal(size=4)
        lhs = ou_diffusion(p, 2.5 * x) - ou_diffusion(p, np.zeros(4))
        rhs = 2.5 * (ou_diffusion(p, x) - ou_diffusion(p, np.zeros(4)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestDiffusionKernel:
    """The GEMM kernels equal the einsum definition up to summation order."""

    @pytest.mark.parametrize("lead", [(), (27,), (4, 1), (4, 27)])
    @pytest.mark.parametrize("d", [1, 3, 50, 100])
    def test_matches_einsum_definition(self, d, lead):
        x = np.random.default_rng(d).normal(scale=5.0, size=lead + (d,))
        ou = _ou_params(d, seed=1)
        ku = random_params("kuramoto", d, derive_stream(1, (0,)))

        def definition(P, v):
            return np.einsum("kij,...j->...ik", P, v)

        ou_want = ou.b + definition(ou.B, x)
        ou_scale = np.abs(ou.b) + definition(np.abs(ou.B), np.abs(x))
        ku_want = definition(ku.Sigma, x)
        ku_scale = definition(np.abs(ku.Sigma), np.abs(x))
        cases = [
            (ou_diffusion(ou, x), ou_want, ou_scale),
            (ou_model(ou).diffusion(x, x), ou_want, ou_scale),
            (kuramoto_diffusion(ku, x), ku_want, ku_scale),
            (kuramoto_model(ku).diffusion(x, x), ku_want, ku_scale),
        ]
        for got, want, scale in cases:
            assert got.shape == lead + (d, d)
            # relative to the summed magnitudes, the scale of a dot
            # product's rounding error, since single entries may cancel
            assert np.all(np.abs(got - want) <= 1e-13 * scale)


def _family(p):
    return p.B if isinstance(p, OuParams) else p.Sigma


def _gemm_operand(P):
    d = P.shape[0]
    return P.transpose(2, 0, 1).reshape(d, d * d)


class TestGemmLayout:
    """Each family is a (d, d, d) view of one C-contiguous (d, d*d) operand."""

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    def test_random_params_written_once(self, kind, monkeypatch):
        d = 6
        # the norm sums the d**3 squares in buffer order, not draw order: a
        # reordered sum of d**3 positive terms, then a root and a product
        tol = 4 * d**3 * np.finfo(float).eps
        normed = []
        norm = np.linalg.norm

        def spy(a, *args, **kwargs):
            normed.append(np.array(a))
            return norm(a, *args, **kwargs)

        monkeypatch.setattr(models.np.linalg, "norm", spy)
        p = random_params(kind, d, derive_stream(3, (0,)))
        monkeypatch.undo()
        P = _family(p)
        assert P.transpose(2, 0, 1).flags.c_contiguous
        assert np.shares_memory(_gemm_operand(P), P)
        # rebuilding the params from the family keeps its buffer
        assert np.shares_memory(_family(dataclasses.replace(p)), P)
        if kind == "kuramoto":
            # before scaling, the buffer holds the [k, i, j] uniform draw
            # bit for bit; after, it is the draw scaled to norm 0.25
            draw = 2.0 * derive_stream(3, (0,)).uniforms((d, d, d)) - 1.0
            (unscaled,) = normed
            np.testing.assert_array_equal(unscaled.reshape(d, d, d).transpose(1, 2, 0), draw)
            np.testing.assert_allclose(P, draw * (0.25 / norm(draw)), rtol=tol, atol=0)

    def test_c_ordered_input_is_laid_out(self):
        d = 4
        P = np.random.default_rng(0).normal(size=(d, d, d))
        zeros = np.zeros((d, d))
        ou = OuParams(a0=np.zeros(d), A1=zeros, A2=zeros, b=zeros, B=P)
        ku = KuramotoParams(mu0=0.5, Sigma=P)
        for got in (ou.B, ku.Sigma):
            assert got.transpose(2, 0, 1).flags.c_contiguous
            np.testing.assert_array_equal(got, P)

    @pytest.mark.parametrize("source", ["random_params", "user"])
    def test_ou_family_and_offset_share_one_operand(self, source):
        # B's [j, (k, i)] rows and b's [k, i] row are one C-contiguous
        # (d+1, d*d) buffer, the diffusion's operand, whatever built the
        # params; sigma(0) is the view of its last row
        d = 4
        if source == "random_params":
            p = _ou_params(d)
        else:
            rng = np.random.default_rng(0)
            B, b = rng.normal(size=(d, d, d)), rng.normal(size=(d, d))
            zeros = np.zeros((d, d))
            p = OuParams(a0=np.zeros(d), A1=zeros, A2=zeros, b=b, B=B)
            np.testing.assert_array_equal(p.B, B)
            np.testing.assert_array_equal(p.b, b)
        op = p.operand
        assert op.shape == (d + 1, d * d) and op.flags.c_contiguous and op.base is None
        assert p.B.base is op and p.b.base is op
        assert p.B.transpose(2, 0, 1).reshape(d, d * d).tobytes() == op[:d].tobytes()
        assert p.b.T.tobytes() == op[d].tobytes()
        assert np.shares_memory(ou_diffusion(p, np.zeros(d)), op[d])
        # rebuilt from its views, the params keep the buffer; a new offset
        # makes a new one and leaves the old params as they were
        assert dataclasses.replace(p).operand is op
        before = op.copy()
        q = dataclasses.replace(p, b=np.ones((d, d)))
        assert not np.shares_memory(q.operand, op)
        assert op.tobytes() == before.tobytes()
        np.testing.assert_array_equal(q.B, p.B)

    def test_product_runs_against_the_family_buffer(self, monkeypatch):
        d = 5
        p = random_params("kuramoto", d, derive_stream(3, (0,)))
        operands = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            operands.append(b)
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(models.np, "matmul", spy)
        kuramoto_diffusion(p, np.ones((4, d)))
        assert len(operands) == 1
        assert operands[0].shape == (d, d * d) and operands[0].flags.c_contiguous
        assert np.shares_memory(operands[0], p.Sigma)


_FIELD_SHAPES = {"a0": (3,), "A1": (3, 3), "A2": (3, 3), "b": (3, 3), "B": (3, 3, 3),
                 "Sigma": (3, 3, 3)}


def _params_with(field, value):
    """Zero d = 3 parameters of the model that has `field`, with `field` set to `value`."""
    if field in ("mu0", "Sigma"):
        fields = {"mu0": 0.5, "Sigma": np.zeros((3, 3, 3)), field: value}
        return KuramotoParams(**fields)
    fields = {name: np.zeros(shape) for name, shape in _FIELD_SHAPES.items() if name != "Sigma"}
    return OuParams(**{**fields, field: value})


def _model(kind, p, initial_value=None):
    build = ou_model if kind == "ou" else kuramoto_model
    return build(p, initial_value=initial_value)


def _multiplied(p, rows):
    """The rows a product against `p.operand` multiplies: OU's offset row takes a ones column."""
    if isinstance(p, OuParams):
        return np.concatenate([rows, np.ones((len(rows), 1))], axis=1)
    return rows


def _spy_products(monkeypatch, family):
    """The state rows of each product made against `family` from now on."""
    products = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        if np.shares_memory(b, family):
            products.append(np.array(a))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(models.np, "matmul", spy)
    return products


def _check_rule(model, x, products):
    """The reuse rule on one call; returns `reuse_class(x, xi)`.

    Every row is the einsum definition. An all-zero call, and a Kuramoto
    all-xi call, make no product and return sigma(0), bit for bit the
    definition, or the model's one-row product of xi, as a read-only view
    of one (d, d) matrix with zero leading strides (OU's sigma(0) is its
    offset b); any other call is one product of all its rows (OU's with a
    ones column, against its offset row too), whose values it returns in a
    fresh writable block. `products` is a `_spy_products` list, cleared
    before the call.
    """
    p, d, xi = model.params, model.d, model.initial_value
    P = _family(p)
    ou = model.name == "ou"

    def product(rows):
        # the [i, k] layout of one GEMM of `rows`; `@` bypasses the spy
        return (_multiplied(p, rows) @ p.operand).reshape(len(rows), d, d).swapaxes(-1, -2)

    products.clear()
    got = model.diffusion(x, x)
    want = np.einsum("kij,...j->...ik", P, x) + (p.b if ou else 0.0)
    scale = np.einsum("kij,...j->...ik", np.abs(P), np.abs(x)) + (np.abs(p.b) if ou else 0.0)
    assert got.shape == x.shape + (d,)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    kind = reuse_class(x, xi)
    rows = x.reshape(-1, d)
    if kind == "zero" or (kind == "xi" and not ou):
        assert not products
        assert not got.flags.writeable
        # a (d, d) matrix: a product against a view of a scalar skips BLAS
        assert got.strides[:-2] == (0,) * (got.ndim - 2)
        assert d == 1 or 0 not in got.strides[-2:]
    else:
        assert len(products) == 1
        np.testing.assert_array_equal(products[0], _multiplied(p, rows))
        assert got.flags.writeable and got.swapaxes(-1, -2).flags.c_contiguous
        assert not any(np.shares_memory(got, a) for a in (x, P, p.b if ou else xi))
    flat = got.reshape(-1, d, d)
    if kind == "zero":
        if ou:
            assert np.shares_memory(got, p.b)
        assert flat.tobytes() == want.tobytes()
    elif kind == "xi" and not ou:
        assert np.shares_memory(got, model.diffusion(xi, xi))
        xi_row = product(xi[None, :])[0]
        for i, row in enumerate(flat):
            assert row.tobytes() == xi_row.tobytes(), i
    else:
        assert flat.tobytes() == product(rows).tobytes()
    return kind


def _allocated(call):
    """Peak bytes traced while `call()` runs, and its result."""
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, out


class TestZeroStateRows:
    """An all-zero call returns sigma(0) as a view; a call with trailing zero rows is one product."""

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("d", [3, 10, 100])
    def test_trailing_zero_rows(self, kind, d, monkeypatch):
        K = 4
        p = random_params(kind, d, derive_stream(d, (0,)))
        model = _model(kind, p)
        products = _spy_products(monkeypatch, _family(p))
        rng = np.random.default_rng(d)
        for zeros, want in ((0, "general"), (1, "tail"), (K, "tail"), (2 * K, "zero")):
            x = rng.normal(scale=5.0, size=(2 * K, d))
            x[1] = 0.0                      # a lone interior zero row is multiplied
            x[2 * K - zeros:] = 0.0
            assert _check_rule(model, x, products) == want, zeros

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    def test_base_call(self, kind):
        d = 10
        p = random_params(kind, d, derive_stream(d, (0,)))
        got = _model(kind, p).diffusion(np.zeros(d), np.zeros(d))
        assert got.shape == (d, d)
        assert (got == (p.b if kind == "ou" else 0.0)).all()

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("lead", [(16,), (4, 27)])
    def test_all_zero_call_is_a_view_of_sigma0(self, kind, lead):
        # the coefficient and the model both return one (d, d) sigma(0)
        # through zero leading strides: OU's offset b, which the params hold
        # once, or a (d, d) zero matrix for Kuramoto, which has no offset
        d = 10
        p = random_params(kind, d, derive_stream(d, (0,)))
        coefficient = ou_diffusion if kind == "ou" else kuramoto_diffusion
        x = np.zeros(lead + (d,))
        for got in (coefficient(p, x), _model(kind, p).diffusion(x, x)):
            assert got.shape == lead + (d, d)
            assert not got.flags.writeable
            assert got.strides[:-2] == (0,) * len(lead) and 0 not in got.strides[-2:]
            if kind == "ou":
                assert np.shares_memory(got, p.b)
                assert got.swapaxes(-1, -2)[(0,) * len(lead)].flags.c_contiguous
            want = np.broadcast_to(p.b if kind == "ou" else np.zeros((d, d)), got.shape)
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[(0,) * len(lead)] = 1.0

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("d", [10, 100])
    def test_constant_call_allocates_no_block(self, kind, d):
        # an all-zero call (and a Kuramoto all-xi call) makes no (K, d, d)
        # buffer, where a general call of K rows makes one
        K = 16
        p = random_params(kind, d, derive_stream(d, (0,)))
        model = _model(kind, p)
        xi = model.initial_value
        block = K * d * d * 8
        states = {"zero": np.zeros((K, d)), "general": np.random.default_rng(d).normal(size=(K, d))}
        if kind == "kuramoto":
            states["xi"] = np.repeat(xi[None, :], K, axis=0)
        for name, x in states.items():
            peak, out = _allocated(lambda: model.diffusion(x, x))
            assert out.shape == (K, d, d)
            if name == "general":
                assert peak >= block, peak / block
            else:
                assert peak < block / 4, (name, peak / block)


class TestStateRows:
    """A diffusion call reads any (..., d) state as its (rows, d) reshape."""

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("lead", [(), (27,), (4, 1), (4, 27)])
    def test_any_lead_is_its_rows(self, kind, lead):
        d = 10
        p = random_params(kind, d, derive_stream(d, (0,)))
        model = _model(kind, p)
        coefficient = ou_diffusion if kind == "ou" else kuramoto_diffusion
        x = np.random.default_rng(d).normal(scale=5.0, size=lead + (d,))
        for call in (lambda v: coefficient(p, v), lambda v: model.diffusion(v, v)):
            got = call(x)
            assert got.shape == lead + (d, d)
            assert got.tobytes() == call(x.reshape(-1, d)).reshape(lead + (d, d)).tobytes()

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    def test_trailing_zero_rows_across_a_lead(self, kind, monkeypatch):
        # the rule reads all the rows of the reshape: zero trailing rows
        # are multiplied with the rest, and only an all-zero state is sigma(0)
        d = 10
        p = random_params(kind, d, derive_stream(d, (0,)))
        model = _model(kind, p)
        sigma0 = model.diffusion(np.zeros(d), np.zeros(d))
        x = np.random.default_rng(d).normal(scale=5.0, size=(4, 27, d))
        x[1, 20:] = 0.0
        x[2:] = 0.0
        products = _spy_products(monkeypatch, _family(p))
        assert _check_rule(model, x, products) == "tail"
        zero = np.zeros_like(x)
        got = model.diffusion(zero, zero).reshape(-1, d, d)
        # no second product; OU's rows carry a ones column
        assert [a.shape for a in products] == [(4 * 27, d + (kind == "ou"))]
        for row in got:
            assert row.tobytes() == sigma0.tobytes()


class TestRepeatedStateRows:
    """Equal rows are multiplied with the rest.

    Any 2-D state makes at most one product against the family.
    """

    @staticmethod
    def _cases(d, xi):
        rng = np.random.default_rng(d)
        rows = 10
        x = rng.normal(scale=5.0, size=(rows, d))
        start = x.copy()
        start[1:3] = start[0]
        middle = x.copy()
        middle[4:7] = middle[3]
        end = x.copy()
        end[7:] = end[6]
        whole = np.repeat(x[:1], rows, axis=0)
        zeros = x.copy()
        zeros[3:6] = 0.0
        signed = x.copy()
        signed[4] = 0.0
        signed[5] = -0.0
        col0 = x.copy()
        col0[2:5, 0] = col0[1, 0]           # equal in column 0 only
        known = x.copy()
        known[4:7] = xi
        return {"start": start, "middle": middle, "end": end, "whole": whole,
                "interior zeros": zeros, "-0.0 after 0.0": signed, "column 0 only": col0,
                "interior xi run": known}

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("d", [3, 10, 100])
    def test_runs(self, kind, d, monkeypatch):
        p = random_params(kind, d, derive_stream(d, (0,)))
        # built before the spy: the model multiplies its initial value once
        model = _model(kind, p)
        products = _spy_products(monkeypatch, _family(p))
        for name, x in self._cases(d, model.initial_value).items():
            # none of the cases ends in a zero or xi row: all rows, one product
            assert _check_rule(model, x, products) == "general", name
            assert len(products) == 1, name

    @settings(max_examples=50, deadline=None)
    @given(kind=st.sampled_from(["ou", "kuramoto"]), d=st.integers(1, 4), data=st.data())
    def test_random_duplications(self, kind, d, data):
        # few distinct values, so runs, zero rows, xi rows and -0.0 are common
        values = st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0])
        xi = data.draw(arrays(float, d, elements=values))
        whole = data.draw(st.sampled_from(["zero", "xi", "mixed"]))
        if whole == "mixed":
            base = data.draw(arrays(float, st.tuples(st.integers(1, 6), st.just(d)),
                                    elements=values))
            repeats = data.draw(st.lists(st.integers(1, 4), min_size=len(base),
                                         max_size=len(base)))
            tail = data.draw(st.lists(st.sampled_from(["xi", "zero"]), max_size=4))
            x = np.concatenate([np.repeat(base, repeats, axis=0)]
                               + [(xi if row == "xi" else np.zeros(d))[None, :]
                                  for row in tail])
        else:
            rows = data.draw(st.integers(1, 8))
            x = np.repeat((xi if whole == "xi" else np.zeros(d))[None, :], rows, axis=0)
        p = random_params(kind, d, derive_stream(d, (0,)))
        model = _model(kind, p, initial_value=xi)
        with pytest.MonkeyPatch.context() as mp:
            got = _check_rule(model, x, _spy_products(mp, _family(p)))
        if whole != "mixed":
            # an all-xi call whose xi is zero is an all-zero call
            assert got == ("zero" if whole == "zero" or not xi.any() else "xi")


class TestKnownRows:
    """A Kuramoto all-xi call returns the matrix the model made of xi at build, as a view."""

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("d", [3, 100])
    def test_xi_run_copies_the_known_row(self, kind, d, monkeypatch):
        # only a whole call of xi rows returns the known matrix, and only
        # for Kuramoto; a call with an xi tail is one product of all its rows
        p = random_params(kind, d, derive_stream(d, (0,)))
        model = _model(kind, p)
        xi = model.initial_value
        products = _spy_products(monkeypatch, _family(p))
        x = np.random.default_rng(d).normal(scale=5.0, size=(9, d))
        whole = np.repeat(xi[None, :], 9, axis=0)    # Kuramoto's hi half at l = 1
        tail = x.copy()
        tail[5:] = xi
        then_zeros = x.copy()
        then_zeros[3:6] = xi
        then_zeros[6:] = 0.0
        xi_then_zeros = np.zeros((8, d))
        xi_then_zeros[:4] = xi
        not_last = x.copy()
        not_last[3:7] = xi
        cases = {"all xi": (whole, "xi"), "xi tail": (tail, "tail"),
                 "xi, then zeros": (then_zeros, "tail"),
                 "all xi, then zeros": (xi_then_zeros, "tail"),
                 "xi run not last": (not_last, "general")}
        for name, (x, want) in cases.items():
            assert _check_rule(model, x, products) == want, name

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    def test_lone_xi_row_is_multiplied_in_its_stretch(self, kind, monkeypatch):
        # a call with an xi row and other rows is one product of all of them
        d, rows = 10, 6
        p = random_params(kind, d, derive_stream(d, (0,)))
        model = _model(kind, p)
        products = _spy_products(monkeypatch, _family(p))
        x = np.random.default_rng(d).normal(scale=5.0, size=(rows, d))
        x[0] = model.initial_value        # row 0 of every OU path
        assert _check_rule(model, x, products) == "general"

    @pytest.mark.parametrize("d", [10, 100])
    def test_xi_call_is_a_view_of_the_known_matrix(self, d):
        # every all-xi call, of any lead, is a read-only view of the one
        # (d, d) sigma(xi) the model made at build, bit for bit a one-row
        # product of xi, and none makes a (K, d, d) block
        K = 16
        p = random_params("kuramoto", d, derive_stream(d, (0,)))
        model = kuramoto_model(p)
        xi = model.initial_value
        held = model.diffusion(xi, xi)
        assert held.shape == (d, d) and not held.flags.writeable
        one_row = (xi[None, :] @ _gemm_operand(p.Sigma)).reshape(d, d).T
        assert held.tobytes() == one_row.tobytes()
        for lead in ((K,), (2, K // 2)):
            x = np.broadcast_to(xi, lead + (d,)).copy()
            peak, got = _allocated(lambda: model.diffusion(x, x))
            assert peak < K * d * d * 8 / 4, peak
            assert got.shape == lead + (d, d) and not got.flags.writeable
            assert got.strides[:-2] == (0,) * len(lead)
            assert np.shares_memory(got, held)
            assert got.tobytes() == np.broadcast_to(one_row, got.shape).tobytes()
        # the coefficient alone knows no xi: the same call is one product
        got = kuramoto_diffusion(p, np.repeat(xi[None, :], K, axis=0))
        assert got.flags.writeable and not np.shares_memory(got, held)

    def test_ou_makes_no_xi_copy(self, monkeypatch):
        # OU's paths never stay at xi, so its model holds no xi row: an
        # all-xi call (the one-row calls of a K = 1 cell) is one product,
        # the same operands and shape as a one-row product made at build
        d, n = 3, 3
        base = ou_model(_ou_params(d, seed=6))
        xi = base.initial_value
        products = _spy_products(monkeypatch, base.params.B)
        for rows in (1, 5):
            x = np.repeat(xi[None, :], rows, axis=0)
            assert _check_rule(base, x, products) == "xi"
        classes = []

        def diffusion(x1, x2):
            products.clear()
            out = base.diffusion(x1, x2)
            kind = reuse_class(np.asarray(x2), xi)       # OU's sigma reads x2
            classes.append(kind)
            assert len(products) == (0 if kind == "zero" else 1)
            return out

        model = dataclasses.replace(base, diffusion=diffusion)
        grid = TimeGrid(T=1.0, K=1)
        inc = sample_brownian_increments(derive_stream(6, (1, 0)), 1, d, grid.dt)
        mlp_estimate(model, MlpConfig(n=n, m=1, grid=grid), (1, 0), 6, inc, CostLedger())
        assert "xi" in classes


class TestKuramoto:
    def test_drift_zero_at_equal_args(self):
        p = random_params("kuramoto", 3, derive_stream(0, (0,)))
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(kuramoto_drift(p, x, x), np.zeros(3))

    def test_drift_quarter_period(self):
        p = KuramotoParams(mu0=0.5, Sigma=np.zeros((2, 2, 2)))
        got = kuramoto_drift(p, np.full(2, np.pi / 2), np.zeros(2))
        np.testing.assert_allclose(got, [0.5, 0.5])

    def test_drift_antisymmetry(self):
        p = random_params("kuramoto", 3, derive_stream(4, (0,)))
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, y = rng.normal(size=(2, 3))
            np.testing.assert_allclose(
                kuramoto_drift(p, x, y), -kuramoto_drift(p, y, x), atol=1e-14
            )

    def test_drift_bounded(self):
        p = random_params("kuramoto", 5, derive_stream(4, (0,)), mu0=0.5)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = rng.normal(scale=10, size=(2, 5))
            assert np.linalg.norm(kuramoto_drift(p, x, y)) <= 0.5 * np.sqrt(5) + 1e-12

    def test_diffusion_zero_at_origin(self):
        p = random_params("kuramoto", 3, derive_stream(4, (0,)))
        np.testing.assert_array_equal(kuramoto_diffusion(p, np.zeros(3)), np.zeros((3, 3)))

    def test_diffusion_hand_case(self):
        e = np.eye(2)
        Sigma = np.stack([np.outer(e[0], e[0]), np.outer(e[1], e[1])])
        p = KuramotoParams(mu0=0.5, Sigma=Sigma)
        got = kuramoto_diffusion(p, np.array([3.0, 5.0]))
        np.testing.assert_allclose(got[:, 0], [3.0, 0.0])
        np.testing.assert_allclose(got[:, 1], [0.0, 5.0])

    def test_diffusion_homogeneous(self):
        p = random_params("kuramoto", 4, derive_stream(6, (0,)))
        rng = np.random.default_rng(5)
        x = rng.normal(size=4)
        np.testing.assert_allclose(
            kuramoto_diffusion(p, 1.7 * x), 1.7 * kuramoto_diffusion(p, x), atol=1e-12
        )


class TestRandomParams:
    def test_norms_pinned(self):
        rho = 0.4
        p = random_params("ou", 5, derive_stream(11, (0,)), rho)
        assert abs(np.linalg.norm(p.A1) - rho) < 1e-12
        assert abs(np.linalg.norm(p.A2) - rho) < 1e-12
        assert abs(np.linalg.norm(p.a0) - rho) < 1e-12
        assert abs(np.linalg.norm(p.B) - rho) < 1e-12
        for k in range(5):
            assert abs(np.linalg.norm(p.b[:, k]) - rho) < 1e-12
        k = random_params("kuramoto", 5, derive_stream(11, (0,)), rho)
        assert abs(np.linalg.norm(k.Sigma) - rho) < 1e-12

    def test_deterministic(self):
        p1 = random_params("ou", 4, derive_stream(2, (0,)))
        p2 = random_params("ou", 4, derive_stream(2, (0,)))
        np.testing.assert_array_equal(p1.A1, p2.A1)
        np.testing.assert_array_equal(p1.B, p2.B)

    def test_sigma_lipschitz_sampled(self):
        rho = 0.25
        p = random_params("ou", 3, derive_stream(9, (0,)), rho)
        c = 2 * rho
        rng = np.random.default_rng(10)
        for _ in range(100):
            x2, y2 = rng.normal(scale=5, size=(2, 3))
            gap = np.linalg.norm(ou_diffusion(p, x2) - ou_diffusion(p, y2))
            assert gap <= 0.5 * c * np.linalg.norm(x2 - y2) + 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_params("heat", 3, derive_stream(0, (0,)))

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    def test_initial_value_shape_checked(self, kind):
        p = random_params(kind, 3, derive_stream(0, (0,)))
        for xi in (np.ones(2), np.ones((1, 3)), 1.0):
            with pytest.raises(ValueError, match=r"initial value has shape .*, expected \(3,\)"):
                _model(kind, p, initial_value=xi)

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    def test_non_finite_initial_value_rejected(self, kind):
        p = random_params(kind, 3, derive_stream(0, (0,)))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="initial value contains non-finite entries"):
                _model(kind, p, initial_value=[0.0, bad, 1.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("bad, message", [
        # a float conversion would read these as their real part, 0 or 1, and a number
        (np.ones(3) + 1j, "must be real, got dtype complex128"),
        (np.ones(3, dtype=bool), "must be real, got dtype bool"),
        (np.full(3, "1"), "must be real, got dtype <U1"),
        # numpy's own refusal of a ragged sequence names no field
        ([1.0, [2.0, 3.0], 4.0], "is a ragged sequence, not an array of one shape"),
    ], ids=["complex", "bool", "str", "ragged"])
    def test_initial_value_must_be_real(self, kind, bad, message):
        p = random_params(kind, 3, derive_stream(0, (0,)))
        with pytest.raises(ValueError, match=f"^initial value {message}$"):
            _model(kind, p, initial_value=bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("scale", [np.nan, np.inf, 0.0, -1.0, True, "1", "x", 1j])
    def test_scale_must_be_positive_and_finite(self, kind, scale):
        # a value that is not a real number prints as its repr: "1", not 1
        message = f"scale must be positive and finite, got {scale!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_params(kind, 3, derive_stream(0, (0,)), scale=scale)

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    @pytest.mark.parametrize("d", [0, -2, 2.0, True, "3"])
    def test_d_must_be_a_positive_integer(self, kind, d):
        # refused before the draw, which at d = 0 would divide by a zero norm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = (f"d must be >= 1, got {d}" if type(d) is int
                       else f"d must be an integer, got {d!r}")
            with pytest.raises(ValueError, match=re.escape(message)):
                random_params(kind, d, derive_stream(0, (0,)))

    @pytest.mark.parametrize("kind", ["ou", "kuramoto"])
    def test_peak_is_the_family_plus_a_few_slabs(self, kind):
        # the family is drawn one (d, d) slab at a time into its buffer; OU
        # also holds A1, A2 and b while it is drawn. Drawing it whole would
        # add a second family
        d = 60
        family, slab = 8 * d**3, 8 * d * d
        bound = family + 6 * slab
        tracemalloc.start()
        try:
            random_params(kind, d, derive_stream(0, (0,)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak - family) / slab

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_family_rejected(self, bad):
        d = 3
        P = np.zeros((d, d, d))
        P[1, 2, 0] = bad
        zeros = np.zeros((d, d))
        with pytest.raises(ValueError, match="non-finite"):
            KuramotoParams(mu0=0.5, Sigma=P)
        with pytest.raises(ValueError, match="B contains non-finite"):
            OuParams(a0=np.zeros(d), A1=zeros, A2=zeros, b=zeros, B=P)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field", ["a0", "A1", "A2", "b", "B", "Sigma"])
    @pytest.mark.parametrize("make, message", [
        # a float conversion would read these as their real part, 0 or 1, and a number
        (lambda shape: np.ones(shape) + 1j, "must be real, got dtype complex128"),
        (lambda shape: np.ones(shape, dtype=bool), "must be real, got dtype bool"),
        (lambda shape: np.full(shape, "1"), "must be real, got dtype <U1"),
        (lambda shape: np.full(shape, np.nan), "contains non-finite entries"),
        (lambda shape: [[1], [1, 2]], "is a ragged sequence, not an array of one shape"),
    ], ids=["complex", "bool", "str", "nan", "ragged"])
    def test_params_field_must_be_real_and_finite(self, field, make, message):
        with pytest.raises(ValueError, match=f"^{field} {message}$"):
            _params_with(field, make(_FIELD_SHAPES[field]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field, shape, message", [
        ("a0", (), "a0 has shape (), expected (d,)"),
        ("a0", (3, 1), "a0 has shape (3, 1), expected (d,)"),
        ("A1", (3, 4), "A1 has shape (3, 4), expected (3, 3)"),
        ("A2", (4, 3), "A2 has shape (4, 3), expected (3, 3)"),
        ("b", (3,), "b has shape (3,), expected (3, 3)"),
        ("B", (3, 3, 4), "B has shape (3, 3, 4), expected (3, 3, 3)"),
        ("Sigma", (3, 3, 4), "Sigma must have shape (d, d, d), got (3, 3, 4)"),
    ], ids=["a0-0d", "a0-2d", "A1", "A2", "b", "B", "Sigma"])
    def test_params_field_shape_checked(self, field, shape, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _params_with(field, np.zeros(shape))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu0, message", [
        (True, "mu0 must be a real number, got True"),
        (np.True_, r"mu0 must be a real number, got (np\.True_|True)"),
        (1j, "mu0 must be a real number, got 1j"),
        ("0.5", "mu0 must be a real number, got '0.5'"),
        (np.nan, "mu0 must be finite, got nan"),
    ], ids=["bool", "numpy-bool", "complex", "str", "nan"])
    def test_mu0_must_be_a_finite_real_number(self, mu0, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _params_with("mu0", mu0)

    def test_list_fields_are_read_as_float(self):
        p = OuParams(a0=[1, 2, 3], A1=np.eye(3, dtype=int), A2=np.zeros((3, 3)),
                     b=np.zeros((3, 3)), B=np.zeros((3, 3, 3)))
        assert p.a0.dtype == p.A1.dtype == float
        np.testing.assert_array_equal(p.a0, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ou_drift(p, np.zeros(3), np.ones(3)), [1.0, 2.0, 3.0])


class TestModelSpec:
    def test_default_initial_values(self):
        ou = ou_model(random_params("ou", 3, derive_stream(1, (0,))))
        ku = kuramoto_model(random_params("kuramoto", 3, derive_stream(1, (0,))))
        np.testing.assert_array_equal(ou.initial_value, np.full(3, 20.0))
        np.testing.assert_array_equal(ku.initial_value, np.full(3, 10.0))

    def test_default_cost_units(self):
        units = default_cost_units(7)
        assert (units.cost_mu, units.cost_sigma, units.cost_rv) == (49, 49, 1)

    def test_model_lipschitz_holds_sampled(self):
        p = random_params("ou", 4, derive_stream(12, (0,)))
        model = ou_model(p)
        # the Hilbert-Schmidt bound: HS norms dominate the operator norms
        hs = max(np.linalg.norm(p.A1), np.linalg.norm(p.A2), np.linalg.norm(p.B))
        c = max(1.0, 2.0 * hs)
        rng = np.random.default_rng(13)
        for _ in range(100):
            x1, x2, y1, y2 = rng.normal(scale=4, size=(4, 4))
            gap = max(
                np.linalg.norm(model.drift(x1, x2) - model.drift(y1, y2)),
                np.linalg.norm(model.diffusion(x1, x2) - model.diffusion(y1, y2)),
            )
            bound = 0.5 * c * np.linalg.norm(x1 - y1) + 0.5 * c * np.linalg.norm(x2 - y2)
            assert gap <= bound + 1e-12
