"""Mean-field model abstraction and the two benchmark models.

A model is a pair of two-argument coefficients: a drift mu(x1, x2) mapping
two d-vectors to a d-vector and a diffusion sigma(x1, x2) mapping them to
a d x d matrix whose column k multiplies the k-th Brownian component. Both
benchmark coefficients take any (..., d) array of states; a diffusion call
reads it as its (rows, d) reshape.

Layout: each (d, d, d) diffusion family P[k, i, j] (OuParams.B,
KuramotoParams.Sigma) is a view of one C-contiguous (d+1, d*d) GEMM
operand: P's rows indexed [j, (k, i)], then the offset in [k, i] order as
the last row (OU's b, of which OuParams.b is a view; all zeros for
Kuramoto). `random_params` draws the family one k-slab at a time straight
into that buffer, so the family is never held twice. Both diffusions are
one affine kernel, offset + P x: a general call is one product of
[x | 1], so the offset is a term of the product's sums and no pass adds
it after. One rule is decided per call: a call whose rows are all zero
(U_0: the estimator's base call and its lo half at l = 1) returns
sigma(0), the view of the offset row, and a Kuramoto call whose rows are
all xi (its constant U_1 = xi, the hi half at l = 1) returns the
sigma(xi) the model makes once when it is built, each as a read-only
view of one C-contiguous (d, d) matrix with zero leading strides, made
directly on the matrix's buffer. Any other call is one GEMM of all its
rows. A caller only reads a coefficient's result; the estimator
contracts a zero-stride result as one product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .numerics import integer, real_array, real_number
from .randomness import RandomStream

# the model names every front end accepts
MODELS = ("ou", "kuramoto")


@dataclass(frozen=True)
class CostUnits:
    """Unit costs of one drift eval, one diffusion eval, one scalar draw."""

    cost_mu: int
    cost_sigma: int
    cost_rv: int

    def __post_init__(self) -> None:
        # the cost recursion is exact integer arithmetic
        for name in ("cost_mu", "cost_sigma", "cost_rv"):
            object.__setattr__(self, name, integer(getattr(self, name), name, 0))


def default_cost_units(d: int) -> CostUnits:
    # a matrix-vector product dominates each coefficient evaluation
    return CostUnits(cost_mu=d * d, cost_sigma=d * d, cost_rv=1)


@dataclass(frozen=True)
class OuParams:
    """Parameters of the mean-field Ornstein-Uhlenbeck model.

    `b` stores the diffusion offset vectors as columns (b[:, k] is the k-th
    offset); `B[k]` is the matrix applied to the mean-field argument in
    column k. Both are views of `operand`, the diffusion's one
    C-contiguous (d+1, d*d) GEMM operand: B's [j, (k, i)] rows, then b's
    [k, i] row, so the family is held once.
    """

    a0: np.ndarray      # (d,)
    A1: np.ndarray      # (d, d)
    A2: np.ndarray      # (d, d)
    b: np.ndarray       # (d, d), column k = b_k
    B: np.ndarray       # (d, d, d), B[k] = B_k
    operand: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a0", real_array(self.a0, "a0"))
        if self.a0.ndim != 1:
            raise ValueError(f"a0 has shape {self.a0.shape}, expected (d,)")
        d = len(self.a0)
        for name, want in (("A1", (d, d)), ("A2", (d, d)), ("b", (d, d)), ("B", (d, d, d))):
            object.__setattr__(self, name, real_array(getattr(self, name), name, want))
        op = _operand(self.B, self.b)
        B, b = _views(op)
        object.__setattr__(self, "operand", op)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)

    @property
    def d(self) -> int:
        return self.a0.shape[0]


@dataclass(frozen=True)
class KuramotoParams:
    """Parameters of the multidimensional geometric Kuramoto model.

    `Sigma` is a view of `operand`, the diffusion's (d+1, d*d) GEMM operand
    laid out as OU's, whose offset row is all zeros.
    """

    mu0: float
    Sigma: np.ndarray   # (d, d, d), Sigma[k] applied to x1 in column k
    operand: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu0", real_number(self.mu0, "mu0"))
        Sigma = real_array(self.Sigma, "Sigma")
        if Sigma.ndim != 3 or len(set(Sigma.shape)) != 1:
            raise ValueError(f"Sigma must have shape (d, d, d), got {Sigma.shape}")
        op = _operand(Sigma, np.zeros(Sigma.shape[1:]))
        object.__setattr__(self, "operand", op)
        object.__setattr__(self, "Sigma", _views(op)[0])

    @property
    def d(self) -> int:
        return self.Sigma.shape[0]


def _check_dim(x: np.ndarray, d: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != d:
        raise ValueError(f"{name} has trailing dimension {x.shape[-1]}, expected {d}")
    return x


def ou_drift(p: OuParams, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """a0 + A1 x1 + A2 x2, broadcasting over leading dimensions."""
    x1 = _check_dim(x1, p.d, "x1")
    x2 = _check_dim(x2, p.d, "x2")
    # summed into the first product in place: the same sums, in the same order
    out = x1 @ p.A1.T
    out += p.a0
    return np.add(out, x2 @ p.A2.T, out=out if x1.shape == x2.shape else None)


def _operand(P: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """The C-contiguous (d+1, d*d) operand: P's [j, (k, i)] rows, then the offset's [k, i] row.

    P's own buffer when P is its `_views` family and its offset row holds
    `offset` bit for bit (as `random_params` draws them and the params hold
    them), else a new one.
    """
    d = len(P)
    op = P.base
    if not (isinstance(op, np.ndarray) and op.shape == (d + 1, d * d) and op.flags.c_contiguous
            and _views(op)[0].__array_interface__ == P.__array_interface__
            and _views(op)[1].tobytes() == offset.tobytes()):
        op = np.empty((d + 1, d * d))
        family, op_offset = _views(op)
        family[...] = P
        op_offset[...] = offset
    return op


def _views(op: np.ndarray) -> tuple:
    """The family P (d, d, d) and the offset (d, d), the views of a (d+1, d*d) operand."""
    d = len(op) - 1
    return op[:d].reshape(d, d, d).transpose(1, 2, 0), op[d].reshape(d, d).T


def _stacked_apply(op: np.ndarray, x: np.ndarray, known: tuple = ()) -> np.ndarray:
    """[..., k, i] = offset[k, i] + sum_j P[k, i, j] x[..., j], as one BLAS GEMM.

    `op` is the params' operand, the contiguous buffer BLAS packs fastest:
    P's (d, d*d) [j, (k, i)] rows, then the offset's [k, i] row, against
    which a call multiplies [x | 1], so the offset is a term of each sum
    and no pass adds it after the product. Callers return the swapped
    view, the [i, k] layout, and swap back to work on the faster
    contiguous [k, i] layout (a contraction with increments) without a copy.

    Any (..., d) input is read as its (rows, d) reshape. One decision per
    call: all-zero rows return sigma(0), the offset row's view, and rows
    all equal to the state of a `known` (state, (d, d) matrix) pair return
    its matrix, each as a read-only view with zero leading strides made
    directly on the matrix's buffer, which must be C-contiguous; any other
    call is one product of all its rows. The estimator's hi and lo halves
    are one K-row call each, so U_0 = 0 at l = 1 (and the base call
    sigma(0, 0)) and Kuramoto's U_1 = xi are whole calls. BLAS bits depend
    on the number of rows per call. A constant stays a (d, d) matrix: a
    product against a view of a scalar (all strides zero) skips BLAS.
    """
    d = x.shape[-1]
    lead = x.shape[:-1]
    x = x.reshape(-1, d)
    for state, matrix in ((0.0, op[d].reshape(d, d)), *known):
        # the last row screens out a general call at one d-wide compare
        if not (np.count_nonzero(x[-1:] != state) or np.count_nonzero(x != state)):
            # np.broadcast_to makes the same view at several times the cost
            view = np.ndarray(lead + (d, d), float, matrix, 0, (0,) * len(lead) + matrix.strides)
            view.flags.writeable = False
            return view
    augmented = np.empty((len(x), d + 1))
    augmented[:, :d] = x
    augmented[:, d] = 1.0
    return np.matmul(augmented, op).reshape(lead + (d, d))


def _initial_value(xi: Optional[np.ndarray], d: int, default: float) -> np.ndarray:
    return np.full(d, default) if xi is None else real_array(xi, "initial value", (d,))


def ou_diffusion(p: OuParams, x2: np.ndarray) -> np.ndarray:
    """Matrix with column k = b_k + B_k x2; independent of x1."""
    x2 = _check_dim(x2, p.d, "x2")
    return _stacked_apply(p.operand, x2).swapaxes(-1, -2)


def kuramoto_drift(p: KuramotoParams, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Componentwise mu0 * sin(x1 - x2)."""
    x1 = _check_dim(x1, p.d, "x1")
    x2 = _check_dim(x2, p.d, "x2")
    return p.mu0 * np.sin(x1 - x2)


def kuramoto_diffusion(p: KuramotoParams, x1: np.ndarray, known: tuple = ()) -> np.ndarray:
    """Matrix with column k = Sigma_k x1; independent of x2."""
    x1 = _check_dim(x1, p.d, "x1")
    return _stacked_apply(p.operand, x1, known).swapaxes(-1, -2)


def random_params(
    model_kind: str,
    d: int,
    stream: RandomStream,
    scale: float = 0.25,
    mu0: float = 0.5,
):
    """Randomly initialized, norm-controlled parameters.

    Entries are i.i.d. uniform on [-1, 1]; every matrix is rescaled to
    Hilbert-Schmidt norm `scale` and every vector to Euclidean norm
    `scale`. Diffusion families are rescaled jointly so the root of the
    summed squared HS norms equals `scale`. This gives a d-independent
    upper bound on the Lipschitz constants, not a fixed value: the
    realised operator norms of the drawn matrices (and of B as the
    d*d x d map x2 -> vec sigma) fall roughly like d**-0.5, so at fixed
    `scale` a larger d is a more weakly coupled problem.
    """
    d = integer(d, "d", 1)
    scale = real_number(scale, "scale", positive=True)

    def u(shape):
        # 2 v - 1 in place: the same bits as the expression, one array
        draw = stream.uniforms(shape)
        draw *= 2.0
        draw -= 1.0
        return draw

    def scaled(arr, target):
        # in place, the norm summed by einsum's own loop in buffer order:
        # no BLAS call, so no dependence on the BLAS thread count
        flat = arr.reshape(-1)
        nrm = float(np.sqrt(np.einsum("i,i->", flat, flat)))
        if nrm == 0.0:
            raise ValueError("degenerate zero draw")
        arr *= target / nrm
        return arr

    if model_kind not in MODELS:
        raise ValueError(f"unknown model {model_kind!r}")
    op = np.empty((d + 1, d * d))
    op[d] = 0.0
    if model_kind == "ou":
        a0, A1, A2 = (scaled(u(shape), scale) for shape in (d, (d, d), (d, d)))
        # the offsets b_k first, into the operand's last row in [k, i] order
        for b_k in op[d].reshape(d, d):
            b_k[...] = scaled(u(d), scale)
    # the [k, i, j] family, one k-slab at a time (the same words in the
    # same order as one draw), each written through the family's view into
    # the operand, then scaled over the contiguous rows: the peak is the
    # operand plus one slab
    P = _views(op)[0]
    for k in range(d):
        P[k] = u((d, d))
    scaled(op[:d], scale)
    if model_kind == "kuramoto":
        return KuramotoParams(mu0=mu0, Sigma=P)
    return OuParams(a0=a0, A1=A1, A2=A2, b=op[d].reshape(d, d).T, B=P)


@dataclass(frozen=True)
class ModelSpec:
    """A concrete McKean-Vlasov model: initial value, coefficients, costs.

    A coefficient's result belongs to the model: callers read it and never
    write into it. A diffusion result may be a read-only view (a constant
    call's one (d, d) matrix over its rows, with zero leading strides).
    """

    name: str
    d: int
    initial_value: np.ndarray
    drift: Callable[[np.ndarray, np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray, np.ndarray], np.ndarray]
    unit_costs: CostUnits
    params: object = field(default=None, repr=False)


def ou_model(
    p: OuParams,
    initial_value: Optional[np.ndarray] = None,
    unit_costs: Optional[CostUnits] = None,
) -> ModelSpec:
    d = p.d
    xi = _initial_value(initial_value, d, 20.0)
    return ModelSpec(
        name="ou",
        d=d,
        initial_value=xi,
        drift=lambda x1, x2: ou_drift(p, x1, x2),
        diffusion=lambda x1, x2: ou_diffusion(p, x2),
        unit_costs=unit_costs or default_cost_units(d),
        params=p,
    )


def kuramoto_model(
    p: KuramotoParams,
    initial_value: Optional[np.ndarray] = None,
    unit_costs: Optional[CostUnits] = None,
) -> ModelSpec:
    d = p.d
    xi = _initial_value(initial_value, d, 10.0)
    # U_1 = xi makes every l = 1 hi call all xi: its matrix, made once as a
    # C-contiguous one-row product, which the diffusion returns as a direct view
    known = ((xi, _stacked_apply(p.operand, xi)),)
    return ModelSpec(
        name="kuramoto",
        d=d,
        initial_value=xi,
        drift=lambda x1, x2: kuramoto_drift(p, x1, x2),
        diffusion=lambda x1, x2: kuramoto_diffusion(p, x1, known),
        unit_costs=unit_costs or default_cost_units(d),
        params=p,
    )
