"""Block-structured problem data for penalised composite minimisation.

The model is

    minimize   Psi(x) = sum_i phi_i(x_i) + sum_i r_i(x_i)
    over       x in argmin_z 0.5 * ||A z - b||^2

with the variable split into ``d`` coordinate blocks, ``phi_i`` smooth convex
with a known per-block curvature bound, ``r_i`` proper convex and proximable,
and ``A`` stored as column blocks ``A_1 .. A_d``.  The right-hand side ``b``
need not lie in the range of ``A``; in that case the coupling is enforced only
in the least-squares sense and the attainable penalty minimum ``h*`` is
strictly positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._lapack import lapack
from .errors import InfeasibleInstance

Array = np.ndarray


def _count(name: str, value, low: int = 1) -> int:
    """``value`` as an int, or ``ValueError`` naming it when it is not an
    integer (a bool is not) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


@dataclass(frozen=True)
class BlockStructure:
    """Decomposition of R^m into d contiguous coordinate blocks."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims:
            raise ValueError("dims must hold at least one block dimension")
        object.__setattr__(self, "dims", tuple(_count("dims", n) for n in self.dims))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(np.concatenate([[0], np.cumsum(self.dims)]).tolist())

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        """The d block slices of a length-m vector, built once."""
        return tuple(slice(a, b) for a, b in zip(self.offsets[:-1], self.offsets[1:]))

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def m(self) -> int:
        return self.offsets[-1]

    def block_slice(self, i: int) -> slice:
        return self.slices[i]

    def expand(self, per_block: Sequence[float]) -> Array:
        """Repeat one scalar per block into a length-m vector."""
        return np.repeat(np.asarray(per_block, dtype=float), self.dims)

    @cached_property
    def _size_groups(self) -> tuple["_SizeGroup", ...]:
        """The blocks grouped by dimension, one group per distinct size in
        order of first appearance, so per-block set-up work runs as one
        stacked call per size rather than one call per block."""
        order: dict[int, list[int]] = {}
        for i, n in enumerate(self.dims):
            order.setdefault(n, []).append(i)
        groups = []
        for n, ids in order.items():
            first, last = ids[0], ids[-1]
            if last - first + 1 == len(ids):
                blocks = slice(first, last + 1)
                cols = slice(self.offsets[first], self.offsets[last + 1])
            else:
                blocks = np.array(ids, dtype=np.intp)
                cols = (np.asarray(self.offsets)[blocks][:, None] + np.arange(n)).ravel()
            groups.append(_SizeGroup(n, tuple(ids), blocks, cols))
        return tuple(groups)


class _SizeGroup(NamedTuple):
    """The blocks ``ids`` of one dimension ``n``, ascending.  ``blocks``
    indexes a length-d array and ``cols`` a length-m one at those blocks:
    slices when the blocks are contiguous, as on every generator instance,
    and index arrays otherwise."""

    n: int
    ids: tuple[int, ...]
    blocks: slice | Array
    cols: slice | Array

    def take(self, arr: Array) -> Array:
        """The group's row slabs of ``arr`` (leading dimension m) stacked
        (len(ids), n, ...), for reading only: a view when the blocks are
        contiguous, else a copy, so a write to it may not reach ``arr``."""
        return arr[self.cols].reshape(len(self.ids), self.n, *arr.shape[1:])


@dataclass(frozen=True)
class SmoothBlock:
    """Differentiable convex term on one block.

    ``lam`` is the curvature bound: a symmetric PSD (n, n) matrix so that
    the quadratic upper model
    ``phi(x+t) <= phi(x) + <grad phi(x), t> + 0.5 * t' lam t`` holds.
    """

    value: Callable[[Array], float]
    grad: Callable[[Array], Array]
    lam: Array

    @staticmethod
    def zero(dim: int) -> "SmoothBlock":
        return SmoothBlock(lambda x: 0.0, lambda x: np.zeros(dim), np.zeros((dim, dim)))

    @staticmethod
    def quadratic(h: Array, c: Array) -> "SmoothBlock":
        """phi(x) = 0.5 x'Hx + c'x with exact curvature matrix H, which must
        be square, finite and symmetric to 1e-12 of its largest entry (the
        gradient Hx + c is that of the value only for a symmetric H), with
        c of length n (``ValueError`` otherwise)."""
        h, c = np.asarray(h, dtype=float), np.asarray(c, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or not np.isfinite(h).all():
            raise ValueError(f"H must be a finite square matrix, got shape {h.shape}")
        if not np.max(np.abs(h - h.T), initial=0.0) <= 1e-12 * np.max(np.abs(h), initial=0.0):
            raise ValueError("H must be symmetric: 0.5 x'Hx has gradient 0.5 (H + H')x")
        if c.shape != (h.shape[0],):
            raise ValueError(f"c has shape {c.shape}, expected ({h.shape[0]},)")
        quad = _Quadratic(h, c)
        return SmoothBlock(quad.value, quad.grad, quad.h)


@dataclass(frozen=True, eq=False, slots=True)
class _Quadratic:
    """The oracles of phi(x) = 0.5 x'hx + c'x.  A block whose value and
    grad are both bound to one instance is exactly this quadratic, which
    lets :class:`ProblemSpec` evaluate all such blocks of one size at once;
    a block whose oracle was replaced is not recognised."""

    h: Array
    c: Array

    def value(self, x: Array) -> float:
        return 0.5 * float(x.dot(self.h.dot(x))) + float(self.c.dot(x))

    def grad(self, x: Array) -> Array:
        return self.h.dot(x) + self.c


@dataclass(frozen=True)
class ProxBlock:
    """Proximable convex term on one block.

    ``prox(gamma, v)`` returns ``argmin_u r(u) + 0.5 * ||u - v||^2_diag(gamma)``
    where ``gamma`` is the (positive) diagonal of the block metric.  ``mu`` is
    the strong-convexity modulus of ``r`` (0 for merely convex terms).
    ``coordinatewise`` marks a ``prox`` that acts on each coordinate alone
    and alike, so one call on a concatenation of blocks equals the
    concatenation of the per-block calls.  ``center`` is set only when r is
    exactly mu/2 ||x - center||^2 (a scalar or a length-n array).
    """

    value: Callable[[Array], float]
    prox: Callable[[Array, Array], Array]
    mu: float = 0.0
    coordinatewise: bool = False
    center: float | Array | None = None


def _read_only(x: Array) -> Array:
    x.flags.writeable = False
    return x


def _owned_read_only(x) -> Array:
    """``x`` when it is a read-only, column-major float64 array that owns
    its data; otherwise a read-only copy of it in that form."""
    if (
        type(x) is np.ndarray
        and x.flags.owndata
        and x.dtype == np.float64
        and x.flags.f_contiguous
        and not x.flags.writeable
    ):
        return x
    return _read_only(np.array(x, dtype=float, order="F"))


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable problem instance.  Shared read-only use is safe, except
    that no two runs may step one grid problem at once: each
    ``PpdlmpEngine.step`` lends its run's projection session to the operator
    projector the problem shares through ``meta["dso_projector"]``.

    All oracles must be pure functions of their inputs.  ``a`` is the whole
    q-by-m coupling matrix A, kept as one read-only, column-major float64
    array; ``a_blocks`` are its column slabs A_1 .. A_d at the block
    offsets, each a contiguous view, so the per-block products ``A_i' r``
    and ``A_i t`` run on contiguous memory.  ``b`` is kept the same way, as
    a read-only float64 vector.  An ``a`` or ``b`` that already is such an
    array and owns its data, as the ones a ``dataclasses.replace`` copy
    passes, is kept as it is; any other is copied once, so a later write to
    it does not reach the problem.  The cached arrays are read-only too.  A
    non-finite entry of A or b is rejected, naming which.
    """

    blocks: BlockStructure
    smooth: tuple[SmoothBlock, ...]
    prox: tuple[ProxBlock, ...]
    a: Array
    b: Array
    meta: dict = field(default_factory=dict, compare=False)
    a_blocks: tuple[Array, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "smooth", tuple(self.smooth))
        object.__setattr__(self, "prox", tuple(self.prox))
        a, b = _owned_read_only(self.a), _owned_read_only(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not len(self.smooth) == len(self.prox) == self.blocks.d:
            raise ValueError("per-block sequences must all have length d")
        if b.ndim != 1:
            raise ValueError(f"b must be a vector, got an array of shape {b.shape}")
        if a.ndim != 2 or a.shape[1] != self.blocks.m:
            raise ValueError(f"A has shape {a.shape}, expected {self.blocks.m} columns")
        if a.shape[0] != self.q:
            raise ValueError(f"b has length {self.q} but A has {a.shape[0]} rows")
        for name, arr in (("A", a), ("b", b)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} holds a value that is not finite")
        object.__setattr__(self, "a_blocks", tuple(a[:, sl] for sl in self.blocks.slices))

    @property
    def q(self) -> int:
        return self.b.shape[0]

    @property
    def m(self) -> int:
        return self.blocks.m

    @property
    def d(self) -> int:
        return self.blocks.d

    @cached_property
    def block_sq_norms(self) -> Array:
        """Per-block squared spectral norms lambda_i = ||A_i||_2^2, one
        singular-value call per block size on the stacked A_i (q = 0 gives
        0)."""
        out = np.zeros(self.d)
        if self.q:
            for g in self.blocks._size_groups:
                s = np.linalg.svd(g.take(self.a.T).transpose(0, 2, 1), compute_uv=False)
                out[g.blocks] = s[:, 0] ** 2
        return _read_only(out)

    @cached_property
    def gram(self) -> Array:
        """The read-only m-by-m Gram matrix A'A, formed once per problem:
        both step certificates scale it into Xi, and the references factor
        it when q >= m (a wide instance's references factor AA' instead)."""
        return _read_only(self.a.T @ self.a)

    @cached_property
    def lam_stacks(self) -> tuple[Array, ...]:
        """The curvature matrices Lam_i stacked (len(ids), n, n), one stack
        per entry of ``blocks._size_groups``; the per-block curvature and
        both step certificates read them."""
        return tuple(
            _read_only(np.stack([self.smooth[i].lam for i in g.ids]))
            for g in self.blocks._size_groups
        )

    @cached_property
    def smooth_lipschitz(self) -> Array:
        """Per-block scalar curvature bounds L_i = lammax(Lam_i), one
        eigenvalue call per block size."""
        out = np.empty(self.d)
        for g, lam in zip(self.blocks._size_groups, self.lam_stacks):
            out[g.blocks] = np.linalg.eigvalsh(lam).max(axis=1)
        return _read_only(out)

    @cached_property
    def derived(self) -> dict:
        """Results other modules compute from this problem's data alone
        (the references' Gram factors), kept here so each is made once per
        problem; a ``dataclasses.replace`` copy starts empty."""
        return {}

    @cached_property
    def mu_vector(self) -> Array:
        """Length-m diagonal of the strong-convexity matrix of R."""
        return _read_only(self.blocks.expand([p.mu for p in self.prox]))

    # -- value / gradient oracles ------------------------------------------

    @cached_property
    def _quadratics(self) -> tuple[_Quadratic, ...] | None:
        """Each smooth block's :class:`_Quadratic`, when every block still
        has all three oracles that :meth:`SmoothBlock.quadratic` built (so
        H_i is ``lam``); None otherwise."""
        quads = tuple(getattr(blk.grad, "__self__", None) for blk in self.smooth)
        if all(isinstance(quad, _Quadratic) and blk.value == quad.value and blk.lam is quad.h
               for quad, blk in zip(quads, self.smooth)):
            return quads
        return None

    @cached_property
    def quadratic_c(self) -> Array | None:
        """The read-only c of Psi(x) = 0.5 x'(H + D)x + c'x + const with H =
        blockdiag(Lam_i), D = diag(mu_vector): c_i less mu_i center_i.  None
        unless every smooth block is a :meth:`SmoothBlock.quadratic` and
        every prox states its ``center``: the one test of being quadratic."""
        quads = self._quadratics
        if quads is None or any(blk.center is None for blk in self.prox):
            return None
        c = np.concatenate([quad.c - blk.mu * blk.center for quad, blk in zip(quads, self.prox)])
        return _read_only(c)

    @cached_property
    def _quadratic_stack(self) -> tuple[Array, Array] | None:
        """Every smooth block's H stacked (d, n, n), the one entry of
        :attr:`lam_stacks`, and c as one length-m vector, when every block
        is a :meth:`SmoothBlock.quadratic` and all blocks have one
        dimension n; None otherwise."""
        if self._quadratics is None or len(set(self.blocks.dims)) > 1:
            return None
        c = np.concatenate([quad.c for quad in self._quadratics])
        return self.lam_stacks[0], _read_only(c)

    @cached_property
    def _shared_prox(self) -> Callable[[Array, Array], Array] | None:
        """The one coordinatewise prox callable every block shares, if any."""
        f = self.prox[0].prox
        if all(blk.prox is f and blk.coordinatewise for blk in self.prox):
            return f
        return None

    def psi_block(self, i: int, xi: Array) -> float:
        return float(self.smooth[i].value(xi)) + float(self.prox[i].value(xi))

    # The whole-vector oracles below take one NumPy pass where the blocks
    # allow it (stacked quadratics, a shared coordinatewise prox) and loop
    # over the blocks otherwise; both give the same bits.  The batched
    # products reach the per-block BLAS calls, and the block values are
    # summed in block order.

    def phi(self, x: Array) -> float:
        quad = self._quadratic_stack
        if quad is None:
            return sum(
                float(blk.value(x[sl])) for sl, blk in zip(self.blocks.slices, self.smooth)
            )
        h, c = quad
        d, n, _ = h.shape
        col = x.reshape(d, n, 1)
        vals = 0.5 * np.matmul(x.reshape(d, 1, n), np.matmul(h, col))
        vals += np.matmul(c.reshape(d, 1, n), col)
        return sum(vals.ravel().tolist())

    def grad_phi(self, x: Array) -> Array:
        quad = self._quadratic_stack
        if quad is None:
            out = np.empty(self.m)
            for sl, blk in zip(self.blocks.slices, self.smooth):
                out[sl] = blk.grad(x[sl])
            return out
        h, c = quad
        d, n, _ = h.shape
        out = np.matmul(h, x.reshape(d, n, 1)).reshape(self.m)
        out += c
        return out

    def r_value(self, x: Array) -> float:
        total = 0.0
        for sl, blk in zip(self.blocks.slices, self.prox):
            v = float(blk.value(x[sl]))
            if not math.isfinite(v):
                return math.inf
            total += v
        return total

    def prox_r(self, gamma: Array, v: Array) -> Array:
        """Blockwise weighted prox of R in the diagonal metric ``gamma``."""
        out = np.empty(self.m)
        f = self._shared_prox
        if f is not None:
            out[:] = f(gamma, v)
            return out
        for sl, blk in zip(self.blocks.slices, self.prox):
            out[sl] = blk.prox(gamma[sl], v[sl])
        return out


def eval_psi(p: ProblemSpec, x: Array) -> float:
    """Full objective value; +inf outside dom R."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.m,):
        raise ValueError(f"x has shape {x.shape}, expected ({p.m},)")
    r = p.r_value(x)
    if not np.isfinite(r):
        return math.inf
    return p.phi(x) + r


def kkt_residual(p: ProblemSpec, x: Array, y: Array, r: Array) -> float:
    """Sup-norm residual of the saddle conditions for L(x,y) = Psi(x) + <y, Ax-b>.

    The primal part is the unit-metric prox-gradient residual
    ``||x - prox_R(x - (grad Phi(x) + A'y))||_inf``; the dual part is
    ``||r||_inf`` for the residual ``r = Ax - b``, which the caller passes
    (trace rows pass the one the engines maintain, whose drift is bounded
    by the ``solver.REFRESH_EVERY`` steps between refreshes), so A'y is the
    one product over A here.  The dual variable lives in R^q, pairing with the
    raw residual ``Ax - b`` (not with the normal equations); it can only
    vanish on consistent instances.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # grad_phi, prox_r and the matvec return fresh arrays, so every update
    # after them is in place
    g = p.grad_phi(x)
    g += p.a.T.dot(y)
    np.subtract(x, g, out=g)
    xp = p.prox_r(np.ones(p.m), g)
    xp -= x
    primal = float(abs(xp).max()) if p.m else 0.0
    dual = float(abs(r).max()) if p.q else 0.0
    return max(primal, dual)


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def _connected(n_nodes: int, edges: Sequence[tuple[int, int]]) -> bool:
    adj = {v: set() for v in range(n_nodes)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n_nodes


def make_consensus(
    edges: Sequence[tuple[int, int]], local_fns: Sequence[ProxBlock]
) -> ProblemSpec:
    """Agreement problem over an undirected connected graph, one scalar
    block per node.

    The coupling matrix is the edge-node incidence matrix (one signed row
    per edge), whose kernel is exactly the constant vectors.  It shares
    that kernel with the graph Laplacian while keeping the row count at
    |edges| and improving conditioning.
    """
    n = len(local_fns)
    if n == 0:
        raise ValueError("consensus needs at least one node")
    edges = [(_count("edges", u, 0), _count("edges", v, 0)) for u, v in edges]
    if any(u == v or max(u, v) >= n for u, v in edges):
        raise ValueError("edge endpoints must be distinct node indices")
    if not _connected(n, edges):
        raise InfeasibleInstance(
            "graph is disconnected: agreement across components is not enforceable"
        )
    if not edges:
        raise ValueError("consensus needs an edge: one node has nothing to agree with")
    a = np.zeros((len(edges), n))
    for e, (u, v) in enumerate(edges):
        a[e, u], a[e, v] = 1.0, -1.0
    return ProblemSpec(
        blocks=BlockStructure((1,) * n),
        smooth=tuple(SmoothBlock.quadratic(np.zeros((1, 1)), np.zeros(1)) for _ in range(n)),
        prox=tuple(local_fns),
        a=a,
        b=np.zeros(len(edges)),
    )


def make_model_fitting(
    k_matrix: Array,
    b: Array,
    losses: Sequence[SmoothBlock],
    regularizers: Sequence[ProxBlock],
) -> ProblemSpec:
    """Separable-loss fitting in lifted form.

    The variable is x = (u, v) in R^(p+q) with one scalar block per
    coordinate; the coupling reads A x = K u - v, so feasibility ties v to the
    model outputs.  Losses act on the v-part, regularizers on the u-part.
    """
    k_matrix = np.asarray(k_matrix, dtype=float)
    b = np.asarray(b, dtype=float)
    q, p_feat = k_matrix.shape
    if b.shape != (q,):
        raise ValueError("response vector length must match the row count of K")
    if len(losses) != q or len(regularizers) != p_feat:
        raise ValueError("need one loss per response and one regularizer per feature")
    zero_prox = ProxBlock(lambda x: 0.0, lambda g, v: v, 0.0)
    smooth = tuple(SmoothBlock.zero(1) for _ in range(p_feat)) + tuple(losses)
    prox = tuple(regularizers) + tuple(zero_prox for _ in range(q))
    return ProblemSpec(
        blocks=BlockStructure(tuple([1] * (p_feat + q))),
        smooth=smooth,
        prox=prox,
        a=np.hstack([k_matrix, -np.eye(q)]),
        b=b,
    )


def _range_complement(a: Array, span: Array, v: Array) -> Array:
    """The component of ``v`` orthogonal to range(``a``), given a factor
    ``span`` with the same range (A itself, or G1 of A = G1 G2).

    When ``span`` has at least as many columns as rows, that range is all
    of R^q and the component is 0.  Otherwise one Householder QR of
    ``span`` (LAPACK ``geqrf``) gives v - Q Q'v = Q [0; (Q'v)_2], applied
    by two ``ormqr`` calls without forming Q.  When
    min |R_ii| < 1e-12 max |R_ii|, the relative cut-off of the SVD rank,
    ``span`` may have lost rank and the projection falls back to a thin
    SVD of ``a`` (:func:`_svd_range_complement`)."""
    q, k = span.shape
    if k >= q:
        return np.zeros(q)
    lwork, _ = lapack.dgeqrf_lwork(q, k)
    qr, tau, _, _ = lapack.dgeqrf(np.array(span, order="F"), lwork=int(lwork), overwrite_a=1)
    r_diag = np.abs(qr.diagonal())
    if not r_diag.min() >= 1e-12 * r_diag.max():
        return _svd_range_complement(a, v)
    # one column: lwork = 1 keeps ormqr on its unblocked reflector loop,
    # O(q k) with no block reflector to form
    c, _, _ = lapack.dormqr("L", "T", qr, tau, v[:, None], 1)
    c[:k] = 0.0
    c, _, _ = lapack.dormqr("L", "N", qr, tau, c, 1, overwrite_c=1)
    return c[:, 0]


def _svd_range_complement(a: Array, v: Array) -> Array:
    """The component of ``v`` orthogonal to the span of the left singular
    vectors of ``a`` whose singular values exceed 1e-12 times the largest;
    0 when they span all of R^q."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12))
    if rank == len(v):
        return np.zeros(len(v))
    ur = u[:, :rank]
    return v - ur @ (ur.T @ v)


def make_random_inconsistent_ls(
    seed: int,
    d: int,
    dims,
    q: int,
    noise: float,
    *,
    mu: float = 1.0,
    rank_deficiency: int = 0,
) -> ProblemSpec:
    """Random strongly convex quadratic test instance with a controllable
    inconsistency level.

    ``b = A xbar + xi`` where ``xi`` is drawn, projected onto the orthogonal
    complement of range(A) and scaled to norm ``noise``, so the attainable
    penalty minimum is exactly ``h* = 0.5 ||xi||^2`` and ``xbar`` solves the
    normal equations.  With ``rank_deficiency`` r > 0 the coupling matrix is
    drawn as A = G1 G2 / sqrt(m (m - r)) with G1 q-by-(m - r), so A has rank
    min(q, m - r): its null space has dimension r when q >= m - r (and
    m - q otherwise), and the feasible set is a nontrivial affine subspace.
    G2 is drawn in row chunks of about 2^20 doubles, so no (m - r)-by-m
    array is held.  The projection reads range(A) from the draw's own
    factor, G1 or A itself, by Householder reflectors
    (:func:`_range_complement`), with no SVD of A.  When that factor has at
    least q columns, range(A) is all of R^q: no b is inconsistent, and
    ``xi = 0``, ``h* = 0``.

    Smooth blocks are random convex quadratics with largest curvature equal
    to a uniform draw from [1, 3]; the proximable part is ``mu/2 ||.||^2``.
    Ground truth (``xbar``, ``h*``) is recorded in ``meta``.
    """
    for name, value in (("noise", noise), ("mu", mu)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    seed, q, d = _count("seed", seed, 0), _count("q", q, 0), _count("d", d)
    rank_deficiency = _count("rank_deficiency", rank_deficiency, 0)
    if np.ndim(dims) == 0:
        dims = [dims] * d
    dims = tuple(_count("dims", n) for n in dims)
    if len(dims) != d:
        raise ValueError("dims must provide one dimension per block")
    m = sum(dims)
    rng = np.random.default_rng(seed)

    if rank_deficiency:
        if not rank_deficiency < min(q, m):
            raise ValueError("rank_deficiency must be in (0, min(q, m))")
        # factored draw keeps entry variance at 1/m like the full-rank branch;
        # range(A) = range(G1) almost surely.  G2's row chunks come in the
        # order of one (m - r) x m draw: the first chunk's product sets A and
        # each later one adds its part
        k = m - rank_deficiency
        rows = max(1, 2**20 // m)
        g1 = rng.standard_normal((q, k))
        a = g1[:, :rows] @ rng.standard_normal((min(rows, k), m))
        for lo in range(rows, k, rows):
            a += g1[:, lo:lo + rows] @ rng.standard_normal((min(rows, k - lo), m))
        a /= math.sqrt(m * k)
    else:
        a = g1 = rng.standard_normal((q, m))
        a /= math.sqrt(m)

    xbar = rng.standard_normal(m)
    xi = np.zeros(q)
    if noise > 0:
        xi = _range_complement(a, g1, rng.standard_normal(q))
        nrm = np.linalg.norm(xi)
        if nrm > 0:
            xi *= noise / nrm
    del g1  # free the factor before ProblemSpec copies A
    b = a @ xbar + xi

    smooth = []
    for i in range(d):
        ni = dims[i]
        l_i = float(rng.uniform(1.0, 3.0))
        basis = np.linalg.qr(rng.standard_normal((ni, ni)))[0]
        eigs = rng.uniform(0.1 * l_i, l_i, size=ni)
        eigs[rng.integers(ni)] = l_i
        h = basis @ np.diag(eigs) @ basis.T
        h = 0.5 * (h + h.T)
        c = rng.standard_normal(ni)
        smooth.append(SmoothBlock.quadratic(h, c))

    def value(xv):
        return 0.5 * mu * float(xv.dot(xv))

    def prox(g, v):
        return g * v / (g + mu)

    meta = {"x_ls": xbar, "h_star": 0.5 * float(xi @ xi), "xi": xi, "seed": seed}
    return ProblemSpec(
        blocks=BlockStructure(dims),
        smooth=tuple(smooth),
        prox=tuple(ProxBlock(value, prox, mu, coordinatewise=True, center=0.0) for _ in range(d)),
        a=a,
        b=b,
        meta=meta,
    )
