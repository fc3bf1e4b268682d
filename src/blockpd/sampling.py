"""Proper random block samplings and their probability structure.

A sampling is a random subset of the d block indices, drawn i.i.d. across
iterations.  Properness means every block has activation probability
pi_i > 0.  Enumerable kinds carry their full support so exact expectations
can be taken; the subset-uniform kind with a huge support falls back to
formulaic probabilities and on-the-fly draws.

Randomness comes from a caller-owned ``numpy.random.Generator``; every draw
consumes a fixed random budget for its kind, so traces are reproducible
regardless of which diagnostics run.  Seed with the counter-based Philox
bit generator for stable streams (see :func:`make_rng`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb

import numpy as np

from .blocks import BlockStructure, _count
from .errors import UnsupportedSampling

Array = np.ndarray

MAX_ENUMERABLE = 10_000


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; one stream per run."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class Sampling:
    """Random set-valued block selector.

    ``support`` lists the possible subsets with their probabilities when the
    support is small enough to enumerate; otherwise it is None and only the
    marginals / pair probabilities are available in closed form.
    """

    d: int
    kind: str
    pi: Array
    support: tuple[tuple[int, ...], ...] | None
    probs: Array | None
    nice_m: int | None = None

    def __post_init__(self):
        """Every check of the sampling, once: proper marginals, and either
        a distribution over non-empty sets of distinct block indices with
        those marginals, or the m-of-d kind with pi = m/d.  Its pair
        probabilities are then symmetric PSD by construction (a sum of
        p 1_S 1_S'), so :func:`prob_matrix` checks nothing.  Each check
        is written so that a NaN fails it."""
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "pi", pi)
        d = self.d
        if pi.shape != (d,) or not np.all((pi > 0.0) & (pi <= 1.0 + 1e-12)):
            raise ValueError("sampling is not proper: d marginals in (0, 1] needed")
        if self.support is None:
            m = self.nice_m
            if self.kind != "nice" or not (isinstance(m, (int, np.integer)) and 1 <= m <= d):
                raise ValueError("only the nice kind with integer 1 <= m <= d omits its support")
            if not np.max(np.abs(pi - m / d)) <= 1e-12:
                raise ValueError("nice marginals must equal m/d")
            return
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        n = len(self.support)
        if probs.shape != (n,) or not (np.all(probs >= 0.0) and abs(probs.sum() - 1.0) <= 1e-12):
            raise ValueError("support probabilities must be nonnegative, one per subset, sum 1")
        for subset in self.support:
            if not 0 < len(set(subset)) == len(subset) or not all(0 <= i < d for i in subset):
                raise ValueError(f"subset {subset} is not a non-empty set of blocks in [0, {d})")
        flat = np.fromiter(chain.from_iterable(self.support), dtype=np.intp)
        weights = np.repeat(probs, [len(t) for t in self.support])
        if not np.max(np.abs(np.bincount(flat, weights, d) - pi)) <= 1e-12:
            raise ValueError("marginals inconsistent with the support")

    @cached_property
    def _cum(self) -> list[float]:
        """Cumulative support probabilities as plain floats, for bisection."""
        return np.cumsum(self.probs).tolist()

    @cached_property
    def _index_table(self) -> Array:
        """The support subsets as rows of one index table, in support order;
        a subset shorter than the widest is padded with the index d."""
        sizes = np.fromiter(map(len, self.support), dtype=np.intp, count=len(self.support))
        table = np.full((sizes.size, sizes.max()), self.d, dtype=np.intp)
        table[np.arange(table.shape[1]) < sizes[:, None]] = np.fromiter(
            chain.from_iterable(self.support), dtype=np.intp
        )
        return table

    @cached_property
    def _index_sets(self) -> tuple[Array, ...]:
        """Read-only ascending block indices of each support subset."""
        out = []
        for subset in self.support:
            idx = np.array(sorted(subset), dtype=np.intp)
            idx.flags.writeable = False
            out.append(idx)
        return tuple(out)


def single_coordinate(d: int, probs=None) -> Sampling:
    """One block per iteration; uniform unless per-block probs are given."""
    d = _count("d", d)
    if probs is None:
        probs = np.full(d, 1.0 / d)
    probs = np.asarray(probs, dtype=float)
    support = tuple((i,) for i in range(d))
    return Sampling(d, "single", probs.copy(), support, probs)


def nice(d: int, m: int) -> Sampling:
    """Uniform choice of exactly m of the d blocks."""
    d, m = _count("d", d), _count("m", m)
    if m > d:
        raise ValueError(f"m must be <= d = {d}, got {m}")
    pi = np.full(d, m / d)
    if comb(d, m) <= MAX_ENUMERABLE:
        support = tuple(combinations(range(d), m))
        probs = np.full(len(support), 1.0 / len(support))
        return Sampling(d, "nice", pi, support, probs, nice_m=m)
    return Sampling(d, "nice", pi, None, None, nice_m=m)


def full(d: int) -> Sampling:
    d = _count("d", d)
    return Sampling(d, "full", np.ones(d), (tuple(range(d)),), np.array([1.0]))


def paired_dso(p: int) -> Sampling:
    """Coordinator-plus-one-agent pairs: block 0 always active, one of the p
    agent blocks chosen uniformly."""
    p = _count("p", p)
    support = tuple((0, a) for a in range(1, p + 1))
    probs = np.full(p, 1.0 / p)
    pi = np.concatenate([[1.0], np.full(p, 1.0 / p)])
    return Sampling(p + 1, "paired", pi, support, probs)


def draw(s: Sampling, rng: np.random.Generator) -> Array:
    """One i.i.d. realization as the active block indices, ascending.

    Enumerable kinds return a shared read-only index array of the drawn
    subset; the large subset-uniform kind sorts m distinct blocks drawn
    directly.  Each draw takes one uniform variate (enumerable kinds) or one
    ``choice`` call (the large kind) from ``rng``.
    """
    if s.support is not None:
        j = bisect_right(s._cum, rng.random())
        return s._index_sets[min(j, len(s.support) - 1)]
    idx = rng.choice(s.d, size=s.nice_m, replace=False)
    idx.sort()
    return idx


def prob_matrix(s: Sampling) -> Array:
    """Pairwise activation matrix: diagonal pi_i, off-diagonal P(i and j active).

    The closed form for the m-of-d kind without an enumerated support,
    otherwise one ``np.add.at`` of every subset's probability onto its
    index pairs, which adds subset after subset in support order.  The
    sampling was validated when it was built, so nothing is checked here;
    that the result is symmetric PSD with diagonal pi (strictly positive
    definite for some kinds only: the all-blocks and the coordinator-pair
    kinds are singular) is a property the tests assert.
    """
    if s.support is None:
        m = s.nice_m
        off = m * (m - 1) / (s.d * (s.d - 1))
        pi_mat = np.full((s.d, s.d), off)
        np.fill_diagonal(pi_mat, m / s.d)
        return pi_mat
    idx = s._index_table
    # padded entries land in an extra row and column, which are dropped
    pad = int(idx[:, -1].max() == s.d)
    pi_mat = np.zeros((s.d + pad, s.d + pad))
    np.add.at(pi_mat, (idx[:, :, None], idx[:, None, :]), s.probs[:, None, None])
    return pi_mat[: s.d, : s.d].copy() if pad else pi_mat


def weight_matrix_p(s: Sampling, blocks: BlockStructure) -> Array:
    """Diagonal of the m-by-m scaling matrix with 1/pi_i on block i."""
    return blocks.expand(1.0 / s.pi)


def xi_matrix(s: Sampling, gram: Array, blocks: BlockStructure) -> Array:
    """Second-moment matrix of the inverse-marginal-scaled activation applied
    to the coupling matrix: Xi = E[E P A'A P E] with E the random 0/1 block
    mask and P the inverse-marginal scaling.

    Built in closed form for every proper sampling from the Gram matrix
    ``gram`` = A'A (a problem's cached ``ProblemSpec.gram``) split by
    ``blocks``, scaled blockwise by W = Pi / (pi pi') (diagonal 1/pi_i):
    Xi[i,j] = (Pi_ij / (pi_i pi_j)) A_i'A_j off the diagonal and
    Xi[i,i] = A_i'A_i / pi_i.  W is repeated out over the block dims to a
    fresh m x m array, through one m x d temporary, and multiplied in place
    by ``gram``; the result is returned, so a caller may overwrite it.
    The exhaustive expectation, the per-pair block loop and the form that
    stacks the blocks into its own Gram product are test oracles
    (``tests/conftest.py``).
    """
    w = prob_matrix(s) / np.outer(s.pi, s.pi)
    np.fill_diagonal(w, 1.0 / s.pi)
    xi = np.repeat(np.repeat(w, blocks.dims, axis=0), blocks.dims, axis=1)
    xi *= gram
    return xi


def from_config(kind: str, d: int, m: int | None = None) -> Sampling:
    """Build a sampling from a config-style kind tag; ``nice`` needs ``m``."""
    kind = kind.lower()
    if kind in ("single", "single_coordinate", "uniform"):
        return single_coordinate(d)
    if kind == "nice":
        if m is None:
            raise ValueError("nice sampling needs a subset size m")
        return nice(d, m)
    if kind == "full":
        return full(d)
    if kind in ("paired", "paired_dso"):
        return paired_dso(d - 1)
    raise UnsupportedSampling(f"unknown sampling kind {kind!r}")
