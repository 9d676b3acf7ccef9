"""Product cones built from Zero, Free, Nonneg, and Lorentz blocks.

The Lorentz block of dimension d is {x in R^d : x[d-1] >= ||x[:d-1]||},
i.e. the last coordinate of the block is the radius coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class BlockKind(Enum):
    ZERO = "zero"
    FREE = "free"
    NONNEG = "nonneg"
    LORENTZ = "lorentz"


@dataclass(frozen=True)
class ConeBlock:
    kind: BlockKind
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"block dim must be >= 1, got {self.dim}")
        if self.kind is BlockKind.LORENTZ and self.dim < 2:
            raise ValueError(f"Lorentz block needs dim >= 2, got {self.dim}")


def zero(dim: int) -> ConeBlock:
    return ConeBlock(BlockKind.ZERO, dim)


def free(dim: int) -> ConeBlock:
    return ConeBlock(BlockKind.FREE, dim)


def nonneg(dim: int) -> ConeBlock:
    return ConeBlock(BlockKind.NONNEG, dim)


def lorentz(dim: int) -> ConeBlock:
    return ConeBlock(BlockKind.LORENTZ, dim)


_DUAL_KIND = {
    BlockKind.ZERO: BlockKind.FREE,
    BlockKind.FREE: BlockKind.ZERO,
    BlockKind.NONNEG: BlockKind.NONNEG,
    BlockKind.LORENTZ: BlockKind.LORENTZ,
}


@dataclass(frozen=True)
class ConeProduct:
    blocks: tuple[ConeBlock, ...]

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", tuple(blocks))

    @cached_property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def offsets(self) -> list[tuple[ConeBlock, int]]:
        """List of (block, start offset) pairs in order."""
        out = []
        off = 0
        for b in self.blocks:
            out.append((b, off))
            off += b.dim
        return out

    def is_regular(self) -> bool:
        return len(self.blocks) > 0 and all(
            b.kind in (BlockKind.NONNEG, BlockKind.LORENTZ) for b in self.blocks
        )

    def contains(self, x, tol: float = 0.0) -> bool:
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        return bool(self.interior_margin(x) >= -tol)  # false for nan

    @cached_property
    def _margin_index(self):
        """The coordinates that bound the margin linearly, with their signs
        (a Nonneg coordinate v bounds it by v, a Zero coordinate by v and by
        -v, so by -|v|), and per Lorentz dimension the (nb, d-1) bar and
        (nb,) radius indices of its blocks (radius last). None for an empty
        part, and for the signs when they are all +1."""
        nonneg, zero, lorentz = [], [], {}
        for b, off in self.offsets():
            idx = list(range(off, off + b.dim))
            if b.kind is BlockKind.NONNEG:
                nonneg += idx
            elif b.kind is BlockKind.ZERO:
                zero += idx
            elif b.kind is BlockKind.LORENTZ:
                lorentz.setdefault(b.dim, []).append(idx)
        linear = nonneg + zero + zero
        signs = [1.0] * (len(nonneg) + len(zero)) + [-1.0] * len(zero)
        return (
            np.array(linear) if linear else None,
            np.array(signs) if zero else None,
            [(np.array(g)[:, :-1], np.array(g)[:, -1]) for g in lorentz.values()],
        )

    def interior_margin(self, x) -> float | np.ndarray:
        """Smallest block margin of x: the least coordinate of a Nonneg block,
        radius minus norm of a Lorentz block, minus the largest |v| of a Zero
        block; Free blocks impose nothing, so a cone of Free blocks alone
        gives +inf. x lies in the cone iff its margin is >= 0; a vector with
        a nan has margin nan. For a (k, dim) array, the k margins of its rows
        as an array."""
        X = np.asarray(x, dtype=float)
        if X.ndim not in (1, 2) or X.shape[-1] != self.dim:
            raise ValueError(f"array shape {X.shape} does not match cone dim {self.dim}")
        linear, signs, lorentz = self._margin_index
        # take(.., axis=-1) indexes one vector and a stack alike, and fast
        parts = []
        if linear is not None:
            V = X.take(linear, axis=-1)
            parts.append(V if signs is None else V * signs)
        for bar, radius in lorentz:
            V = X.take(bar, axis=-1)
            parts.append(X.take(radius, axis=-1) - np.sqrt(np.vecdot(V, V)))
        if not parts:
            return np.full(X.shape[:-1], math.inf) if X.ndim == 2 else math.inf
        V = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        margin = np.minimum.reduce(V, axis=-1)
        return margin if X.ndim == 2 else float(margin)

    def dual(self) -> "ConeProduct":
        return self._dual

    @cached_property
    def _dual(self) -> "ConeProduct":
        # one object per cone, so that its margin index is built once
        return ConeProduct(ConeBlock(_DUAL_KIND[b.kind], b.dim) for b in self.blocks)

    def canonical_interior_point(self) -> np.ndarray:
        if not self.is_regular():
            raise ValueError("canonical_interior_point requires a regular cone")
        e = np.zeros(self.dim)
        for b, off in self.offsets():
            if b.kind is BlockKind.NONNEG:
                e[off:off + b.dim] = 1.0
            else:
                e[off + b.dim - 1] = 1.0
        return e


def sample_extreme_rays(cone: ConeProduct, count: int, seed: int = 0) -> np.ndarray:
    """Unit-norm extreme rays of the product cone, zero outside their block,
    as the rows of a (k, dim) array, block by block.

    Nonneg blocks contribute every coordinate ray. A Lorentz block of
    dimension d contributes boundary rays (xbar, ||xbar||)/sqrt(2) with xbar
    on the unit sphere of R^(d-1): both points for d = 2, an equispaced
    circle grid of `count` points for d = 3, and `count` seeded Gaussian
    sphere samples otherwise. Deterministic for fixed (count, seed).
    """
    if not cone.is_regular():
        raise ValueError("sample_extreme_rays requires a regular cone")
    if count < 1:
        raise ValueError("count must be positive")
    parts = []
    n = cone.dim
    for b, off in cone.offsets():
        if b.kind is BlockKind.NONNEG:
            parts.append(np.eye(b.dim, n, off))
            continue
        d = b.dim
        if d == 2:
            bars = np.array([[1.0], [-1.0]])
        elif d == 3:
            angles = 2.0 * np.pi * np.arange(count) / count
            # math's cos and sin, not numpy's, whose SIMD paths may round
            # differently on some machines
            bars = np.array([(math.cos(a), math.sin(a)) for a in angles])
        else:
            # rows of one draw follow the stream of one draw per row; a
            # near-zero row is skipped and replaced from the same stream
            rng = np.random.default_rng(seed)
            bars = np.empty((0, d - 1))
            while len(bars) < count:
                g = rng.standard_normal((count - len(bars), d - 1))
                nrm = np.sqrt(np.vecdot(g, g))
                keep = nrm > 1e-12
                bars = np.vstack([bars, g[keep] / nrm[keep, None]])
        rays = np.zeros((len(bars), n))
        rays[:, off:off + d - 1] = bars
        rays[:, off + d - 1] = 1.0
        parts.append(rays / math.sqrt(2.0))
    return np.vstack(parts)
