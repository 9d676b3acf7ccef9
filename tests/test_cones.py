import math

import numpy as np
import pytest

from conecert.cones import (
    BlockKind,
    ConeBlock,
    ConeProduct,
    free,
    lorentz,
    nonneg,
    sample_extreme_rays,
    zero,
)


def test_block_validation():
    with pytest.raises(ValueError):
        ConeBlock(BlockKind.NONNEG, 0)
    with pytest.raises(ValueError):
        ConeBlock(BlockKind.LORENTZ, 1)
    assert lorentz(2).dim == 2
    assert nonneg(3).kind is BlockKind.NONNEG


def test_product_dim_and_offsets():
    K = ConeProduct([nonneg(3), lorentz(2)])
    assert K.dim == 5
    assert [(b.kind, off) for b, off in K.offsets()] == [
        (BlockKind.NONNEG, 0),
        (BlockKind.LORENTZ, 3),
    ]


def test_contains_orthant_and_lorentz():
    K = ConeProduct([nonneg(2), lorentz(3)])
    assert K.contains([1, 0, 1, -1, 2])
    assert not K.contains([-1e-3, 0, 0, 0, 1])
    # radius coordinate comes last in each Lorentz block
    assert K.contains([0, 0, 3, 4, 5])
    assert not K.contains([0, 0, 3, 4, 4.9])
    # a nan entry fails every block test: Nonneg, Lorentz bar and radius
    nan = math.nan
    assert not K.contains([nan, 0, 0, 0, 1])
    assert not K.contains([1, 0, nan, 0, 1])
    assert not K.contains([1, 0, 0, 0, nan])
    assert not ConeProduct([zero(2)]).contains([0, nan])


def test_self_duality_of_regular_blocks():
    K = ConeProduct([nonneg(2), lorentz(3)])
    D = K.dual()
    assert [b.kind for b in D.blocks] == [BlockKind.NONNEG, BlockKind.LORENTZ]


def test_dual_swaps_zero_and_free():
    K = ConeProduct([zero(2), free(3)])
    D = K.dual()
    assert [b.kind for b in D.blocks] == [BlockKind.FREE, BlockKind.ZERO]
    assert D.dual().blocks == K.blocks


def test_interior_margin():
    K = ConeProduct([nonneg(2)])
    assert K.interior_margin([2.0, 3.0]) == pytest.approx(2.0)
    L = ConeProduct([lorentz(3)])
    assert L.interior_margin([3.0, 4.0, 6.0]) == pytest.approx(1.0)
    assert L.interior_margin([0.0, 1.0, 1.0]) == pytest.approx(0.0)


def test_interior_margin_rows():
    K = ConeProduct([nonneg(2), lorentz(3), lorentz(2)])
    X = np.random.default_rng(3).normal(size=(7, K.dim))

    def reference(x):
        return min(x[0], x[1], x[4] - math.hypot(x[2], x[3]), x[6] - abs(x[5]))

    margins = K.interior_margin(X)
    assert margins.shape == (7,)
    for x, got in zip(X, margins):
        assert got == pytest.approx(reference(x), abs=1e-14)
        assert K.interior_margin(x) == got
    assert K.interior_margin(np.zeros((0, K.dim))).shape == (0,)
    with pytest.raises(ValueError):
        K.interior_margin(np.zeros((2, K.dim + 1)))


def test_canonical_interior_point():
    K = ConeProduct([nonneg(2), lorentz(3)])
    e = K.canonical_interior_point()
    assert K.interior_margin(e) > 0.5
    with pytest.raises(ValueError):
        ConeProduct([free(1)]).canonical_interior_point()


def test_interior_margin_every_block_kind():
    K = ConeProduct([zero(2), free(1), nonneg(1), lorentz(3)])
    # a Zero block gives minus its largest |v|, a Free block nothing
    assert K.interior_margin([0.5, -2.0, -100.0, 3.0, 0.0, 0.0, 5.0]) == -2.0
    assert K.interior_margin([0.0, 0.0, -100.0, 3.0, 3.0, 4.0, 6.0]) == 0.0
    assert K.contains([0.0, 0.0, -100.0, 3.0, 3.0, 4.0, 6.0])
    assert ConeProduct([free(2)]).interior_margin([-1.0, 5.0]) == math.inf
    assert ConeProduct([free(2)]).interior_margin(np.ones((3, 2))).tolist() == [math.inf] * 3
    # a nan in any constrained block gives nan, which contains rejects
    for i in (1, 3, 4, 6):
        x = np.array([0.0, 0.0, 0.0, 3.0, 3.0, 4.0, 6.0])
        x[i] = math.nan
        assert math.isnan(K.interior_margin(x))
        assert not K.contains(x, tol=1.0)
    # a (k, dim) stack gives the margins of its rows, each as for one vector
    X = np.random.default_rng(5).normal(size=(6, K.dim))
    X[2, 0] = math.nan
    margins = K.interior_margin(X)
    assert margins.shape == (6,)
    for x, got in zip(X, margins):
        want = K.interior_margin(x)
        assert got == want or (math.isnan(got) and math.isnan(want))
        if not math.isnan(want):
            assert want == pytest.approx(
                min(-abs(x[0]), -abs(x[1]), x[3], x[6] - math.hypot(x[4], x[5])), abs=1e-14)
    assert math.isnan(margins[2])


def test_extreme_rays_orthant():
    K = ConeProduct([nonneg(3)])
    rays = sample_extreme_rays(K, 10, seed=0)
    assert len(rays) == 3
    assert sorted(tuple(r) for r in rays) == [
        (0.0, 0.0, 1.0),
        (0.0, 1.0, 0.0),
        (1.0, 0.0, 0.0),
    ]


def test_extreme_rays_lorentz_dim2():
    rays = sample_extreme_rays(ConeProduct([lorentz(2)]), 99, seed=0)
    assert len(rays) == 2
    for r in rays:
        assert abs(abs(r[0]) - r[1]) < 1e-12


def test_extreme_rays_lorentz_dim3_grid():
    K = ConeProduct([lorentz(3)])
    rays = sample_extreme_rays(K, 8, seed=0)
    assert len(rays) == 8
    for r in rays:
        # unit-norm boundary rays
        assert np.linalg.norm(r) == pytest.approx(1.0)
        assert np.hypot(r[0], r[1]) == pytest.approx(r[2])


def test_extreme_rays_deterministic():
    K = ConeProduct([lorentz(4)])
    a = sample_extreme_rays(K, 16, seed=7)
    b = sample_extreme_rays(K, 16, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    for r in a:
        assert np.linalg.norm(r[:3]) == pytest.approx(r[3])


def test_extreme_rays_product_blocks_zero_elsewhere():
    K = ConeProduct([nonneg(2), lorentz(3)])
    for r in sample_extreme_rays(K, 6, seed=1):
        assert K.contains(r, tol=1e-9)
        # supported on exactly one block
        assert (np.any(r[:2] != 0)) != (np.any(r[2:] != 0))


def _sample_extreme_rays_loop(cone, count, seed=0):
    """The ray sampler as one Python loop per ray, the reference that the
    array version must reproduce bit for bit."""
    rays = []
    n = cone.dim
    for b, off in cone.offsets():
        if b.kind is BlockKind.NONNEG:
            for i in range(b.dim):
                r = np.zeros(n)
                r[off + i] = 1.0
                rays.append(r)
            continue
        d = b.dim
        if d == 2:
            bars = [np.array([1.0]), np.array([-1.0])]
        elif d == 3:
            angles = 2.0 * np.pi * np.arange(count) / count
            bars = [np.array([math.cos(a), math.sin(a)]) for a in angles]
        else:
            rng = np.random.default_rng(seed)
            bars = []
            while len(bars) < count:
                g = rng.standard_normal(d - 1)
                nrm = np.linalg.norm(g)
                if nrm > 1e-12:
                    bars.append(g / nrm)
        for bar in bars:
            r = np.zeros(n)
            r[off:off + d - 1] = bar
            r[off + d - 1] = 1.0
            rays.append(r / math.sqrt(2.0))
    return rays


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_extreme_rays_match_the_per_ray_loop(d):
    for blocks in ([lorentz(d)], [nonneg(2), lorentz(d), lorentz(3)]):
        K = ConeProduct(blocks)
        for count, seed in ((1, 0), (7, 3), (256, 0)):
            got = sample_extreme_rays(K, count, seed)
            want = _sample_extreme_rays_loop(K, count, seed)
            assert got.shape == (len(want), K.dim)
            assert np.array_equal(got, np.array(want))
