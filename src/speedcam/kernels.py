"""Array kernels for pattern codes and the cascade window scan.

The scan is vectorized numpy over a lattice of window origins, given as
``(stride, nx, ny)``: the origins are (ix*stride, iy*stride) for ix < nx
and iy < ny. Stage 0 sees every origin, so each of its weak classifiers
reads the 16 grid corners of every origin as one strided view of the
prefix table (``_corner_view``): no index array and no gather.
Origins a stage rejects drop out; later stages gather the corners of the
few survivors with ``codes_at``. The lattice runs in bands of whole rows,
at most ``SCAN_BAND_ORIGINS`` origins each, which bounds the block
temporaries on large frames. Votes accumulate in weak-classifier order as
float64, as in ``mblbp.eval_window``, the scalar reference the tests
compare against. The trainer's ``codes_stack`` reads its corners through
the same view, over a stack of sample tables.

The scan works on flattened model arrays so the hot loop never touches
Python objects:

* ``fx, fy, fbw, fbh``  per-feature block offsets and block size (already
  scaled for the current window scale; see ``mblbp.scaled_feature_arrays``)
* ``wfeat``             feature index used by each weak classifier
* ``votes``             (n_weaks, 256) float64 ``mblbp.vote_table``; votes[w, c]
  is weak w's vote for code c
* ``sbound``            stage boundaries into the weak arrays (len n_stages+1)
* ``sthr``              per-stage acceptance thresholds
"""

import numpy as np

from speedcam.errors import BoundsError

# neighbor block (row, col) in bit order: TL=bit7, then clockwise to L=bit0
_NEIGHBOR_ORDER = ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0))

# origins per scan band: a 640x360 frame at stride 2 is one band, and the
# (3, 3, rows, nx) int64 block temporaries of a band stay near 5 MB each
SCAN_BAND_ORIGINS = 1 << 16


def selected_backend() -> str:
    """Name of the scan implementation; numpy is the only one."""
    return "numpy"


def scan_impl():
    """The scan callable ``detector.scan`` uses."""
    return scan_numpy


def _codes(corners: np.ndarray) -> np.ndarray:
    """uint8 pattern codes from prefix-table corners shaped (4, 4, ...).

    corners[i, j] is the prefix sum at grid row i, column j of the 3x3
    block grid; the trailing axes index independent grids.
    """
    blocks = corners[1:, 1:] - corners[:-1, 1:] - corners[1:, :-1] + corners[:-1, :-1]
    center = blocks[1, 1]
    codes = np.zeros(center.shape, dtype=np.uint8)
    for bit, (i, j) in zip(range(7, -1, -1), _NEIGHBOR_ORDER):
        codes |= np.uint8(1 << bit) * (blocks[i, j] >= center).astype(np.uint8)
    return codes


def codes_at(sums: np.ndarray, x: np.ndarray, y: np.ndarray, bw: int, bh: int) -> np.ndarray:
    """Pattern codes for one block geometry at many origins (vectorized).

    sums is a prefix table; x and y are equal-length origin arrays.
    Returns uint8 codes. All 16 corners of every grid come from one read
    of the flattened table; a grid that leaves the table is a BoundsError.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    h1, w1 = sums.shape
    # the flat read wraps across rows, so every grid must lie in the table
    if x.size and (
        min(x.min(), y.min()) < 0 or x.max() + 3 * bw >= w1 or y.max() + 3 * bh >= h1
    ):
        raise BoundsError(f"a grid of {bw}x{bh} blocks leaves the {w1 - 1}x{h1 - 1} table")
    i, j = np.ogrid[:4, :4]
    offsets = (i * (bh * w1) + j * bw)[:, :, None]
    return _codes(sums.take(offsets + (y * w1 + x)))  # take reads the flattened table


def _corner_view(sums, x0, y0, sx, sy, nx, ny, bw, bh) -> np.ndarray:
    """Read-only view of the 16 grid corners at every origin of a lattice.

    The origins are (x0 + i*sx, y0 + j*sy) for i < nx and j < ny, and each
    holds a 3x3 grid of bw x bh blocks. sums is a prefix table, optionally
    behind leading axes (a stack of samples); the view is shaped
    (4, 4, *leading, ny, nx), the layout ``_codes`` takes. It reads raw
    memory, so a grid that leaves the table is a BoundsError.
    """
    *_, h1, w1 = sums.shape
    if (
        min(x0, y0) < 0
        or min(sx, sy, bw, bh) < 1
        or x0 + (nx - 1) * sx + 3 * bw >= w1
        or y0 + (ny - 1) * sy + 3 * bh >= h1
    ):
        raise BoundsError(f"a grid of {bw}x{bh} blocks leaves the {w1 - 1}x{h1 - 1} table")
    *lead, r0, r1 = sums.strides
    return np.lib.stride_tricks.as_strided(
        sums[..., y0:, x0:],
        shape=(4, 4, *sums.shape[:-2], ny, nx),
        strides=(bh * r0, bw * r1, *lead, sy * r0, sx * r1),
        writeable=False,
    )


def codes_stack(
    sums_stack: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    fbw: np.ndarray,
    fbh: np.ndarray,
) -> np.ndarray:
    """Codes for every (sample, feature) pair over a stack of prefix tables.

    sums_stack is (n_samples, h+1, w+1); the feature arrays describe the
    full feature set at unit scale. Returns (n_samples, n_features) uint8.

    Features sharing a block size share one code plane: the corners of
    every origin on the lattice spanned by that group's anchors are one
    ``_corner_view`` of the stack, so each group costs one ``_codes`` call
    and a gather of its features' columns.
    """
    out = np.empty((sums_stack.shape[0], fx.size), dtype=np.uint8)
    sizes, group = np.unique(np.stack([fbw, fbh], axis=1), axis=0, return_inverse=True)
    group = group.reshape(-1)  # numpy 2.0.0 returns it as a column
    for g, (bw, bh) in enumerate(sizes):
        sel = np.flatnonzero(group == g)
        gx, gy = fx[sel], fy[sel]
        x0, y0 = int(gx.min()), int(gy.min())
        # anchor lattice step; 1 for a lone anchor keeps the arithmetic valid
        sx = int(np.gcd.reduce(gx - x0)) or 1
        sy = int(np.gcd.reduce(gy - y0)) or 1
        nx = (int(gx.max()) - x0) // sx + 1
        ny = (int(gy.max()) - y0) // sy + 1
        corners = _corner_view(sums_stack, x0, y0, sx, sy, nx, ny, int(bw), int(bh))
        out[:, sel] = _codes(corners)[:, (gy - y0) // sy, (gx - x0) // sx]
    return out


def scan_numpy(sums, stride, nx, ny, fx, fy, fbw, fbh, wfeat, votes, sbound, sthr):
    """Cascade acceptance mask over an origin lattice, vectorized numpy path.

    The origins are (ix*stride, iy*stride) for ix < nx and iy < ny.
    Returns bool (ny, nx); True where every stage sum met its threshold.
    The lattice runs in bands of whole rows, at most SCAN_BAND_ORIGINS
    origins each (or one row). Stage 0 reads every origin of a band
    through one corner view per weak; later stages gather the corners of
    the origins still alive with ``codes_at``.
    """
    mask = np.ones((ny, nx), dtype=bool)
    if mask.size == 0 or sthr.size == 0:
        return mask
    rows = max(1, SCAN_BAND_ORIGINS // nx)
    for top in range(0, ny, rows):
        band = mask[top : top + rows]  # a view: the band writes the mask
        acc = np.zeros(band.shape, dtype=np.float64)
        for wi in range(sbound[0], sbound[1]):
            f = wfeat[wi]
            corners = _corner_view(
                sums, int(fx[f]), top * stride + int(fy[f]), stride, stride,
                nx, band.shape[0], int(fbw[f]), int(fbh[f]),
            )
            acc += votes[wi][_codes(corners)]
        band[...] = acc >= sthr[0]
        iy, ix = np.nonzero(band)
        ax, ay = ix * stride, (top + iy) * stride
        alive = np.ones(ax.size, dtype=bool)
        for si in range(1, sthr.size):
            if not alive.any():
                break
            cx, cy = ax[alive], ay[alive]
            acc = np.zeros(cx.size, dtype=np.float64)
            for wi in range(sbound[si], sbound[si + 1]):
                f = wfeat[wi]
                codes = codes_at(sums, cx + fx[f], cy + fy[f], int(fbw[f]), int(fbh[f]))
                acc += votes[wi][codes]
            alive[alive] = acc >= sthr[si]
        band[iy, ix] = alive
    return mask
