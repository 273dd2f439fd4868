"""Array kernels for pattern codes and the cascade window scan.

The scan is vectorized numpy: each stage evaluates its weak classifiers
at every origin still alive, and origins the stage rejects drop out of
later stages. Votes accumulate in weak-classifier order as float64, as in
``mblbp.eval_window``, the scalar reference the tests compare against.

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

    Features sharing a block size share one code plane: the 16 corners of
    every origin on the lattice spanned by that group's anchors are
    strided views of the stack, so each group costs one ``_codes`` call
    and a gather of its features' columns.
    """
    n, h1, w1 = sums_stack.shape
    # the views below read raw memory, so every grid must lie in the table
    outside = (fx < 0) | (fy < 0) | (fbw < 1) | (fbh < 1)
    if (outside | (fx + 3 * fbw >= w1) | (fy + 3 * fbh >= h1)).any():
        raise BoundsError(f"a feature grid does not fit the {w1 - 1}x{h1 - 1} window")
    out = np.empty((n, fx.size), dtype=np.uint8)
    s0, s1, s2 = sums_stack.strides
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
        corners = np.lib.stride_tricks.as_strided(
            sums_stack[:, y0:, x0:],
            shape=(4, 4, n, ny, nx),
            strides=(bh * s1, bw * s2, s0, sy * s1, sx * s2),
            writeable=False,
        )
        out[:, sel] = _codes(corners)[:, (gy - y0) // sy, (gx - x0) // sx]
    return out


def scan_numpy(sums, xs, ys, fx, fy, fbw, fbh, wfeat, votes, sbound, sthr):
    """Cascade acceptance mask over an origin grid, vectorized numpy path.

    Returns bool (len(ys), len(xs)); True where every stage sum met its
    threshold. Rejected origins drop out of later stages via a shrinking
    alive mask.
    """
    ny = ys.size
    nx = xs.size
    ox = np.broadcast_to(xs[None, :], (ny, nx)).reshape(-1)
    oy = np.broadcast_to(ys[:, None], (ny, nx)).reshape(-1)
    alive = np.ones(ox.size, dtype=bool)
    for si in range(sthr.size):
        if not alive.any():
            break
        ax = ox[alive]
        ay = oy[alive]
        acc = np.zeros(ax.size, dtype=np.float64)
        for wi in range(sbound[si], sbound[si + 1]):
            f = wfeat[wi]
            codes = codes_at(sums, ax + fx[f], ay + fy[f], int(fbw[f]), int(fbh[f]))
            acc += votes[wi][codes]
        alive[alive] = acc >= sthr[si]
    return alive.reshape(ny, nx)
