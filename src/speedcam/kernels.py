"""Array kernels for pattern codes and the cascade window scan.

The scan is vectorized numpy over the window-origin lattices of every
scale at once, described by a ``ScanPlan`` that the detector builds once
per model, parameters and frame size. Scale s scans the origins
(ix*stride, iy*stride) for ix < nx and iy < ny, with its own stride,
(nx, ny) and scaled feature geometry. Votes accumulate in weak-classifier
order as float64, as in ``mblbp.eval_window``, the scalar reference the
tests compare against.

A window is rejected weak by weak, not only at stage ends. After a weak
that can fail some window, a window is dropped when its bound is below the
stage threshold; the bound is its running vote sum plus the largest vote
of each remaining weak of the stage, added one by one in weak order. The
rounded float64 sum is monotonic in each operand, so the bound is never
below the sum the window would reach, and a dropped window is one the
stage would have rejected: the mask is exactly the stage-end one. The
stage end is the same check with no weaks left. Which weaks can fail any
window is known from the model alone (``wcheck``), so the others get no
check.

A frame is scanned in two steps. First, per scale, each of stage 0's
first ``dense`` weaks reads the block sums of every origin densely, with
no index array and no gather. ``dense`` ends at stage 0's first weak that
can fail a window, or with the stage; the model alone decides it. The
check after it runs, and each survivor keeps its flat mask position and
partial sum. A scale runs in bands of whole rows of at most
``BAND_CHUNKS * SCAN_CHUNK`` origins, which bounds the block temporaries.
Second, the survivors of every band and scale, scale-major then
row-major, are pooled and handed on in chunks of exactly ``SCAN_CHUNK``
windows (a frame's last chunk may be short), with the dense codes that a
later weak reads again, and each chunk runs every later weak together: the
rest of stage 0, then stages 1+. A window's code of a feature is made once
a chunk: the codes that a later weak reads again stay in a memo keyed by
feature, seeded with the dense codes and filtered with the windows at each
check. Each other weak is one ``codes_at`` gather per chunk, with block
sizes per window from the plan. The result is one flat mask over all
scales' lattices.

A code is made in two steps: the (3, 3, ...) block sums of each grid,
then the pattern (``_pattern``), which ``codes_at``, ``codes_stack`` and
the dense bands share. The blocks come from one of two reads. The corner
read takes the 16 grid corners of every origin as one strided view of
the prefix table (``_corner_view``), and ``_blocks`` takes each grid's
row strips first and the blocks from them: 21 array operations a grid,
in place of 27. The lattice read (``_lattice_blocks``) builds a table of
every block sum on the lattice that all blocks of a band's grids start
on, in 3 array operations an entry, and views the band's (3, 3) block
sums in it. The plan picks the lattice read for a (scale, dense weak)
where that table has fewer than 7 entries a window, the corner read
elsewhere. The trainer's ``codes_stack`` reads its corners through the
same view, over a stack of sample tables on a trailing axis: the prefix
table is (h+1, w+1, n_samples), so every loop runs over contiguous
samples.

The scan and the trainer read ``TABLE_DTYPE`` (uint32) prefix tables,
built by wrapping cumulative sums (``imaging.prefix_sums``). Every entry
is the true prefix sum mod 2**32, and so is any sum or difference of
entries taken in uint32. A block sum is four entries; its true value is
at most 255 times the block's pixel count, and a 3x3 grid lies inside its
frame, whose sides are at most ``imaging.MAX_DIM`` (8192). So a block
holds at most 2730 x 2730 pixels, its sum is below 255 x 7.45M = 1.9e9 <
2**32, and the wrapped sum equals the true one: the codes are the codes
of an int64 table, for every frame the program accepts. The same holds
mod 2**16: a block of at most ``NARROW_PIXELS`` (257) pixels sums to at
most 255 x 257 = 65,535 < 2**16, so its sum taken in uint16 from
``sums.astype(np.uint16)``, the table mod 2**16, is exact. The scan makes
that copy once per frame and reads the dense blocks that small from it.
The kernels read int64 tables as well.

The plan proves the bounds of the gathers: its ``reach`` is the frame
size that holds every grid of every lattice, and ``scan_lattices``
compares it with the table's shape once, so that ``codes_at`` skips its
own check there. The dense reads keep theirs, a few comparisons of
scalars per band and weak.

The plan also holds the gathers' workspace (``GatherBuffers``): the
(4, 4, ``SCAN_CHUNK``) int64 corner index and the corners, one buffer per
table dtype. A gather builds its index in place and reads the corners
into them, so from a frame's second scan on, no gather makes an array of
more than a chunk's int64s, and the heap keeps its size from frame to
frame. The workspace makes a scan non-reentrant: two threads must not
scan with one plan at once.

A ``ScanPlan`` is built from the model and the lattices alone: it derives
the flattened model arrays the hot loop reads, once, so that they always
agree with the model's votes and the loop never touches Python objects:

* ``grid``              per-feature block offsets and block size, (x, y,
  bw, bh), of every scale (``mblbp.scaled_feature_arrays``)
* ``wfeat``             feature index used by each weak classifier
* ``votes``             (n_weaks, 256) float64 ``mblbp.vote_table``; votes[w, c]
  is weak w's vote for code c
* ``sbound``            stage boundaries into the weak arrays (len n_stages+1)
* ``sthr``              per-stage acceptance thresholds
* ``vmax, wcheck``      each weak's largest vote, and whether the bound
  after it can fall below the stage threshold
* ``dense``             stage 0's weaks through its first checked one
* ``reach``             (w, h): the smallest frame that holds every grid
* ``lattice, narrow``   (n_scales, dense) bool: read a dense weak's blocks
  through a lattice table, and from the uint16 table
* ``reuse``             (n_weaks,) bool: whether a weak past both the dense
  prefix and this one reads this weak's feature again
* ``buffers``           the gathers' ``GatherBuffers``
"""

import math
from dataclasses import dataclass, field

import numpy as np

from speedcam.errors import BoundsError
from speedcam.mblbp import CascadeModel, vote_table

# bit weight of each block of the row-major 3x3 grid: TL=bit7, then
# clockwise to L=bit0; the center weighs 0
_BIT_WEIGHTS = np.array([128, 64, 32, 1, 0, 16, 2, 4, 8], dtype=np.uint8)[:, None]

# the prefix-table dtype of the scan and the trainer: exact for every block
# of a frame within imaging.MAX_DIM (module docstring), at half int64's bytes
TABLE_DTYPE = np.uint32

# windows per scan chunk: the survivor pool hands each later-weak gather
# this many but a frame's last, a plan's gather buffers hold this many, and
# a dense band holds BAND_CHUNKS times this many origins (or one row).
# Gathers of 4,096 were slower for their extra calls
SCAN_CHUNK = 1 << 13

# scan chunks per dense band. A full gather holds 276 bytes a window: the
# plan's (4, 4, n) int64 index and uint32 corners, 192, and at its peak
# the ``_codes`` temporaries; a band origin at most 100, on the corner read
# of the uint32 table: CODE_TEMP_BYTES, its float64 vote, its running sum
# and its codes. A lattice table of under 7 entries a window holds less.
# So a band of two chunks stays within a gather (all measured with
# tracemalloc). Bands of 65,536 origins made glibc trim the heap and fault
# it back in on every track frame
BAND_CHUNKS = 2

# the most pixels a block may hold for its sum to be read from a uint16 copy
# of the prefix table: 255 * 257 = 2**16 - 1, so the sum is exact mod 2**16
NARROW_PIXELS = 257

# bytes ``_codes`` holds per grid at its peak over a uint32 table: the
# (3, 4) row strips and (3, 3) block sums, then the blocks with their bool
# comparison and the weighted uint8 bits (measured with tracemalloc)
CODE_TEMP_BYTES = 12 * 4 + 9 * 4

# ceiling on the ``_codes`` temporaries of ``codes_stack``: each block-size
# plane runs in chunks of samples that stay within it
CODES_STACK_BYTES = 16 << 20


def selected_backend() -> str:
    """Name of the scan implementation; numpy is the only one."""
    return "numpy"


def scan_impl():
    """The scan callable ``detector.scan`` uses: ``scan_lattices``."""
    return scan_lattices


def _blocks(corners: np.ndarray) -> np.ndarray:
    """(3, 3, ...) block sums from prefix-table corners shaped (4, 4, ...).

    corners[i, j] is the prefix sum at grid row i, column j of the 3x3
    block grid; the trailing axes index independent grids. The row strips
    come first, 21 array operations in all; they are freed on return.
    """
    strips = corners[1:] - corners[:-1]  # (3, 4, ...): each block row's prefix sums
    return strips[:, 1:] - strips[:, :-1]


def _pattern(blocks: np.ndarray) -> np.ndarray:
    """uint8 pattern codes of 3x3 block sums shaped (3, 3, ...); the
    trailing axes index independent grids."""
    ge = (blocks >= blocks[1, 1]).reshape(9, -1)
    return (ge * _BIT_WEIGHTS).sum(axis=0, dtype=np.uint8).reshape(blocks.shape[2:])


def _codes(corners: np.ndarray) -> np.ndarray:
    """uint8 pattern codes from prefix-table corners shaped (4, 4, ...)."""
    return _pattern(_blocks(corners))


class GatherBuffers:
    """The corner index and corner values of ``codes_at`` gathers of up to
    ``size`` windows, reused from gather to gather.

    The index is one int64 buffer, the corners one buffer per table dtype,
    made on first use; a larger gather regrows them. They are flat, so a
    gather of n windows reads and writes their first 16n entries as C
    contiguous (4, 4, n) views, which ``take`` fills with no copy. One
    gather at a time may use them.
    """

    def __init__(self, size: int):
        self.index = np.empty(16 * size, dtype=np.int64)
        self.corners = {}

    def views(self, n: int, dtype):
        """(4, 4, n) views of the index and of the corners of a dtype table."""
        if self.index.size < 16 * n:
            self.index, self.corners = np.empty(16 * n, dtype=np.int64), {}
        dtype = np.dtype(dtype)
        if dtype not in self.corners:
            self.corners[dtype] = np.empty(self.index.size, dtype=dtype)
        shape = (4, 4, n)
        return self.index[: 16 * n].reshape(shape), self.corners[dtype][: 16 * n].reshape(shape)


def codes_at(
    sums: np.ndarray, x: np.ndarray, y: np.ndarray, bw, bh, checked: bool = True,
    *, buffers: GatherBuffers | None = None,
) -> np.ndarray:
    """Pattern codes of 3x3 block grids at many origins (vectorized).

    sums is a prefix table; x and y are equal-length origin arrays. The
    block size bw x bh is one for all grids, or arrays that broadcast
    against x and y, one size per grid. Returns uint8 codes. All 16
    corners of every grid come from one read of the flattened table; a
    grid that leaves the table is a BoundsError. A caller that has proven
    every grid inside the table passes checked=False to skip the check:
    ``scan_lattices`` does, after comparing the table with the plan's reach.

    The corner index and the corners go into buffers, which a caller may
    hold from call to call (``GatherBuffers``); without them the call makes
    its own. ``scan_lattices`` passes its plan's, so a scan is not
    reentrant: two threads must not scan with one plan at once. Nothing
    scans from two threads.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    h1, w1 = sums.shape
    # the flat read wraps across rows, so every grid must lie in the table
    if checked and x.size and (
        min(x.min(), y.min()) < 0
        or np.max(x + 3 * bw) >= w1
        or np.max(y + 3 * bh) >= h1
    ):
        bw, bh = np.broadcast_to(bw, x.shape), np.broadcast_to(bh, x.shape)
        k = np.flatnonzero((x < 0) | (y < 0) | (x + 3 * bw >= w1) | (y + 3 * bh >= h1))[0]
        raise BoundsError(
            f"the grid of {bw[k]}x{bh[k]} blocks at ({x[k]}, {y[k]}) "
            f"leaves the {w1 - 1}x{h1 - 1} table"
        )
    if buffers is None:
        buffers = GatherBuffers(x.size)
    return _codes(_gather(sums, x, y, bw, bh, buffers))


def _gather(sums, x, y, bw, bh, buffers) -> np.ndarray:
    """The (4, 4, n) prefix-table corners of the grids at (x, y), read into
    buffers. The flat index is built row by row in place, with no
    temporaries, and ``take`` wraps rather than checks: every index is
    already proven in range."""
    index, corners = buffers.views(x.size, sums.dtype)
    w1 = sums.shape[1]
    rows = index[:, 0]  # (4, n): the flat index of each grid row's left corner
    np.multiply(y, w1, out=rows[0])
    rows[0] += x
    np.multiply(bh, w1, out=rows[3])  # one block row, the step from row to row
    np.add(rows[0], rows[3], out=rows[1])
    np.add(rows[1], rows[3], out=rows[2])
    rows[3] += rows[2]
    for j in range(1, 4):
        np.add(index[:, j - 1], bw, out=index[:, j])
    return sums.take(index, mode="wrap", out=corners)


def _require_lattice(sums, x0, y0, sx, sy, nx, ny, bw, bh):
    """BoundsError unless every grid of bw x bh blocks at the origins
    (x0 + i*sx, y0 + j*sy), i < nx and j < ny, lies in the prefix table."""
    h1, w1 = sums.shape[:2]
    if (
        min(x0, y0) < 0
        or min(sx, sy, bw, bh) < 1
        or x0 + (nx - 1) * sx + 3 * bw >= w1
        or y0 + (ny - 1) * sy + 3 * bh >= h1
    ):
        raise BoundsError(f"a grid of {bw}x{bh} blocks leaves the {w1 - 1}x{h1 - 1} table")


def _corner_view(sums, x0, y0, sx, sy, nx, ny, bw, bh) -> np.ndarray:
    """Read-only view of the 16 grid corners at every origin of a lattice.

    The origins are (x0 + i*sx, y0 + j*sy) for i < nx and j < ny, and each
    holds a 3x3 grid of bw x bh blocks. sums is a prefix table shaped
    (h+1, w+1, *trailing), the trailing axes indexing independent tables
    (a stack of samples); the view is shaped (4, 4, ny, nx, *trailing), the
    layout ``_codes`` takes. It reads raw memory, so a grid that leaves the
    table is a BoundsError.
    """
    _require_lattice(sums, x0, y0, sx, sy, nx, ny, bw, bh)
    r0, r1, *trailing = sums.strides
    return np.lib.stride_tricks.as_strided(
        sums[y0:, x0:],
        shape=(4, 4, ny, nx, *sums.shape[2:]),
        strides=(bh * r0, bw * r1, sy * r0, sx * r1, *trailing),
        writeable=False,
    )


def _corner_blocks(sums, x0, y0, stride, nx, ny, bw, bh) -> np.ndarray:
    """The (3, 3, ny, nx) block sums of ``_lattice_blocks``, from the 16
    corners of each grid (``_corner_view``)."""
    return _blocks(_corner_view(sums, x0, y0, stride, stride, nx, ny, bw, bh))


def _lattice_blocks(sums, x0, y0, stride, nx, ny, bw, bh) -> np.ndarray:
    """Read-only (3, 3, ny, nx) view of the block sums of the grids of bw x
    bh blocks at the origins (x0 + i*stride, y0 + j*stride), i < nx and
    j < ny, over a 2-D prefix table.

    The view reads a table of every block sum at (x0 + i*gx, y0 + j*gy),
    gx = gcd(stride, bw) and gy = gcd(stride, bh): every block of every
    grid starts on that lattice. Four strided views of the prefix table and
    3 array operations make it. A grid that leaves the table is a
    BoundsError.
    """
    _require_lattice(sums, x0, y0, stride, stride, nx, ny, bw, bh)
    gx, gy = math.gcd(stride, bw), math.gcd(stride, bh)
    # block origins run to the right and bottom blocks of the last grid
    x1, y1 = x0 + (nx - 1) * stride + 2 * bw + 1, y0 + (ny - 1) * stride + 2 * bh + 1

    def corner(dx, dy):
        return sums[y0 + dy : y1 + dy : gy, x0 + dx : x1 + dx : gx]

    table = corner(bw, bh) - corner(0, bh)
    table -= corner(bw, 0) - corner(0, 0)
    r0, r1 = table.strides
    return np.lib.stride_tricks.as_strided(
        table,
        shape=(3, 3, ny, nx),
        strides=(bh // gy * r0, bw // gx * r1, stride // gy * r0, stride // gx * r1),
        writeable=False,
    )


def codes_stack(
    table: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    fbw: np.ndarray,
    fbh: np.ndarray,
) -> np.ndarray:
    """Codes for every (sample, feature) pair over a stack of prefix tables.

    table is (h+1, w+1, n_samples), the samples on the last axis
    (``imaging.prefix_sums`` of the stacked sample pixels); the feature
    arrays describe the full feature set at unit scale. Returns a
    C-contiguous (n_samples, n_features) uint8 array.

    Features sharing a block size share one code plane: the corners of
    every origin on the lattice spanned by that group's anchors are one
    ``_corner_view`` of the stack, so each group costs one ``_codes`` call,
    whose every loop runs over the contiguous samples, and a gather of its
    features' columns. A plane runs in chunks of samples whose temporaries
    stay within ``CODES_STACK_BYTES`` (one sample at least).
    """
    out = np.empty((table.shape[2], fx.size), dtype=np.uint8)
    if not fx.size:
        return out
    # the features of each block size, in feature order: sort stably by
    # (bw, bh) and cut where either changes
    order = np.lexsort((fbh, fbw))
    cuts = np.flatnonzero(np.diff(fbw[order]) | np.diff(fbh[order])) + 1
    for sel in np.split(order, cuts):
        bw, bh = int(fbw[sel[0]]), int(fbh[sel[0]])
        gx, gy = fx[sel], fy[sel]
        x0, y0 = int(gx.min()), int(gy.min())
        dx, dy = gx - x0, gy - y0
        # anchor lattice step; 1 for a lone anchor keeps the arithmetic valid
        sx, sy = int(np.gcd.reduce(dx)) or 1, int(np.gcd.reduce(dy)) or 1
        ix, iy = dx // sx, dy // sy
        nx, ny = int(ix.max()) + 1, int(iy.max()) + 1
        corners = _corner_view(table, x0, y0, sx, sy, nx, ny, bw, bh)
        step = max(1, CODES_STACK_BYTES // (nx * ny * CODE_TEMP_BYTES))
        for lo in range(0, out.shape[0], step):
            out[lo : lo + step, sel] = _codes(corners[..., lo : lo + step])[iy, ix].T
    return out


def _bound(acc, tail):
    """acc plus each vote of tail, added one by one in weak order (float64).

    Rounded addition is monotonic in each operand, so with acc a running
    vote sum and tail the largest votes of the weaks still to come, the
    result is never below the stage sum those weaks can give.
    """
    for m in tail:
        acc = acc + m
    return acc


@dataclass(frozen=True, eq=False)
class ScanPlan:
    """What the scan kernel reads besides the pixels, for every scale at once.

    Scale s scans the lattice of origins (ix*stride[s], iy*stride[s]) for
    ix < nx[s] and iy < ny[s]; its windows take flat mask positions
    start[s] .. start[s+1]-1, row-major. grid[:, s, f] is feature f's
    (x, y, bw, bh) at scale s, so grid[0] .. grid[3] are the fx, fy, fbw,
    fbh arrays of every scale stacked as (n_scales, n_features). The model
    arrays, which follow the module docstring, are derived from model.
    """

    model: CascadeModel
    stride: np.ndarray  # (n_scales,) int64
    nx: np.ndarray
    ny: np.ndarray
    grid: np.ndarray  # (4, n_scales, n_features) int64
    wfeat: np.ndarray = field(init=False)
    votes: np.ndarray = field(init=False)
    sbound: np.ndarray = field(init=False)
    sthr: np.ndarray = field(init=False)
    vmax: np.ndarray = field(init=False)
    wcheck: np.ndarray = field(init=False)
    start: np.ndarray = field(init=False)  # (n_scales + 1,) int64
    dense: int = field(init=False)
    reach: tuple = field(init=False)
    lattice: np.ndarray = field(init=False)  # (n_scales, dense) bool
    narrow: np.ndarray = field(init=False)  # (n_scales, dense) bool
    reuse: np.ndarray = field(init=False)  # (n_weaks,) bool
    buffers: GatherBuffers = field(init=False)

    def __post_init__(self):
        stages = self.model.stages
        weaks = [w for stage in stages for w in stage.weaks]
        votes = vote_table(weaks)
        sbound = np.cumsum([0] + [len(stage.weaks) for stage in stages], dtype=np.int64)
        sthr = np.array([stage.threshold for stage in stages], dtype=np.float64)
        vmin, vmax = votes.min(axis=1), votes.max(axis=1)
        # wcheck[k] is False when no window can fail the bound after weak k:
        # the stage's sequential sum of smallest votes through weak k,
        # bounded over the weaks after it, still reaches the stage threshold
        wcheck = np.zeros(vmax.size, dtype=bool)
        for si, thr in enumerate(sthr):
            lo = 0.0
            for k in range(sbound[si], sbound[si + 1]):
                lo += vmin[k]
                wcheck[k] = _bound(lo, vmax[k + 1 : sbound[si + 1]]) < thr
        checks = np.flatnonzero(wcheck[: sbound[1]])
        wfeat = np.array([w.feature_index for w in weaks], dtype=np.int64)
        dense = int(checks[0]) + 1 if checks.size else int(sbound[1])
        reuse = np.array(
            [f in wfeat[max(k + 1, dense) :] for k, f in enumerate(wfeat)], dtype=bool
        )
        fx, fy, fbw, fbh = self.grid
        stride, nx, ny = (a[:, None] for a in (self.stride, self.nx, self.ny))
        # the frame that holds every grid of every lattice; no grid starts
        # left of or above its origin, as no feature anchor is negative
        reach = [
            int(np.max((n - 1) * stride + f + 3 * b, initial=0))
            for n, f, b in ((nx, fx, fbw), (ny, fy, fbh))
        ]
        # per (scale, dense weak): read the block sums of a band from a
        # lattice table where it has fewer than 7 entries a window (3
        # operations an entry, against 21 a window from the corners)
        bw, bh = fbw[:, wfeat[:dense]], fbh[:, wfeat[:dense]]
        rows = np.minimum(ny, _band_rows(nx))
        entries = (((nx - 1) * stride + 2 * bw) // np.gcd(stride, bw) + 1) * (
            ((rows - 1) * stride + 2 * bh) // np.gcd(stride, bh) + 1
        )
        derived = dict(
            wfeat=wfeat, votes=votes, sbound=sbound, sthr=sthr, vmax=vmax, wcheck=wcheck,
            start=np.concatenate([[0], np.cumsum(self.nx * self.ny)]),
            dense=dense, reach=tuple(reach),
            lattice=entries < 7 * rows * nx,
            narrow=bw * bh <= NARROW_PIXELS,
            reuse=reuse, buffers=GatherBuffers(SCAN_CHUNK),
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def origins(self, idx: np.ndarray):
        """(scale index, x, y) of each flat mask position in idx."""
        s = np.searchsorted(self.start, idx, side="right") - 1
        iy, ix = np.divmod(idx - self.start[s], self.nx[s])
        stride = self.stride[s]
        return s, ix * stride, iy * stride


def _band_rows(nx):
    """Rows of a dense band over a lattice nx origins wide: whole rows of at
    most BAND_CHUNKS * SCAN_CHUNK origins, or one row."""
    return np.maximum(1, BAND_CHUNKS * SCAN_CHUNK // np.maximum(nx, 1))


def _band_blocks(sums, narrow, plan, s, wi, top, rows):
    """(3, 3, rows, nx) block sums of stage 0's weak wi over rows top ..
    top+rows-1 of scale s's lattice, read from the prefix table sums or its
    uint16 copy narrow, through a lattice table or the corners, as the plan
    chose."""
    stride, nx = int(plan.stride[s]), int(plan.nx[s])
    fx, fy, fbw, fbh = plan.grid[:, s, plan.wfeat[wi]].tolist()
    table = narrow if plan.narrow[s, wi] else sums
    read = _lattice_blocks if plan.lattice[s, wi] else _corner_blocks
    return read(table, fx, top * stride + fy, stride, nx, rows, fbw, fbh)


def _dense_band(sums, narrow, plan, s, top, rows):
    """Flat mask positions, partial sums and codes of the n origins in rows
    top .. top+rows-1 of scale s's lattice that pass stage 0's first
    ``plan.dense`` weaks, each read densely (``_band_blocks``), and the
    check after the last of them. The codes are (k, n), one row for each of
    the k dense weaks whose feature a later weak reads again
    (``plan.reuse``). A band is one call so that its arrays are freed before
    the next band's are made: held across bands, they made the allocator
    hand back and fault in again about 6 MB a frame on track.
    """
    nx = int(plan.nx[s])
    reused = []
    for wi in range(plan.dense):
        codes = _pattern(_band_blocks(sums, narrow, plan, s, wi, top, rows)).reshape(-1)
        v = plan.votes[wi].take(codes)
        acc = v if wi == 0 else acc + v
        if plan.reuse[wi]:
            reused.append(codes)
    codes = np.array(reused, dtype=np.uint8).reshape(len(reused), rows * nx)
    first = plan.start[s] + top * nx
    if not plan.wcheck[plan.dense - 1]:
        return first + np.arange(rows * nx), acc, codes
    keep = np.flatnonzero(_bound(acc, plan.vmax[plan.dense : plan.sbound[1]]) >= plan.sthr[0])
    return first + keep, acc.take(keep), codes.take(keep, axis=1)


def _dense_prefix(sums, narrow, plan):
    """``_dense_band`` over every band of every lattice (``_band_rows``).
    Yields the survivors, scale-major, in chunks of exactly SCAN_CHUNK
    windows but the last, so that every gather but a frame's last is a
    full one."""
    pool, count = [], 0
    for s in range(plan.stride.size):
        nx, ny = int(plan.nx[s]), int(plan.ny[s])
        if nx < 1:
            continue  # no origins
        rows = int(_band_rows(nx))
        for top in range(0, ny, rows):
            pool.append(_dense_band(sums, narrow, plan, s, top, min(rows, ny - top)))
            count += pool[-1][0].size
            while count >= SCAN_CHUNK:
                idx, acc, codes = (np.concatenate(a, axis=-1) for a in zip(*pool))
                yield idx[:SCAN_CHUNK], acc[:SCAN_CHUNK], codes[:, :SCAN_CHUNK]
                pool = [(idx[SCAN_CHUNK:], acc[SCAN_CHUNK:], codes[:, SCAN_CHUNK:])]
                count -= SCAN_CHUNK
    if count:
        yield [np.concatenate(a, axis=-1) for a in zip(*pool)]


def _later_weaks(sums, plan, idx, acc, codes):
    """Flat positions of the windows at idx, any scales, that pass every
    weak after the dense prefix: the rest of stage 0, from the partial
    sums acc, then stages 1+. codes holds the windows' codes of the dense
    weaks whose feature a later weak reads again (``_dense_band``).

    Each window's code of a feature is made once: a memo keyed by feature
    holds the codes a later weak will read again, the dense ones first,
    filtered with the windows at each check. A feature not in it is one
    ``codes_at`` gather, with block sizes per window from the plan, into
    the plan's buffers.
    """
    s, x, y = plan.origins(idx)
    dense = plan.dense
    memo = dict(zip(plan.wfeat[:dense][plan.reuse[:dense]].tolist(), codes))
    for si in range(plan.sthr.size):
        first, end = plan.sbound[si], plan.sbound[si + 1]
        for wi in range(max(first, dense), end):
            f = int(plan.wfeat[wi])
            c = memo.pop(f, None)
            if c is None:
                fx, fy, fbw, fbh = plan.grid[:, :, f].take(s, axis=1)
                c = codes_at(sums, x + fx, y + fy, fbw, fbh, False, buffers=plan.buffers)
            if plan.reuse[wi]:
                memo[f] = c
            v = plan.votes[wi].take(c)
            acc = v if wi == first else acc + v
            if plan.wcheck[wi]:
                keep = np.flatnonzero(_bound(acc, plan.vmax[wi + 1 : end]) >= plan.sthr[si])
                idx, s, x, y, acc = (a.take(keep) for a in (idx, s, x, y, acc))
                if not idx.size:
                    return idx
                memo = {f: c.take(keep) for f, c in memo.items()}
    return idx


def scan_lattices(sums, plan: ScanPlan) -> np.ndarray:
    """Cascade acceptance over every lattice of a plan, vectorized numpy.

    Returns one flat bool mask over all scales' lattices (see ScanPlan);
    True where every stage sum met its threshold. A table smaller than the
    plan's reach is a BoundsError, checked once here: the gathers after it
    skip their own check. The dense prefix's survivors run the later weaks
    in chunks of SCAN_CHUNK.
    """
    (w, h), (h1, w1) = plan.reach, sums.shape
    if w >= w1 or h >= h1:
        raise BoundsError(f"the plan's grids reach {w}x{h}, past the {w1 - 1}x{h1 - 1} table")
    # block sums of at most NARROW_PIXELS are exact mod 2**16 (module docstring)
    narrow = sums.astype(np.uint16) if plan.narrow.any() else None
    mask = np.zeros(int(plan.start[-1]), dtype=bool)
    for idx, acc, codes in _dense_prefix(sums, narrow, plan):
        mask[_later_weaks(sums, plan, idx, acc, codes)] = True
    return mask
