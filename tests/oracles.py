"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles (direct pixel
slicing, brute-force enumeration, graph closure) without touching the
package's integral tables, kernels, or grouping search, so agreement is
meaningful.
"""

import math

import numpy as np


def round_half_up(x):
    return int(math.floor(x + 0.5))


def naive_rect_sum(pixels: np.ndarray, x: int, y: int, w: int, h: int) -> int:
    """Pixel sum by direct slicing; no prefix table involved."""
    return int(pixels[y : y + h, x : x + w].astype(np.int64).sum())


def naive_lbp_code(pixels: np.ndarray, bx, by, bw, bh, origin, scale) -> int:
    """Pattern code from per-block pixel sums computed by slicing."""
    x = origin[0] + round_half_up(bx * scale)
    y = origin[1] + round_half_up(by * scale)
    sbw = max(1, round_half_up(bw * scale))
    sbh = max(1, round_half_up(bh * scale))
    sums = [
        [naive_rect_sum(pixels, x + j * sbw, y + i * sbh, sbw, sbh) for j in range(3)]
        for i in range(3)
    ]
    center = sums[1][1]
    ring = [
        sums[0][0], sums[0][1], sums[0][2], sums[1][2],
        sums[2][2], sums[2][1], sums[2][0], sums[1][0],
    ]
    code = 0
    for bit, value in zip(range(7, -1, -1), ring):
        if value >= center:
            code |= 1 << bit
    return code


def count_features(window_w: int, window_h: int, stride: int) -> int:
    """Brute-force feature count: anchors on the stride grid, all block sizes."""
    count = 0
    for bh in range(1, window_h + 1):
        for bw in range(1, window_w + 1):
            if 3 * bw > window_w or 3 * bh > window_h:
                continue
            for by in range(0, window_h + 1, stride):
                for bx in range(0, window_w + 1, stride):
                    if bx + 3 * bw <= window_w and by + 3 * bh <= window_h:
                        count += 1
    return count


def brute_features(window_w: int, window_h: int, stride: int) -> list:
    """Brute-force feature rows (bx, by, bw, bh) in the order bh, bw, by, bx."""
    return [
        (bx, by, bw, bh)
        for bh in range(1, window_h // 3 + 1)
        for bw in range(1, window_w // 3 + 1)
        for by in range(0, window_h - 3 * bh + 1, stride)
        for bx in range(0, window_w - 3 * bw + 1, stride)
    ]


def exhaustive_best_error(codes: np.ndarray, positive: np.ndarray, weights: np.ndarray):
    """Minimum weighted error over every (feature, subset-of-codes) choice.

    codes is (n_samples, n_features). For one feature only the codes that
    actually occur matter, so subsets range over the observed values.
    """
    best = math.inf
    n, nf = codes.shape
    for f in range(nf):
        observed = sorted(set(int(c) for c in codes[:, f]))
        for mask in range(1 << len(observed)):
            subset = {c for k, c in enumerate(observed) if mask >> k & 1}
            err = 0.0
            for i in range(n):
                predicted_pos = int(codes[i, f]) in subset
                if predicted_pos != bool(positive[i]):
                    err += weights[i]
            best = min(best, err)
    return best


def bincount_weak_search(codes: np.ndarray, positive: np.ndarray, weights: np.ndarray):
    """Reference weak search: each class's mass table from its own bincount.

    codes is (n_samples, n_features) uint8. The mass at (f, c) is summed
    over the class's rows in sample order. Returns the first feature of
    minimal error sum(min(pos_mass, neg_mass)), the codes whose positive
    mass strictly exceeds the negative mass there, and that error.
    """
    nf = codes.shape[1]
    idx = codes.astype(np.int64) + np.arange(nf, dtype=np.int64)[None, :] * 256

    def mass(rows):
        sel = idx[rows]
        wsel = np.broadcast_to(weights[rows][:, None], sel.shape)
        return np.bincount(sel.ravel(), weights=wsel.ravel(), minlength=nf * 256).reshape(
            nf, 256
        )

    pos_mass = mass(positive)
    neg_mass = mass(~positive)
    errors = np.minimum(pos_mass, neg_mass).sum(axis=1)
    f = int(np.argmin(errors))
    in_codes = [int(c) for c in np.nonzero(pos_mass[f] > neg_mass[f])[0]]
    return f, in_codes, float(errors[f])


def similar_rects(r, q, eps: float) -> bool:
    """Grouping similarity: each pair of edges within eps of the pair's mean size."""
    dw = eps * (r.w + q.w) / 2.0
    dh = eps * (r.h + q.h) / 2.0
    return (
        abs(r.x - q.x) <= dw
        and abs((r.x + r.w) - (q.x + q.w)) <= dw
        and abs(r.y - q.y) <= dh
        and abs((r.y + r.h) - (q.y + q.h)) <= dh
    )


def closure_partition(rects, similar) -> list[set]:
    """Transitive closure of a similarity relation by breadth-first search."""
    n = len(rects)
    seen = [False] * n
    classes = []
    for start in range(n):
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        members = set()
        while queue:
            i = queue.pop()
            members.add(i)
            for j in range(n):
                if not seen[j] and (similar(rects[i], rects[j]) or similar(rects[j], rects[i])):
                    seen[j] = True
                    queue.append(j)
        classes.append(members)
    return classes
