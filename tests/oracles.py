"""Independent brute-force references the fast implementations are tested
against.

Everything here favors obviousness over speed: exhaustive enumeration,
double loops, and exact summation.  None of it imports the modules under
test beyond plain data types.
"""

from __future__ import annotations

import math

import numpy as np

from pseudobound import StumpHypothesis


def candidate_thresholds(xs: np.ndarray) -> np.ndarray:
    """Midpoints of consecutive distinct sorted values plus both infinities.

    Where a midpoint rounds up to the upper value or overflows, the lower
    value stands in: any t with lo <= t < hi splits the two.
    """
    vals = np.unique(xs)
    lo, hi = vals[:-1], vals[1:]
    with np.errstate(over="ignore"):
        mids = 0.5 * (lo + hi)
    mids = np.where((lo <= mids) & (mids < hi), mids, lo)
    return np.concatenate(([-np.inf], mids, [np.inf]))


def erm_grid_oracle(feats: np.ndarray, cost_pos: np.ndarray,
                    cost_neg: np.ndarray) -> float:
    """Minimum stump cost by scoring every (coordinate, threshold, sign)."""
    x = np.asarray(feats, float)
    best = math.inf
    for j in range(x.shape[1]):
        for t in candidate_thresholds(x[:, j]):
            above = x[:, j] > t
            for s in (1, -1):
                pred_pos = above if s == 1 else ~above
                cost = math.fsum(np.where(pred_pos, cost_pos, cost_neg).tolist())
                best = min(best, cost)
    return best


def erm_stable_scan_oracle(feats: np.ndarray, cost_pos: np.ndarray,
                           cost_neg: np.ndarray) -> tuple:
    """(stump, cost) of exact ERM scored as a stable-sort scan would score it.

    Each coordinate is sorted stably (equal values, +-0.0 included, keep
    their input order) and priced by running sums accumulated left to right
    and right to left in plain floats.  Cut k puts the first k sorted points
    below the threshold; cuts between equal values are skipped.  The first
    strictly cheaper (coordinate, cut, sign +1 then -1) wins; the threshold
    is the midpoint of the values around the cut, or the lower value where
    the midpoint rounds up or overflows; the cost is re-summed with fsum.
    """
    x = np.asarray(feats, float)
    cp = [float(c) for c in cost_pos]
    cn = [float(c) for c in cost_neg]
    n, q = x.shape
    best = None
    for j in range(q):
        col = [float(v) for v in x[:, j]]
        order = sorted(range(n), key=col.__getitem__)   # stable
        xs = [col[i] for i in order]
        pre_cp, pre_cn = [0.0], [0.0]
        for i in order:
            pre_cp.append(pre_cp[-1] + cp[i])
            pre_cn.append(pre_cn[-1] + cn[i])
        suf_cp, suf_cn = [0.0], [0.0]
        for i in reversed(order):
            suf_cp.append(suf_cp[-1] + cp[i])
            suf_cn.append(suf_cn[-1] + cn[i])
        for k in range(n + 1):
            if 0 < k < n and not xs[k] > xs[k - 1]:
                continue
            for s, cost in ((1, pre_cn[k] + suf_cp[n - k]),
                            (-1, pre_cp[k] + suf_cn[n - k])):
                if best is None or cost < best[0]:
                    best = (cost, j, k, s, xs)
    _, j, k, s, xs = best
    if k == 0:
        t = -math.inf
    elif k == n:
        t = math.inf
    else:
        lo, hi = xs[k - 1], xs[k]
        mid = 0.5 * (lo + hi)      # inf on overflow
        t = mid if lo <= mid < hi else lo
    above = x[:, j] > t
    chosen = [cp[i] if above[i] == (s == 1) else cn[i] for i in range(n)]
    return StumpHypothesis(j, t, s), math.fsum(chosen)


def all_stumps(feats: np.ndarray) -> list:
    """Every behaviorally distinct stump on the given feature set."""
    x = np.asarray(feats, float)
    stumps = []
    for j in range(x.shape[1]):
        for t in candidate_thresholds(x[:, j]):
            for s in (1, -1):
                stumps.append(StumpHypothesis(j, float(t), s))
    return stumps


def h_delta_h_oracle(source_feats: np.ndarray,
                     target_feats: np.ndarray) -> float:
    """2 max over stump pairs of |Pr_S[h != h'] - Pr_T[h != h']|.

    Candidate thresholds come from the pooled values, where every empirical
    disagreement probability is realized.  Disagreement counts fall out of
    the +-1 prediction Gram matrix: predictions agree minus disagree equals
    the inner product.
    """
    sf = np.asarray(source_feats, float)
    tf = np.asarray(target_feats, float)
    stumps = all_stumps(np.vstack([sf, tf]))
    pred_s = np.stack([h.predict(sf) for h in stumps]).astype(np.int64)
    pred_t = np.stack([h.predict(tf) for h in stumps]).astype(np.int64)
    n_s, n_t = len(sf), len(tf)
    dis_s = (n_s - pred_s @ pred_s.T) // 2
    dis_t = (n_t - pred_t @ pred_t.T) // 2
    gap = np.abs(dis_s * n_t - dis_t * n_s)
    return 2.0 * int(gap.max()) / (n_s * n_t)


def h_delta_h_grid_oracle(source_feats: np.ndarray,
                          target_feats: np.ndarray) -> int:
    """max over stump pairs of |n_T*(#S in region) - n_S*(#T in region)|.

    Same-coordinate pairs disagree on a value slab, cross-coordinate pairs
    on a half-space XOR; complements score identically because the total
    signed weight is zero, so slabs and XORs cover every case.  Each
    coordinate pair materializes its whole (k1+1) x (k2+1) prefix-sum grid,
    the direct form of the row-blocked sweep in discrepancy.py.
    """
    n_s, n_t = len(source_feats), len(target_feats)
    pooled = np.vstack([source_feats, target_feats])
    weights = np.concatenate([
        np.full(n_s, n_t, dtype=np.int64),
        np.full(n_t, -n_s, dtype=np.int64),
    ])
    n, q = pooled.shape

    cut_sums = []    # per coordinate: signed weight below each distinct-value cut
    ranks = []       # per coordinate: distinct-value rank of every point
    best = 0
    for j in range(q):
        order = np.argsort(pooled[:, j], kind="stable")
        xs = pooled[order, j]
        prefix = np.concatenate(([0], np.cumsum(weights[order])))
        interior = np.flatnonzero(xs[1:] > xs[:-1]) + 1
        cuts = np.concatenate(([0], interior, [n]))
        sums = prefix[cuts]
        cut_sums.append(sums)
        uniq, rank = np.unique(pooled[:, j], return_inverse=True)
        ranks.append(rank)
        best = max(best, int(sums.max() - sums.min()))

    for j1 in range(q):
        for j2 in range(j1 + 1, q):
            k1 = len(cut_sums[j1]) - 1
            k2 = len(cut_sums[j2]) - 1
            grid = np.zeros((k1 + 1, k2 + 1), dtype=np.int64)
            np.add.at(grid, (ranks[j1] + 1, ranks[j2] + 1), weights)
            grid = grid.cumsum(axis=0).cumsum(axis=1)
            # weight(below_a XOR below_b) = row(a) + col(b) - 2*grid[a, b]
            xor = grid[:, -1][:, None] + grid[-1, :][None, :] - 2 * grid
            best = max(best, int(np.abs(xor).max()))
    return best


def xor_block_maxima(source_feats: np.ndarray, target_feats: np.ndarray,
                     j1: int, j2: int, rows: int) -> np.ndarray:
    """Per row block of coordinate j1, the largest |F(a, b)| of the XOR of
    cut a of j1 and cut b of j2 over the block's rows a (its top row iB to
    the next block's top, or the last cut k1) and every column b.

    F is the signed weight (source +n_T, target -n_S) in the XOR region, read
    off the whole (k1+1) x (k2+1) prefix-sum grid, as in
    ``h_delta_h_grid_oracle``; rows come in blocks of ``rows`` cuts.
    """
    n_s, n_t = len(source_feats), len(target_feats)
    pooled = np.vstack([source_feats, target_feats])
    weights = np.concatenate([np.full(n_s, n_t), np.full(n_t, -n_s)]).astype(np.int64)
    _, rank1 = np.unique(pooled[:, j1], return_inverse=True)
    _, rank2 = np.unique(pooled[:, j2], return_inverse=True)
    k1, k2 = rank1.max() + 1, rank2.max() + 1
    grid = np.zeros((k1 + 1, k2 + 1), dtype=np.int64)
    np.add.at(grid, (rank1 + 1, rank2 + 1), weights)
    grid = grid.cumsum(axis=0).cumsum(axis=1)
    xor = np.abs(grid[:, -1][:, None] + grid[-1, :][None, :] - 2 * grid)
    return np.array([xor[top:top + rows + 1].max() for top in range(0, k1, rows)])


def dbscan_oracle(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Density-connectivity closure, written set-theoretically.

    Core points: at least min_pts neighbors within eps (self included,
    boundary inclusive).  Clusters are connected components of the
    core-core neighbor graph, numbered by each component's smallest core
    index; a border point joins the lowest-numbered cluster among its core
    neighbors.  Everything else is noise (-1).
    """
    x = np.atleast_2d(np.asarray(points, float))
    n = len(x)
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    within = d2 <= eps * eps
    core = within.sum(axis=1) >= min_pts

    comp = {}
    next_id = 0
    for i in range(n):
        if not core[i] or i in comp:
            continue
        stack = [i]
        comp[i] = next_id
        while stack:
            a = stack.pop()
            for b in np.flatnonzero(within[a] & core):
                if b not in comp:
                    comp[int(b)] = next_id
                    stack.append(int(b))
        next_id += 1

    labels = np.full(n, -1, dtype=int)
    for i, c in comp.items():
        labels[i] = c
    for i in range(n):
        if core[i]:
            continue
        owners = [comp[int(j)] for j in np.flatnonzero(within[i] & core)]
        if owners:
            labels[i] = min(owners)
    return labels


def sq_dists_by_column(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Squared distances as ``_sq_dists`` formed them before it gathered
    whole rows: a's strict upper triangle one column at a time, or every
    (a, b) pair by per-column outer differences, each row summed by einsum."""
    if b is None:
        i, j = np.triu_indices(len(a), k=1)
        diff = np.stack([col.take(i) - col.take(j) for col in a.T], axis=1)
    else:
        diff = np.empty((len(a), len(b), a.shape[1]))
        for k in range(a.shape[1]):
            np.subtract.outer(a[:, k], b[:, k], out=diff[:, :, k])
        diff = diff.reshape(-1, a.shape[1])
    return np.einsum("ij,ij->i", diff, diff)


def mmd_oracle(x: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """Biased-statistic MMD^2 as three explicit double loops."""
    x = np.atleast_2d(np.asarray(x, float))
    y = np.atleast_2d(np.asarray(y, float))

    def block(a, b):
        terms = []
        for u in a:
            for v in b:
                d2 = float(((u - v) ** 2).sum())
                terms.append(math.exp(-d2 / (2.0 * sigma * sigma)))
        return math.fsum(terms) / (len(a) * len(b))

    return block(x, x) + block(y, y) - 2.0 * block(x, y)


def exact_risk(hypothesis, spec, strategy, big_m: float) -> float:
    """Population 0-M risk of one stump, one identity pair at a time: the
    scalar form of ``exact_risks``' formula, which it must equal bit for bit.

    Coordinate j of the (a, b) member difference is N(mu, r^2 / 2) with
    r = 2 sigma |A_j| and mu = (c_a - c_b) . A_j; the stump misses on the
    tail mass beyond t when the label is -s and on the rest when it is s.
    Weights: 1/n^2 each under ``all``; under ``balanced(k)`` 1/((1+k) n)
    per (a, a) and k/((1+k) n (n-1)) per ordered (a, b), a != b.
    """
    j, t, s = hypothesis.coordinate, hypothesis.threshold, hypothesis.sign
    n = spec.num_identities
    if strategy.kind == "balanced":
        k = strategy.k_neg_per_pos
        w_pos, w_neg = 1.0 / ((1 + k) * n), k / ((1 + k) * n * (n - 1))
    else:
        w_pos = w_neg = 1.0 / (n * n)
    row = spec.domain_transform.matrix[j]
    r = 2.0 * spec.within_identity_stddev * math.sqrt(math.fsum((row * row).tolist()))
    proj = spec.identity_centers @ row

    def miss(x: float, label: int) -> float:
        """Mass of the component with |mean| x on which the stump errs."""
        if t < 0 or r == 0.0:  # |D_j| > t surely, or D_j is a point mass
            return float((x > t) != (label == s))
        if label == s:
            return 0.5 * (math.erfc((x - t) / r) - math.erfc((x + t) / r))
        return 0.5 * (math.erfc((t - x) / r) + math.erfc((t + x) / r))

    return big_m * math.fsum(
        w_pos * miss(0.0, 1) if a == b else w_neg * miss(abs(mu), -1)
        for a, mu_row in enumerate((proj[:, None] - proj[None, :]).tolist())
        for b, mu in enumerate(mu_row))


def brute_force_min_exact_risk(specs, strategy, big_m: float,
                               points: int = 2001) -> float:
    """min over a threshold grid of sum_k exact_risk(h, specs[k]).

    Each coordinate and sign is scored at ``points`` thresholds evenly
    spaced from 0 to 4 mixture widths past the largest |mean| any spec puts
    on that coordinate.
    """
    best = math.inf
    for j in range(specs[0].feature_dim):
        top = 0.0
        for spec in specs:
            row = spec.domain_transform.matrix[j]
            proj = spec.identity_centers @ row
            width = 2.0 * spec.within_identity_stddev * math.sqrt(float(row @ row))
            top = max(top, float(proj.max() - proj.min()) + 4.0 * width)
        for t in np.linspace(0.0, top, points):
            for s in (1, -1):
                h = StumpHypothesis(j, float(t), s)
                best = min(best, sum(exact_risk(h, spec, strategy, big_m)
                                     for spec in specs))
    return best


def mapped_similarity_reference(features: np.ndarray, member_indices: np.ndarray,
                                matrix: np.ndarray | None, offset: np.ndarray | None,
                                normalize: bool) -> np.ndarray:
    """Mapped pair similarities as the oracle formed them from copies: the
    members' alignment map (x @ matrix.T + offset) if given, then a divided
    copy onto the unit sphere if asked, then |a - b| from two row gathers."""
    feats = np.asarray(features, float)
    if matrix is not None:
        feats = feats @ matrix.T + offset
    if normalize:
        feats = feats / np.maximum(np.linalg.norm(feats, axis=-1, keepdims=True), 1e-12)
    return np.abs(feats[member_indices[:, 0]] - feats[member_indices[:, 1]])
