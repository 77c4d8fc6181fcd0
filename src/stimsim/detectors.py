"""Receivers for the block model y = H x + n.

Four detectors share one result type: exact ML over all encodable frames,
a plain MMSE receiver, and the two- and three-stage message-passing
detectors. The message-passing stages approximate slot-interference as
Gaussian and run a damped schedule of at most ``MpParams.max_iterations``
iterations, which a frame leaves early once no message moves more than
``_CONVERGENCE_TOL``; all message arithmetic is done in the log domain and
renormalized per message.

Detectors take the channel as its ``cfg.l_taps`` taps, and none forms the
block-circulant H. ML forms G = H^H H and H^H y from the taps, the MMSE
stage solves per DFT frequency, and the message passing runs on the band
only: block row r of H meets slot (r - l) mod N through tap l, so each
slot has L n_r observation edges and one iteration costs O(N L n_r). An
off-band observation sends a slot a message that is constant over its
values, which normalization removes, so leaving those edges out changes no
belief.

Every detector runs on a batch of frames stacked on a leading axis: y of
shape (B, N n_r) with taps of shape (B, L, n_r, n_t), one realization per
frame; one frame is the batch of B = 1. No arithmetic crosses frames, so a
frame's result does not depend on the batch it is in. Message passing
stops per frame: a frame whose messages have settled keeps its state while
the others iterate. Their ``iterations_run`` counts the iterations of the
call's loop (the largest per-frame count) and ``frame_iterations`` each
frame's own; every other per-frame diagnostic carries the batch axis. ML
factors every (frame, slot pattern) block of G at once and runs one
breadth-first sphere search for the chunk, descending a level that keeps
too many nodes in pieces; no frame's leaves depend on the others or on
the pieces.

The message-passing tensors put the long axis last: an edge tensor is
(candidate, tap, rx, frame-slot) with the frames' slots one after another
on the last axis (f = frame * N + slot), so every elementwise step and
every sum over candidates, taps or rx runs numpy's inner loop over all
B N slots of the chunk. Each detector call allocates its edge-sized
buffers once and its iterations write into them with ``out=``. Every such
sum is ``np.add.reduce`` over an axis that is not innermost, so numpy adds
its terms in turn, one frame-slot at a time: a frame-slot's sum does not
depend on where it sits on the last axis, or on the other frames of the
chunk. The public results keep their (B, ...) shapes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import band_index
from .codec import StimConfig, bit_partition, decode_frame, rank_to_sap, repair_sap, sap_to_rank

DEFAULT_ML_CAP = 2**22

# regularizer for the MMSE solve when sigma2 = 0
_ZF_EPS = 1e-12

# early exit once no message moves more than this between iterations
_CONVERGENCE_TOL = 1e-6

# the sphere search's ridge and tolerance, relative to G's mean diagonal and
# a frame's metric scale, the most nodes it descends a level with at once,
# and the most complex values it gathers at once to score them (_ml_sphere)
_ML_RIDGE = 1e-9
_ML_TOL = 1e-10
_ML_FRONTIER = 2**14
_ML_BLOCK = 2**15


@dataclass(frozen=True)
class MpParams:
    """Message-passing schedule: iteration count and damping factor."""

    max_iterations: int = 10
    damping: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class DetectionResult:
    bits: np.ndarray
    sap: np.ndarray
    antennas: np.ndarray
    symbols: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _normalize_log_rows(logw: np.ndarray) -> np.ndarray:
    """Log weights over the leading axis -> pmfs over it, in place (logw is
    overwritten), guarding against total underflow."""
    m = np.maximum.reduce(logw, axis=0)
    # a pmf with a finite max sums to >= 1; any other becomes uniform
    finite = np.isfinite(m)
    every = bool(finite.all())
    w = np.exp(np.subtract(logw, m if every else np.where(finite, m, 0.0), out=logw), out=logw)
    if not every:
        w[:, ~finite] = 1.0
    w /= np.add.reduce(w, axis=0)
    return w


def _finalize(sap, antennas, symbols, cfg, diagnostics) -> DetectionResult:
    """Bits of a batch of decisions whose slot patterns are already encodable."""
    return DetectionResult(decode_frame(sap, antennas, symbols, cfg), sap, antennas, symbols, diagnostics)


def _pick_slots(scores: np.ndarray, ant_idx: np.ndarray, cfg: StimConfig):
    """(sap, antennas, repaired) from (B, N) slot scores and antenna picks:
    each frame's k best-scoring slots (ties to the lower slot) in increasing
    order, their antennas, and whether the pattern was out of range. The
    ranks of the whole batch are checked at once; repair_sap runs on the
    frames whose pattern is out of range, with their scores."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    sap = np.sort(order[:, : cfg.k], axis=-1)
    repaired = sap_to_rank(sap, cfg.n_slots) >= 1 << bit_partition(cfg).slot_bits
    for i in np.flatnonzero(repaired):
        sap[i] = repair_sap(sap[i], cfg, scores[i])[0]
    return sap, np.take_along_axis(ant_idx, sap, axis=1), repaired


def _check_channel(y: np.ndarray, taps: np.ndarray, cfg: StimConfig) -> None:
    """Reject input that is not a batch of frames whose channels and received
    vectors fit cfg."""
    want, size = (cfg.l_taps, cfg.n_r, cfg.n_t), cfg.n_slots * cfg.n_r
    if taps.shape[1:] != want or y.shape[1:] != (size,):
        raise ValueError(f"channel taps {taps.shape} and y {y.shape} do not fit the config, "
                         f"which needs a batch of B frames: taps (B, {', '.join(map(str, want))}) "
                         f"and y (B, {size})")
    _check_batch(y, taps)


def _check_batch(y: np.ndarray, taps: np.ndarray) -> None:
    """Reject input that is not a batch of frames with one channel each:
    y (B, N n_r) and taps (B, L, n_r, n_t), for any config."""
    if taps.ndim != 4 or y.ndim != 2 or y.shape[1] % taps.shape[2]:
        raise ValueError(f"need a batch of B frames: y (B, N n_r) and taps (B, L, n_r, n_t), "
                         f"got y {y.shape} and taps {taps.shape}")
    if taps.shape[0] != y.shape[0]:
        raise ValueError(f"{taps.shape[0]} channels for {y.shape[0]} frames")


@functools.lru_cache(maxsize=16)
def _edge_maps(n_frames: int, n_slots: int, l_taps: int) -> tuple[np.ndarray, np.ndarray]:
    """band_index for a chunk, as indices into the flat frame-slot axis
    f = frame * N + slot of the message-passing layout, both shaped (L, B N).

    The tap-l edge of block row f meets slot edge_slot[l, f], and the
    tap-l edge of slot f sits at obs_at[l, f] of a (tap, frame-slot) plane
    flattened to one axis. The maps are shared, so they are read-only.
    """
    slot_of, obs_of = band_index(n_slots, l_taps)
    f = n_frames * n_slots
    base = np.arange(n_frames)[:, None] * n_slots
    edge_slot = (base + slot_of.T[:, None, :]).reshape(l_taps, f)
    obs_at = (base + obs_of.T[:, None, :]).reshape(l_taps, f) + f * np.arange(l_taps)[:, None]
    for m in (edge_slot, obs_at):
        m.setflags(write=False)
    return edge_slot, obs_at


def _slot_totals(n_vals: int, obs_at: np.ndarray):
    """totals(per_edge): (value, tap, rx, frame-slot) edge terms with n_vals
    values -> (value, frame-slot) sums over each slot's edges (obs_at, from
    _edge_maps): over rx first, then over the L taps. The step owns its
    buffers, so its result is overwritten at the next call."""
    l_taps, f = obs_at.shape
    per_tap, gathered = np.empty((n_vals, l_taps, f)), np.empty((n_vals, l_taps, f))
    out = np.empty((n_vals, f))

    def totals(per_edge):
        np.add.reduce(per_edge, axis=2, out=per_tap)
        np.take(per_tap.reshape(n_vals, -1), obs_at, axis=1, out=gathered)
        return np.add.reduce(gathered, axis=1, out=out)

    return totals


def _observation_step(y: np.ndarray, n_r: int, sigma2: float):
    """step(means, variances, gains, diff, out): the log messages
    -|y - mu - gain|^2 / s2 of a chunk y (B, N n_r) into out, shaped (value,
    tap, rx, frame-slot) like gains and the scratch diff. An edge's mu and s2
    are the (tap, rx, frame-slot) interference moments summed over the taps
    less its own (both overwritten); s2 adds sigma2 and is at least _ZF_EPS."""
    b = len(y)
    y_t = np.ascontiguousarray(y.reshape(b, -1, n_r).transpose(2, 0, 1)).reshape(n_r, -1)
    mean_sum, var_sum = np.empty(y_t.shape, complex), np.empty(y_t.shape)

    def step(means, variances, gains, diff, out):
        mu = np.subtract(np.add.reduce(means, axis=0, out=mean_sum), means, out=means)
        s2 = np.subtract(np.add.reduce(variances, axis=0, out=var_sum), variances, out=variances)
        s2 += sigma2
        s2.clip(min=_ZF_EPS, out=s2)
        np.subtract(np.subtract(y_t, mu, out=mu), gains, out=diff)
        np.square(np.abs(diff, out=out), out=out)
        out /= s2
        return np.negative(out, out=out)

    return step


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


@functools.cache
def _ml_patterns(cfg: StimConfig) -> tuple[np.ndarray, np.ndarray]:
    """(saps, at), read-only: each encodable slot pattern rank's used slots,
    and (rank, k n_t + 1, k n_t + 1) places in a frame's complex entries
    (_ml_entries) and one value d of the lower triangle of
    conj([[G_S, c_S], [c_S^H, d]]), with G_S, c_S the pattern's part."""
    n_t, n_slots, k, n_rank = cfg.n_t, cfg.n_slots, cfg.k, 1 << bit_partition(cfg).slot_bits
    saps = rank_to_sap(np.arange(n_rank), n_slots, k)
    slot, ant, kn = saps.repeat(n_t, axis=1), np.tile(np.arange(n_t), k), k * n_t
    at = np.full((n_rank, kn + 1, kn + 1), n_slots * n_t * (n_t + 1))  # d
    # row i, column j: G_S[j, i] = g[(s_j - s_i) mod N][a_j, a_i]
    at[:, :kn, :kn] = ((slot[:, None] - slot[:, :, None]) % n_slots * n_t + ant) * n_t + ant[:, None]
    at[:, kn, :kn] = n_slots * n_t * n_t + slot * n_t + ant
    for table in (saps, at):
        table.setflags(write=False)
    return saps, at


def _ml_entries(y: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Each frame's G = H^H H and c = H^H y from its taps, as real rows
    (B, 2 (N n_t^2 + N n_t)): the real view of [g_0, ..., g_{N-1}, c].

    H is block-circulant, so G is too: block (s, s') is the n_t x n_t
    g[(s - s') mod N], with g[m] the sum of taps[j]^H taps[j'] over the tap
    pairs with j' - j = m (mod N); at N < 2L - 1 pairs of both signs of
    j' - j fall on one m. Block column s of H holds tap l in block row
    (s + l) mod N (band_index), so c_s = sum_l taps[l]^H y_{(s + l) mod N}.
    """
    b, l_taps, n_r, n_t = taps.shape
    n = y.shape[1] // n_r
    pairs = taps.conj().swapaxes(-1, -2)[:, :, None] @ taps[:, None]  # (B, j, j', n_t, n_t)
    lag = (np.arange(l_taps) - np.arange(l_taps)[:, None]) % n
    on_lag = (np.arange(n)[:, None] == lag.ravel()).astype(float)  # (N, L L)
    g = on_lag @ pairs.reshape(b, l_taps * l_taps, n_t * n_t)
    _, obs_of = band_index(n, l_taps)
    seen = y.reshape(b, n, n_r)[:, obs_of].reshape(b, n, l_taps * n_r)
    c = seen @ taps.conj().reshape(b, l_taps * n_r, n_t)
    return np.concatenate([g.reshape(b, -1), c.reshape(b, -1)], axis=1).view(float)


def _ml_sphere(entries: np.ndarray, y_energy: np.ndarray, cfg: StimConfig):
    """Sphere search (Fincke & Pohst 1985; Schnorr & Euchner 1994; Agrell
    et al. 2002) of a chunk: (frame, rank, digits, metric, nodes), the
    leaves within the tolerance of their frame's minimum with their slot
    pattern ranks, digits (_candidate_fields) and metrics, and the tree
    nodes scored per frame.

    Per (frame, pattern), the upper Cholesky factor of
    [[G_S + eps I, c_S], [c_S^H, d]] is [[R, b], [0, .]], so the metric
    x^H (G_S + eps I) x - 2 Re(x^H c_S) is ||R x - b||^2 - ||b||^2: one
    nonnegative term per used slot, last slot first. The ridge eps lets
    rank-deficient blocks (n_r N < k n_t) factor. Babai walks bound each
    frame's minimum; a breadth-first search over all patterns keeps the
    nodes within that bound plus twice the tolerance. The tolerance covers
    eps ||x||^2 and the float error of this metric and the exact one (under
    1e-13 of (sqrt(tr(G) max ||x||^2) + ||y||)^2, sums of a few hundred
    products no larger), so every candidate that may be the exact minimum
    is a leaf within the tolerance of the least leaf.

    A level whose frontier holds more than _ML_FRONTIER nodes is descended
    in pieces of that many, lowest partial distance first, each to its
    leaves before the next starts. As a piece finishes, each frame's bound
    shrinks to its best leaf plus twice the tolerance, and only the leaves
    within the tolerance of that best are kept. A node's partial distance
    is the same sums in any piece, so the leaves returned do not depend on
    how the frontier was cut.
    """
    at = _ml_patterns(cfg)[1]
    b, (n_rank, size), pts, n_t, n = len(entries), at.shape[:2], cfg.alphabet.points, cfg.n_t, cfg.n_slots
    k, q, n_m, x_max = cfg.k, pts.size, n_t * pts.size, cfg.k * float(np.max(np.abs(pts) ** 2))
    ext = np.concatenate([entries.view(complex), np.zeros((b, 1))], axis=1)
    trace = n * ext[:, : n_t * n_t : n_t + 1].real.sum(axis=1)
    ridge = _ML_RIDGE * trace / (n * n_t) + np.finfo(float).tiny
    scale = (np.sqrt(trace * x_max) + np.sqrt(y_energy)) ** 2
    tol, ext[:, -1] = _ML_TOL * scale + ridge * x_max, scale + ridge
    ext[:, : n_t * n_t : n_t + 1] += ridge[:, None]  # on every pattern's diagonal
    low = np.linalg.cholesky(np.take(ext, at, axis=1)).reshape(-1, size, size)
    # the conjugate's factor is R^T: cols[p, j, t] is column j n_t + t of
    # problem p's R, hit by antenna t of used slot j, and z is b
    cols, z = low[:, :-1, :-1].reshape(-1, k, n_t, size - 1), low[:, -1, :-1]
    bb = np.add.reduce(z.real**2 + z.imag**2, axis=1)
    # level[j, p, t |A| + s]: point s times the rows of used slot j in that column
    level = np.einsum("pjtjr->jptr", cols.reshape(-1, k, n_t, k, n_t))[:, :, :, None] * pts[:, None]
    level = level.reshape(k, -1, n_m, n_t)

    def scores(z, pd, probs, j):
        """pd plus each choice's term at slot j, (F, n_m), for residuals z of
        problems probs, scored a block of at most _ML_BLOCK values at a time."""
        blocks, rows = [], max(1, _ML_BLOCK // (n_m * n_t))
        for lo in range(0, max(len(z), 1), rows):  # an empty frontier is one empty block
            d = np.take(level[j], probs[lo : lo + rows], axis=0)
            d = np.subtract(z[lo : lo + rows, None, j * n_t : (j + 1) * n_t], d, out=d).view(float)
            blocks.append(np.einsum("fmr,fmr->fm", d, d))
            del d  # before the next block's gather
        score = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
        score += pd[:, None]
        return score

    every = np.arange(b * n_rank)
    first = score = scores(z, np.zeros(b * n_rank), every, k - 1)  # the walks' and the search's
    walk = z.copy()
    for j in reversed(range(k)):
        pick = score.argmin(axis=1)
        pd = score[every, pick]
        if j:
            walk[:, : j * n_t] -= pts[pick % q, None] * cols[every, j, pick // q, : j * n_t]
            score = scores(walk, pd, every, j - 1)
    bound = (pd - bb).reshape(b, n_rank).min(axis=1) + 2.0 * tol
    del walk, score, pick  # freed before the search, whose frontier holds the peak
    limit, best, nodes = bb + np.repeat(bound, n_rank), np.full(b, np.inf), np.full(b, n_rank * k * n_m)
    kept = [every[:0], np.empty(0), np.empty((0, k), dtype=np.int64)]  # problem, metric, digits

    def settle(score, prob, path):
        """Keep the leaves, score (F, n_m) of the frontier's problems prob
        that path led to from the roots, within tol of their frames' best;
        drop the kept leaves no longer within it and shrink the bounds."""
        frame, metric = prob // n_rank, np.subtract(score, bb[prob, None], out=score)
        np.minimum.at(best, frame, functools.reduce(np.minimum, metric.T))  # faster than min(axis=1)
        rows, pick = np.nonzero(metric <= (best + tol)[frame, None])
        new = prob[rows], metric[rows, pick], np.empty((rows.size, k), dtype=np.int64)
        new[2][:, 0] = pick
        for j, (parent, choice) in enumerate(reversed(path), 1):
            new[2][:, j], rows = choice[rows], parent[rows]
        leaves = [np.concatenate(pair) for pair in zip(kept, new)]
        near = leaves[1] <= (best + tol)[leaves[0] // n_rank]
        kept[:] = [leaf[near] for leaf in leaves]
        np.minimum(bound, best + 2.0 * tol, out=bound)
        np.add(bb, np.repeat(bound, n_rank), out=limit)

    def descend(j, prob, pd, z, path, score=None):
        """Search the subtrees of a frontier that has chosen the used slots
        above j: its problems, partial distances and residuals, the
        (parent, pick) steps that led to it from the roots, and its
        children's scores at j if they are known."""
        path = list(path)
        score = scores(z, pd, prob, j) if score is None else score
        while True:
            np.add(nodes, n_m * np.bincount(prob // n_rank, minlength=b), out=nodes)
            if not j:
                return settle(score, prob, path)
            parent, pick = np.nonzero(score <= limit[prob, None])
            if len(parent) > _ML_FRONTIER:
                break
            prob, pd = prob[parent], score[parent, pick]
            path.append((parent, pick))
            z = z[parent, : j * n_t] - pts[pick % q, None] * cols[prob, j, pick // q, : j * n_t]
            j -= 1
            score = scores(z, pd, prob, j)
        # the children of the frontier, as flat indices into score (int32
        # halves what the pieces hold), lowest partial distance first
        flat, pd = (parent * n_m + pick).astype(np.int32), score[parent, pick]
        del score, parent, pick
        order = np.argsort(pd - bb[prob[flat // n_m]])
        flat, pd, z = flat[order], pd[order], z[:, : j * n_t].copy()
        del order
        for start in range(0, len(flat), _ML_FRONTIER):
            piece = slice(start, start + _ML_FRONTIER)
            parent, pick = np.divmod(flat[piece], n_m)
            live = pd[piece] <= limit[prob[parent]]  # the bounds the earlier pieces left
            parent, pick = parent[live], pick[live]
            if parent.size:
                # passed, not named, so the piece's first frontier is freed as it descends
                descend(j - 1, prob[parent], pd[piece][live],
                        z[parent] - pts[pick % q, None] * cols[prob[parent], j, pick // q, : j * n_t],
                        path + [(parent, pick)])

    descend(k - 1, every, np.zeros(b * n_rank), z, [], first)
    del descend  # a recursive closure is a reference cycle: break it, so its arrays are freed on return
    prob, metric, digits = kept
    return prob // n_rank, prob % n_rank, digits, metric, nodes


def ml_detect(y: np.ndarray, taps: np.ndarray, cfg: StimConfig, cap: int = DEFAULT_ML_CAP) -> DetectionResult:
    """Exact minimum-distance detection over all encodable frames.

    Minimizes ||y - H x||^2 = ||y||^2 + x^H G x - 2 Re(x^H c) with
    G = H^H H and c = H^H y from the taps (_ml_entries); H is never formed.
    The sphere search (_ml_sphere) finds each frame's candidates within a
    tolerance of its minimum, and the frame takes the one with the lowest
    bits (_lowest_bits), so no decision depends on how a metric was summed.
    The cap bounds the worst case, a search that visits every candidate.
    """
    _check_channel(y, taps, cfg)
    total = bit_partition(cfg).total
    if 2**total > cap:
        raise ValueError(
            f"ML enumeration needs 2^{total} candidates (cap {cap}); "
            "use the 2ssd/3ssd detectors or raise the cap"
        )
    b = len(y)
    frame, rank, digits, _, nodes = _ml_sphere(_ml_entries(y, taps), np.add.reduce(np.abs(y) ** 2, axis=1), cfg)
    diag = {"candidates": int(nodes.sum() + b // 2) // b, "sap_repaired": np.zeros(b, dtype=bool)}
    return DetectionResult(*_lowest_bits(frame, rank, digits, cfg), diag)


def _lowest_bits(frame, rank, digits, cfg: StimConfig):
    """Each frame's candidate with the lowest bits: (bits, sap, antennas,
    symbols), one row per frame in frame order, from candidates given by
    frame, slot pattern rank and digits (_candidate_fields), all decoded in
    one call."""
    fields = _candidate_fields(rank, digits, cfg)
    bits = decode_frame(*fields, cfg)
    if np.array_equal(frame, np.arange(len(frame))):  # one leaf per frame, in order: all picked
        return (bits,) + fields
    # sorted by frame, then by bits with the first most significant, packed
    # eight to a byte so that lexsort has fewer keys
    order = np.lexsort((*np.packbits(bits, axis=1).T[::-1], frame))
    ranked = frame[order]
    pick = order[np.concatenate(([True], ranked[1:] != ranked[:-1]))]  # each frame's first
    return (bits[pick],) + tuple(field[pick] for field in fields)


def _candidate_fields(rank, digits, cfg: StimConfig):
    """(sap, antennas, symbols) of candidates given by slot pattern ranks and
    (..., k) per-slot choices, choice t |A| + s sending point s from antenna t."""
    q = cfg.alphabet.size
    return _ml_patterns(cfg)[0][rank], digits // q, cfg.alphabet.points[digits % q]


# ---------------------------------------------------------------------------
# MMSE front end
# ---------------------------------------------------------------------------


def mmse_stage(y: np.ndarray, taps: np.ndarray, sigma2: float):
    """MMSE estimate of the stacked transmit vector plus per-slot antenna picks.

    The DFT over slots block-diagonalizes the block-circulant H, so the
    (N n_t)-square solve splits into N n_t-square solves, one per frequency,
    on the N-point transform of the taps (Falconer et al., IEEE Commun. Mag.
    2002). Returns (x_hat, indices) where indices[..., i] is the antenna with
    the largest-magnitude entry of slot i's subvector (ties to the lower
    index), shaped (B, N n_t) and (B, N) for a batch of B frames.
    """
    _check_batch(y, taps)
    b, _, n_r, n_t = taps.shape
    n = y.shape[1] // n_r
    lam = np.fft.fft(taps, n=n, axis=1)
    lam_h = lam.conj().swapaxes(-1, -2)
    y_f = np.fft.fft(y.reshape(b, n, n_r), axis=1)
    reg = sigma2 if sigma2 > 0.0 else _ZF_EPS
    x_f = np.linalg.solve(lam_h @ lam + reg * np.eye(n_t), lam_h @ y_f[..., None])
    x_hat = np.fft.ifft(x_f[..., 0], axis=1).reshape(b, -1)
    ant_idx = np.argmax(np.abs(x_hat.reshape(b, n, n_t)), axis=-1)
    return x_hat, ant_idx


def mmse_detect(y: np.ndarray, taps: np.ndarray, sigma2: float, cfg: StimConfig) -> DetectionResult:
    """Plain MMSE receiver: k most-energetic slots are declared used, the
    antenna pick and nearest constellation point are read per used slot."""
    _check_channel(y, taps, cfg)
    x_hat, ant_idx = mmse_stage(y, taps, sigma2)
    x_slots = x_hat.reshape(len(y), cfg.n_slots, cfg.n_t)
    sap, antennas, repaired = _pick_slots(np.abs(x_slots).max(axis=-1), ant_idx, cfg)
    est = x_slots[np.arange(len(y))[:, None], sap, antennas]
    pts = cfg.alphabet.points
    symbols = pts[np.argmin(np.abs(est[..., None] - pts), axis=-1)]
    return _finalize(sap, antennas, symbols, cfg, {"sap_repaired": repaired})


# ---------------------------------------------------------------------------
# two-stage detector (MMSE antenna picks + slot/symbol message passing)
# ---------------------------------------------------------------------------


def _slot_count_messages(q: np.ndarray, k: int) -> np.ndarray:
    """Constraint-node messages u_l from the (B, N, 2) activity posteriors q.

    phi_l is the pmf of the number of used slots among all slots except l:
    the product of the count pmfs of the slots before l (prefix) and after l
    (suffix). u_l compares phi_l at k-1 (slot l used) and k (slot l unused).
    Both read the others' unused count, N-k (l used) or N-k-1 (l unused),
    so the pmfs are kept over unused counts 0..N-k only.
    """
    b, n = q.shape[:2]
    d = n - k
    # steps[j, c, :, 0]: unused-count pmf of slots 0..j-1 of each frame,
    # steps[j, c, :, 1]: of slots n-j..n-1. Count c sits in column c + 1;
    # column 0 stays 0 (count -1). Laid out column by column, step j is one
    # flat row in which column c - 1 of a pmf sits `rows` places before
    # column c, so each step's update is three 1-D ufunc calls that never
    # read another frame's pmf.
    steps = np.zeros((n + 1, d + 2, b, 2))
    steps[0, 1] = 1.0
    rows = 2 * b
    flat = steps.reshape(n + 1, -1)
    # one two-term update per slot: new[c] = old[c-1] q_unused + old[c] q_used,
    # the products and their sum in the order of a 2-term matrix product
    weights = np.empty((2, n, d + 1, b, 2))
    weights[..., 0] = q.transpose(2, 1, 0)[:, :, None]
    weights[..., 1] = q[:, ::-1].transpose(2, 1, 0)[:, :, None]
    weights = weights.reshape(2, n, -1)
    carried = np.empty(flat.shape[1] - rows)
    mul, add = np.multiply, np.add
    for old_lo, old, w_unused, w_used, new in zip(flat[:-1, :-rows], flat[:-1, rows:], *weights, flat[1:, rows:]):
        mul(old_lo, w_unused, carried)
        mul(old, w_used, new)
        add(carried, new, new)
    table = np.ascontiguousarray(steps.transpose(2, 0, 3, 1))  # (B, step, side, column)
    prefix = table[:, :n, 0, 1:]
    suffix = table[:, n - 1 :: -1, 1]  # slots after l
    # u[l, c] = sum_a prefix[l, a] * suffix[l, count d - 1 - a + c], c = 1 if l is used
    a = np.arange(d + 1)[:, None]
    u = np.einsum("bla,blac->blc", prefix, suffix[:, :, d - a + np.arange(2)])
    # rows to pmfs; a row with no usable mass becomes uniform
    total = u[..., 0] + u[..., 1]
    ok = (total > 0.0) & np.isfinite(total)
    u[ok] /= total[ok, None]
    u[~ok] = 0.5
    return u


def _damped(old, new, delta, stopped, scratch=None):
    """delta new + (1 - delta) old, computed in new's buffer (scratch, if
    given, takes the (1 - delta) old term); where the mask stopped, which
    broadcasts against old, is True the old state is kept."""
    new *= delta
    new += np.multiply(old, 1.0 - delta, out=scratch)
    if stopped.any():
        np.copyto(new, old, where=stopped)
    return new


def _frame_max(a: np.ndarray, n_frames: int) -> np.ndarray:
    """(B,) largest entry of each frame of a nonnegative array whose last
    axis holds the frames one after another (frame-slot, or frame-used
    slot)."""
    frames = a.reshape(a.shape[:-1] + (n_frames, -1))
    return frames.max(axis=tuple(range(frames.ndim - 2)) + (frames.ndim - 1,))


def ssd2_detect(
    y: np.ndarray,
    taps: np.ndarray,
    sigma2: float,
    cfg: StimConfig,
    mp: MpParams = MpParams(),
) -> DetectionResult:
    """Two-stage detector: MMSE antenna estimation, then message passing for
    slot activity and symbols on the reduced one-column-per-slot model,
    over the band's N L n_r observation edges.

    Layer 1 exchanges Gaussian-approximation messages between observations
    and the composite symbol variables z_l in alphabet+{0}; layer 2 enforces
    the exactly-k-used-slots constraint through the count pmf. Interference
    moments use the composite per-slot belief (activity prior times the
    product of observation messages) rather than per-edge beliefs.
    """
    _check_channel(y, taps, cfg)
    b, n, k, n_r, l_taps = len(y), cfg.n_slots, cfg.k, cfg.n_r, cfg.l_taps
    f = b * n
    _, ant_idx = mmse_stage(y, taps, sigma2)
    edge_slot, obs_at = _edge_maps(b, n, l_taps)
    # edge (tap l, rx a, frame-slot f): gain of the picked antenna of the slot it meets
    g = taps[edge_slot // n, np.arange(l_taps)[:, None], :, ant_idx.ravel()[edge_slot]]
    g = np.ascontiguousarray(g.transpose(0, 2, 1))
    g_abs2 = np.abs(g) ** 2
    observe = _observation_step(y, n_r, sigma2)

    vals = np.concatenate([[0.0 + 0.0j], cfg.alphabet.points])
    vals_abs2 = np.abs(vals) ** 2
    n_v = vals.size
    g_vals = np.multiply(g, vals[:, None, None, None])
    # the per-call workspace: edge tensors are (value, tap, rx, frame-slot)
    m_e, v_e = np.empty(g.shape, complex), np.empty(g.shape)
    diff = np.empty(g_vals.shape, complex)
    log_v, expo = np.empty(g_vals.shape), np.empty(g_vals.shape)
    slot_totals = _slot_totals(n_v, obs_at)

    # slot state: value-major (n_v, B N) and (2, B N) pmfs
    beliefs = np.full((n_v, f), 1.0 / n_v)
    q = np.empty((2, f))
    q[0], q[1] = 1.0 - k / n, k / n
    sv = np.zeros((n_v, f))
    active = np.ones(b, dtype=bool)
    iterations = np.zeros(b, dtype=np.int64)
    for _ in range(mp.max_iterations):
        # Gaussian moments of the interference seen on each edge; the
        # per-slot moments sum over values in turn, as a BLAS product over
        # the chunk's B N slots would not: its order there depends on a
        # slot's place on the axis
        mean_z = np.add.reduce(vals[:, None] * beliefs, axis=0)
        var_z = (np.add.reduce(vals_abs2[:, None] * beliefs, axis=0) - np.abs(mean_z) ** 2).clip(min=0.0)
        np.multiply(g, mean_z[edge_slot][:, None], out=m_e)
        np.multiply(g_abs2, var_z[edge_slot][:, None], out=v_e)

        # layer 1: observation-node messages over alphabet+{0}
        observe(m_e, v_e, g_vals, diff, log_v)
        log_v -= np.maximum.reduce(log_v, axis=0)
        np.exp(log_v, out=expo)
        log_v -= np.log(np.add.reduce(expo, axis=0))
        sv_new = slot_totals(log_v)

        # layer 2: count-constraint messages from the previous activity state
        u = _slot_count_messages(q.T.reshape(b, n, 2), k)

        with np.errstate(divide="ignore"):
            log_u = np.log(u).reshape(f, 2)
        log_b = np.empty((n_v, f))
        np.add(sv_new[0], log_u[:, 0], out=log_b[0])
        np.add(sv_new[1:], log_u[:, 1], out=log_b[1:])
        beliefs_new = _normalize_log_rows(log_b)

        m = np.maximum.reduce(sv_new[1:], axis=0)
        log_q1 = m + np.log(np.add.reduce(np.exp(sv_new[1:] - m), axis=0))
        q_new = _normalize_log_rows(np.stack([sv_new[0], log_q1]))

        delta = mp.damping
        change = np.maximum(
            _frame_max(np.abs(beliefs_new - beliefs), b), _frame_max(np.abs(q_new - q), b)
        ) * delta
        stopped = np.repeat(~active, n)
        beliefs = _damped(beliefs, beliefs_new, delta, stopped)
        q = _damped(q, q_new, delta, stopped)
        np.copyto(sv, sv_new, where=~stopped)
        iterations += active
        active &= ~(change < _CONVERGENCE_TOL)
        if not active.any():
            break

    sap, antennas, repaired = _pick_slots(q[1].reshape(b, n), ant_idx, cfg)
    sv_used = sv.reshape(n_v, b, n)[:, np.arange(b)[:, None], sap]
    symbols = cfg.alphabet.points[np.argmax(sv_used[1:], axis=0)]
    diag = {
        "iterations_run": int(iterations.max()),
        "frame_iterations": iterations,
        "sap_repaired": repaired,
        "slot_posteriors": np.ascontiguousarray(q.reshape(2, b, n).transpose(1, 2, 0)),
    }
    return _finalize(sap, antennas, symbols, cfg, diag)


# ---------------------------------------------------------------------------
# three-stage detector (refines antennas/symbols on the slots picked by 2SSD)
# ---------------------------------------------------------------------------


def ssd3_detect(
    y: np.ndarray,
    taps: np.ndarray,
    sigma2: float,
    cfg: StimConfig,
    mp: MpParams = MpParams(),
) -> DetectionResult:
    """Three-stage detector: 2SSD fixes the used slots, then per-slot transmit
    vectors (antenna, symbol) are re-estimated by message passing on the
    k n_t columns of H for those slots.

    The candidate set holds all n_t * |alphabet| one-active-antenna vectors;
    messages are per (variable, observation) edge of the band with
    Gaussian-approximated interference from the other used slots. The band
    spans all N slots, and the unused slots' edges carry no interference.
    """
    res2 = ssd2_detect(y, taps, sigma2, cfg, mp)
    slots = res2.sap
    b, n, k, n_t, n_r, l_taps = len(y), cfg.n_slots, cfg.k, cfg.n_t, cfg.n_r, cfg.l_taps
    f = b * n
    pts = cfg.alphabet.points
    q_pts = pts.size
    n_m = n_t * q_pts

    edge_slot, obs_at = _edge_maps(b, n, l_taps)
    used_at = (np.arange(b)[:, None] * n + slots).ravel()  # the used slots, frame by frame
    used = np.zeros(f, dtype=bool)
    used[used_at] = True
    edge_used = used[edge_slot]  # (L, B N)
    edge_unused = ~edge_used[:, None]
    # effective scalar on an edge of tap l, rx a when its slot sends candidate s
    ant_of = np.repeat(np.arange(n_t), q_pts)
    sym_of = np.tile(np.arange(q_pts), n_t)
    # the per-call workspace: edge tensors are (candidate, tap, rx, frame-slot)
    edges = (n_m, l_taps, n_r, f)
    p_eff = np.empty((n_m, l_taps, n_r, b, n), complex)
    p_eff[...] = (taps[..., ant_of] * pts[sym_of]).transpose(3, 1, 2, 0)[..., None]
    p_eff = p_eff.reshape(edges)
    p_abs2 = np.abs(p_eff) ** 2
    observe = _observation_step(y, n_r, sigma2)
    terms, diff = np.empty(edges), np.empty(edges, complex)
    me, mag2 = np.empty(edges[1:], complex), np.empty(edges[1:])
    ve, edge_moved = np.empty(edges[1:]), np.empty(edges[1:])
    at_edges = np.empty((n_m, l_taps, 1, f))
    slot_totals = _slot_totals(n_m, obs_at)

    def observation_messages(pbar, out):
        """Log messages per edge from the Gaussian moments of pbar, written
        into out. Unused slots send nothing; the messages on their edges
        are never read."""
        np.add.reduce(np.multiply(pbar, p_eff, out=diff), axis=0, out=me)
        np.add.reduce(np.multiply(pbar, p_abs2, out=terms), axis=0, out=ve)
        np.square(np.abs(me, out=mag2), out=mag2)
        np.subtract(ve, mag2, out=ve).clip(min=0.0, out=ve)
        np.copyto(me, 0.0, where=edge_unused)
        np.copyto(ve, 0.0, where=edge_unused)
        return observe(me, ve, p_eff, diff, out)

    pbar = np.full(edges, 1.0 / n_m)
    log_msg = np.empty(edges)
    # Off the band (only when N > L) a used slot's edges hold its full
    # belief: they move no message, but the full graph's stopping test
    # watches them too.
    off_band = np.full((n_m, b * k), 1.0 / n_m) if n > l_taps else None
    active = np.ones(b, dtype=bool)
    iterations = np.zeros(b, dtype=np.int64)
    for _ in range(mp.max_iterations):
        observation_messages(pbar, log_msg)
        tot = slot_totals(log_msg)  # (n_m, B N), inclusive over edges
        # the new edge beliefs, in log_msg's buffer: the slot's total less the edge's message
        np.take(tot, edge_slot, axis=1, out=at_edges[:, :, 0])
        pnew = _normalize_log_rows(np.subtract(at_edges, log_msg, out=log_msg))

        delta = mp.damping
        # the largest move on a used slot's edges (every frame has one)
        moved = np.abs(np.subtract(pnew, pbar, out=terms), out=terms)
        moved = np.maximum.reduce(moved, axis=0, out=edge_moved)
        np.copyto(moved, 0.0, where=edge_unused)
        change = _frame_max(moved, b) * delta
        stopped = np.repeat(~active, n)
        pbar, log_msg = _damped(pbar, pnew, delta, stopped, terms), pbar
        if off_band is not None:
            full = _normalize_log_rows(tot[:, used_at])
            change = np.maximum(change, _frame_max(np.abs(full - off_band), b) * delta)
            off_band = _damped(off_band, full, delta, np.repeat(~active, k))
        iterations += active
        active &= ~(change < _CONVERGENCE_TOL)
        if not active.any():
            break

    # final inclusive beliefs from the final message state
    tot = slot_totals(observation_messages(pbar, log_msg))
    tot = tot[:, used_at].reshape(n_m, b, k)

    w_hat = np.argmax(tot, axis=0)
    antennas = ant_of[w_hat]
    symbols = pts[sym_of[w_hat]]
    diag = {
        "iterations_run": int(iterations.max()),
        "frame_iterations": iterations,
        "sap_repaired": res2.diagnostics["sap_repaired"],
        "stage2_iterations": res2.diagnostics["frame_iterations"],
        "beliefs": np.ascontiguousarray(_normalize_log_rows(tot).transpose(1, 2, 0)),
    }
    return _finalize(slots, antennas, symbols, cfg, diag)


DETECTORS = ("ml", "mmse", "2ssd", "3ssd")


def detect(name: str, y, taps, sigma2, cfg, mp: MpParams = MpParams(), ml_cap: int = DEFAULT_ML_CAP):
    """Dispatch by detector name ("ml" | "mmse" | "2ssd" | "3ssd")."""
    if name == "ml":
        return ml_detect(y, taps, cfg, cap=ml_cap)
    if name == "mmse":
        return mmse_detect(y, taps, sigma2, cfg)
    if name == "2ssd":
        return ssd2_detect(y, taps, sigma2, cfg, mp)
    if name == "3ssd":
        return ssd3_detect(y, taps, sigma2, cfg, mp)
    raise ValueError(f"unknown detector {name!r}")
