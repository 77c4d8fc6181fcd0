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
runs one breadth-first search for the chunk, one tree per frame over all N
slots, a frame's wide levels in pieces; no frame's leaves depend on the
others or on the pieces.

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
# a frame's metric scale, its low-SNR ridge shift, relative to the MMSE
# ridge, and the least shift it factors again for, relative to G's mean
# diagonal, its piece sizes, and the most complex values it gathers at once
# to score them (_ml_sphere)
_ML_RIDGE = 1e-9
_ML_TOL = 1e-10
_ML_SHIFT = 0.3
_ML_SHIFT_FROM = 0.15
_ML_FRONTIER = 2**12
_ML_SPLIT = 128
_ML_FIRST = 8
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
def _ml_tree(cfg: StimConfig):
    """(at, child, barred, coef, ant, x_max, spare), read-only: at places
    the lower triangle of conj([[G, c], [c^H, d]]), slots reversed (level j
    decides slot N - 1 - j); choice c sends coef[c] (0: the unused slot, the
    last choice) from antenna ant[c]; x_max is the largest ||x||^2, and
    spare is n_r - n_t if every candidate has ||x||^2 = x_max, else 0
    (_ml_sphere's ridge shift). child[j, s, c]
    is the state after choice c at level j, -1 (barred inf) where no
    encodable pattern lies below. State u + (k + 1) tight: u slots used,
    tight if used as in the last encodable pattern P. The encodable patterns
    are the first 2^slot_bits in lexicographic order, so a choice is kept if
    the k - u slots still to use fit below and a tight node leaves no slot
    of P unused: the least completion is then encodable."""
    n, n_t, k, pts = cfg.n_slots, cfg.n_t, cfg.k, cfg.alphabet.points
    m, n_m = n * n_t, n_t * pts.size + 1
    slot, ant = np.arange(n - 1, -1, -1).repeat(n_t), np.tile(np.arange(n_t), n)
    at = np.full((m + 1, m + 1), m * (n_t + 1))  # d
    # row i, column j: G[j, i] = g[(s_j - s_i) mod N][a_j, a_i]
    at[:m, :m] = ((slot - slot[:, None]) % n * n_t + ant) * n_t + ant[:, None]
    at[m, :m] = m * n_t + slot * n_t + ant
    on = np.isin(np.arange(n - 1, -1, -1), rank_to_sap((1 << bit_partition(cfg).slot_bits) - 1, n, k))
    j, tight, u = np.arange(n)[:, None, None], np.arange(2)[:, None], np.arange(k + 1)
    bar = tight * on[:, None, None]  # (level, tight, u): a tight node at a slot of P
    used = np.where(u < k, u + 1 + (k + 1) * bar, -1)
    unused = np.where((k - u <= j) & (bar == 0), u + (k + 1) * tight, -1)
    child = np.concatenate([used[..., None].repeat(n_m - 1, axis=-1), unused[..., None]], -1).reshape(n, -1, n_m)
    tables = (at, child, np.where(child < 0, np.inf, 0.0).transpose(0, 2, 1).copy(),
              np.append(np.tile(pts, n_t), 0.0), np.append(np.arange(n_t).repeat(pts.size), 0))
    for table in tables:
        table.setflags(write=False)
    power = np.abs(pts) ** 2
    return tables + (k * float(power.max()), cfg.n_r - n_t if np.ptp(power) <= 1e-12 * power.max() else 0)


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
    stacked = taps.transpose(0, 2, 1, 3).reshape(b, n_r, l_taps * n_t)  # one product per frame
    pairs = (stacked.conj().swapaxes(1, 2) @ stacked).reshape(b, l_taps, n_t, l_taps, n_t).swapaxes(2, 3)
    lag = (np.arange(l_taps) - np.arange(l_taps)[:, None]) % n
    on_lag = (np.arange(n)[:, None] == lag.ravel()).astype(float)  # (N, L L)
    g = on_lag @ pairs.reshape(b, l_taps * l_taps, n_t * n_t)
    _, obs_of = band_index(n, l_taps)
    seen = y.reshape(b, n, n_r)[:, obs_of].reshape(b, n, l_taps * n_r)
    c = seen @ taps.conj().reshape(b, l_taps * n_r, n_t)
    return np.concatenate([g.reshape(b, -1), c.reshape(b, -1)], axis=1).view(float)


def _ml_sphere(entries: np.ndarray, y_energy: np.ndarray, cfg: StimConfig):
    """Sphere search (Fincke & Pohst 1985; Schnorr & Euchner 1994; Agrell
    et al. 2002) of a chunk: (frame, digits, metric, nodes), the leaves
    within the tolerance of their frame's minimum with their per-slot
    choices (_candidate_fields) and metrics, and the tree nodes scored.

    One tree per frame covers every slot pattern, as in sphere decoding for
    index modulation (Younis et al. 2013): x_s = 0 is one more branch, cut
    with the others that leave no encodable pattern below (_ml_tree). The
    upper Cholesky factor of [[G + eps I, c], [c^H, d]] is [[R, b], [0, .]],
    so x^H (G + eps I) x - 2 Re(x^H c) is ||R x - b||^2 - ||b||^2, a term per
    level; eps lets rank-deficient G factor. A Babai walk bounds a frame's
    minimum, and the search keeps the nodes within it plus twice the
    tolerance.

    A node's partial distance leaves the undecided slots free, so at low
    SNR those slots make up for wrong decisions above them and little is
    cut. Where every candidate has ||x||^2 = x_max (one power for every
    point) and n_r > n_t, the noise outside H's columns, ||y||^2 - ||b||^2,
    estimates sigma^2 N (n_r - n_t). A frame whose shift a = _ML_SHIFT
    sigma^2 N n_t / x_max (a fraction of the MMSE ridge) exceeds
    _ML_SHIFT_FROM of G's mean diagonal is factored again with eps + a on
    the diagonal, and a x_max joins ||b||^2: the leaves' metrics are the
    same, but a partial distance now charges the free slots a ||x_s||^2,
    the Lagrangian bound of ||x||^2 = x_max.

    The tolerance covers eps ||x||^2 and the float error of sums over the
    N n_t + 1 rows of terms under s = (sqrt(tr(G + (eps + a) I) x_max) +
    ||y||)^2 (the squared norm of R, plus ||b|| <= ||y||), a few
    (N n_t + 1) 2^-53 s, so every candidate that may be the minimum is a
    leaf within it.

    A level keeping over _ML_SPLIT nodes of a frame goes in pieces of at
    most _ML_FRONTIER nodes, each to its leaves before the next: the
    _ML_FIRST nodes of each such frame with the least share of its bound,
    and the other frames' nodes, then the rest. A finished piece shrinks its
    frames' bounds to their best leaf plus twice the tolerance. A leaf's
    metric is the same sums in any piece, so the leaves do not depend on
    the pieces.
    """
    at, child, barred, coef, ant, x_max, spare = _ml_tree(cfg)
    b, size, n_t, n, n_m, k = len(entries), len(at), cfg.n_t, cfg.n_slots, len(coef), cfg.k
    ext = np.concatenate([entries.view(complex), np.zeros((b, 1))], axis=1)
    diag = np.s_[: n_t * n_t : n_t + 1]  # g[0]'s diagonal, G's
    trace = n * ext[:, diag].real.sum(axis=1)
    ridge, shift = _ML_RIDGE * trace / (n * n_t) + np.finfo(float).tiny, 0.0
    ext[:, -1] = (np.sqrt(trace * x_max) + np.sqrt(y_energy)) ** 2 + ridge  # d > ||y||^2 >= ||b||^2
    ext[:, diag] += ridge[:, None]  # on G's diagonal
    low = np.linalg.cholesky(ext.take(at, axis=1))
    # the conjugate's factor is R^T. Frames run along the last axis: z is
    # b, and cols[j, :, t b + f] is column j n_t + t of frame f's R
    z = low[:, -1, :-1].T.copy()
    bb = np.add.reduce(z.real**2 + z.imag**2, axis=0)
    if spare:  # ||y||^2 - ||b||^2 is the noise outside H's columns, sigma^2 N spare on average
        shift = (y_energy - bb) * (_ML_SHIFT * n_t / (spare * x_max))
        shift[shift <= trace * (_ML_SHIFT_FROM / (n * n_t))] = 0.0
        redo = np.flatnonzero(shift)
        if redo.size:
            ext[redo, diag] += shift[redo, None]
            low[redo] = np.linalg.cholesky(ext[redo].take(at, axis=1))
            z[:, redo] = low[redo, -1, :-1].T
            bb[redo] = np.add.reduce(z[:, redo].real ** 2 + z[:, redo].imag ** 2, axis=0)
        bb += shift * x_max
    tol = _ML_TOL * (np.sqrt((trace + n * n_t * (ridge + shift)) * x_max) + np.sqrt(y_energy)) ** 2 + ridge * x_max
    cols = np.ascontiguousarray(low[:, :-1, :-1].reshape(b, n, n_t, size - 1).transpose(1, 3, 2, 0))
    cols = cols.reshape(n, size - 1, n_t * b)
    del low
    # level[j, r, c]: what choice c puts on row j n_t + r of R
    column, level = ant * b, np.einsum("jjrtf->jrtf", cols.reshape(n, n, n_t, n_t, b))[:, :, ant] * coef[:, None]

    def energy(d):
        """|d|^2 over the first axis of a complex array's float view d
        (overwritten), its rows added in turn."""
        sums = np.add.reduce(np.square(d, out=d), axis=0)
        return sums[..., ::2] + sums[..., 1::2]

    def scores(z, pd, frames, state, j):
        """pd plus each choice's term at level j, (n_m, F), inf where barred, for
        nodes of frames (None: all, in order), _ML_BLOCK values at a time."""
        blocks, width, rows = [], max(1, _ML_BLOCK // (n_m * n_t)), slice(j * n_t, (j + 1) * n_t)
        for lo in range(0, max(z.shape[1], 1), width):  # an empty frontier is one empty block
            d = level[j][..., lo : lo + width] if frames is None else level[j].take(frames[lo : lo + width], axis=-1)
            d = np.subtract(z[rows, None, lo : lo + width], d, out=None if frames is None else d, order="C").view(float)
            blocks.append(energy(d))
            del d  # before the next block's gather
        score = np.concatenate(blocks, axis=1) if len(blocks) > 1 else blocks[0]
        score += pd
        score += barred[j][:, state]
        return score

    def below(z, parent, frames, pick, j):
        """Residuals of the children taking pick at level j from parent."""
        return z[: j * n_t, parent] - coef[pick] * cols[j, : j * n_t].take(column[pick] + frames, axis=1)

    every, root = np.arange(b), np.full(b, k + 1)
    first = score = scores(z, np.zeros(b), None, root, n - 1)  # the walk's and the search's
    walk, state = z, root
    for j in reversed(range(n)):
        pick = score.argmin(axis=0)
        pd, state = score[pick, every], child[j][state, pick]
        if j:
            walk = below(walk, slice(None), every, pick, j)
            score = scores(walk, pd, None, state, j - 1)
    bound = pd - bb + 2.0 * tol
    limit, best, nodes = bb + bound, np.full(b, np.inf), [n * n_m * b]
    kept = [every[:0], np.empty(0), np.empty((0, n), dtype=np.int64)]  # frame, metric, digits

    def settle(metric, frames, path):
        """Keep the leaves within tol of their frames' best, metric (n_m, F)
        less bb below the nodes of frames that path led to, and shrink the
        bounds."""
        np.minimum.at(best, frames, np.minimum.reduce(metric, axis=0))
        rows, pick = np.nonzero((metric <= (best + tol)[frames]).T)
        if not rows.size:  # no leaf near a best, so no best moved
            return
        new = frames[rows], metric[pick, rows], np.empty((rows.size, n), dtype=np.int64)
        new[2][:, n - 1] = pick  # digits in slot order: level j decides slot N - 1 - j
        for j, (parent, choice) in enumerate(reversed(path), 1):
            new[2][:, n - 1 - j], rows = choice[rows], parent[rows]
        leaves = [np.concatenate(pair) for pair in zip(kept, new)]
        kept[:] = [leaf[leaves[1] <= (best + tol)[leaves[0]]] for leaf in leaves]
        np.minimum(bound, best + 2.0 * tol, out=bound)
        np.add(bb, bound, out=limit)

    def descend(j, frames, pd, z, state, path, score=None):
        """Search below a frontier that has decided the levels above j: its
        nodes' frames, partial distances, residuals and states, the (parent,
        pick) steps from the roots, and its scores at j if known."""
        while True:
            score = scores(z, pd, frames, state, j) if score is None else score
            nodes[0] += score.size
            if not j:
                return settle(np.subtract(score, bb[frames], out=score), frames, path)
            parent, pick = np.nonzero((score <= limit[frames]).T)
            width = np.bincount(frames[parent], minlength=b)
            if len(parent) > _ML_FRONTIER or width.max() > _ML_SPLIT:
                break
            path.append((parent, pick))
            z = below(z, parent, frames[parent], pick, j)
            frames, pd, state = frames[parent], score[pick, parent], child[j][state[parent], pick]
            j, score = j - 1, None
        # the children as flat indices into score's transpose (int32 halves
        # what the pieces hold), by frame, lowest share of its bound first
        flat, pd = (parent * n_m + pick).astype(np.int32), score[pick, parent]
        del score, parent, pick
        home = frames[flat // n_m]
        order = np.argsort(home + 0.5 * (pd / limit[home]))
        flat, pd, z, home = flat[order], pd[order], z[: j * n_t].copy(), home[order]
        starts = np.flatnonzero(np.concatenate(([True], home[1:] != home[:-1])))  # each frame's first node
        pos = np.arange(len(home)) - np.repeat(starts, np.diff(np.append(starts, len(home))))
        lead = (pos < _ML_FIRST) | (width[home] <= _ML_SPLIT)
        for part in (np.flatnonzero(lead), np.flatnonzero(~lead)):
            for piece in np.split(part, range(_ML_FRONTIER, len(part), _ML_FRONTIER)):
                parent, pick = np.divmod(flat[piece], n_m)
                live = pd[piece] <= limit[frames[parent]]  # the bounds the earlier pieces left
                parent, pick = parent[live], pick[live]
                if parent.size:  # passed, not named, so the piece's first frontier is freed as it descends
                    descend(j - 1, frames[parent], pd[piece][live], below(z, parent, frames[parent], pick, j),
                            child[j][state[parent], pick], path + [(parent, pick)])

    descend(n - 1, every, np.zeros(b), z, root, [], first)
    del descend  # a recursive closure is a reference cycle: break it, so its arrays are freed on return
    return kept[0], kept[2], kept[1], nodes[0]


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
    frame, digits, _, nodes = _ml_sphere(_ml_entries(y, taps), np.add.reduce(np.abs(y) ** 2, axis=1), cfg)
    diag = {"candidates": (nodes + b // 2) // b, "sap_repaired": np.zeros(b, dtype=bool)}
    return DetectionResult(*_lowest_bits(frame, digits, cfg), diag)


def _lowest_bits(frame, digits, cfg: StimConfig):
    """Each frame's candidate with the lowest bits: (bits, sap, antennas,
    symbols), one row per frame in frame order, from candidates given by
    frame and per-slot choices (_candidate_fields), all decoded in one call."""
    fields = _candidate_fields(digits, cfg)
    bits = decode_frame(*fields, cfg)
    if np.array_equal(frame, np.arange(len(frame))):  # one leaf per frame, in order: all picked
        return (bits,) + fields
    # sorted by frame, then by bits with the first most significant, packed
    # eight to a byte so that lexsort has fewer keys
    order = np.lexsort((*np.packbits(bits, axis=1).T[::-1], frame))
    ranked = frame[order]
    pick = order[np.concatenate(([True], ranked[1:] != ranked[:-1]))]  # each frame's first
    return (bits[pick],) + tuple(field[pick] for field in fields)


def _candidate_fields(digits, cfg: StimConfig):
    """(sap, antennas, symbols) of candidates given by (..., N) per-slot
    choices with k used: t |A| + s sends point s from antenna t, n_t |A| none."""
    q, shape, used = cfg.alphabet.size, digits.shape[:-1] + (cfg.k,), digits < cfg.n_t * cfg.alphabet.size
    sap, choice = np.nonzero(used)[-1].reshape(shape), digits[used].reshape(shape)
    return sap, choice // q, cfg.alphabet.points[choice % q]


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
