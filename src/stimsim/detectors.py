"""Receivers for the block model y = H x + n.

Four detectors share one result type: exhaustive ML over all encodable
frames, a plain MMSE receiver, and the two- and three-stage message-passing
detectors. The message-passing stages approximate slot-interference as
Gaussian and run a damped schedule of at most ``MpParams.max_iterations``
iterations, which a frame leaves early once no message moves more than
``_CONVERGENCE_TOL``; all message arithmetic is done in the log domain and
renormalized per message.

Detectors take the channel as its ``cfg.l_taps`` taps; only ML forms the
block-circulant H. The MMSE stage solves per DFT frequency, and the message
passing runs on the band only: block row r of H meets slot (r - l) mod N
through tap l, so each slot has L n_r observation edges and one iteration
costs O(N L n_r). An off-band observation sends a slot a message that is
constant over its values, which normalization removes, so leaving those
edges out changes no belief.

Every detector runs on a batch of frames stacked on a leading axis: y of
shape (B, N n_r) with taps of shape (B, L, n_r, n_t), one realization per
frame; one frame is the batch of B = 1. No arithmetic crosses frames, so a
frame's result does not depend on the batch it is in. Message passing
stops per frame: a frame whose messages have settled keeps its state while
the others iterate. ``iterations_run`` counts the iterations of the call's
loop (the largest per-frame count) and ``frame_iterations`` each frame's
own; every other per-frame diagnostic carries the batch axis. ML searches
frame by frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .alphabet import build_alphabet
from .channel import ChannelRealization, band_index, build_block_circulant
from .codec import StimConfig, bit_partition, decode_frame, rank_to_sap, repair_sap, sap_to_rank

DEFAULT_ML_CAP = 2**22

# regularizer for the MMSE solve when sigma2 = 0
_ZF_EPS = 1e-12

# early exit once no message moves more than this between iterations
_CONVERGENCE_TOL = 1e-6


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
    """Rows of log weights -> rows of pmfs, in place (logw is overwritten),
    guarding against total underflow."""
    m = np.max(logw, axis=-1, keepdims=True)
    # a row with a finite max sums to >= 1; any other row becomes uniform
    finite = np.isfinite(m)
    w = np.exp(np.subtract(logw, np.where(finite, m, 0.0), out=logw), out=logw)
    if not finite.all():
        w[~finite[..., 0]] = 1.0
    w /= w.sum(axis=-1, keepdims=True)
    return w


def _finalize(sap, antennas, symbols, cfg, diagnostics) -> DetectionResult:
    """Bits of a batch of decisions whose slot patterns are already encodable."""
    return DetectionResult(decode_frame(sap, antennas, symbols, cfg), sap, antennas, symbols, diagnostics)


def _repair_each(sap: np.ndarray, cfg: StimConfig, scores: np.ndarray):
    """(B, k) patterns -> encodable patterns, (B,) repair flags. The ranks of
    the whole batch are checked at once; repair_sap runs on the frames whose
    pattern is out of range, with their scores."""
    repaired = sap_to_rank(sap, cfg.n_slots) >= 1 << bit_partition(cfg).slot_bits
    sap = sap.copy()
    for i in np.flatnonzero(repaired):
        sap[i] = repair_sap(sap[i], cfg, scores[i])[0]
    return sap, repaired


def _check_channel(y: np.ndarray, ch: ChannelRealization, cfg: StimConfig) -> None:
    """Reject input that is not a batch of frames whose channels and received
    vectors fit cfg."""
    taps, size = (cfg.l_taps, cfg.n_r, cfg.n_t), cfg.n_slots * cfg.n_r
    if ch.taps.shape[1:] != taps or y.shape[1:] != (size,):
        raise ValueError(f"channel taps {ch.taps.shape} and y {y.shape} do not fit the config, "
                         f"which needs a batch of B frames: taps (B, {', '.join(map(str, taps))}) "
                         f"and y (B, {size})")
    _check_batch(y, ch)


def _check_batch(y: np.ndarray, ch: ChannelRealization) -> None:
    """Reject input that is not a batch of frames with one channel each:
    y (B, N n_r) and taps (B, L, n_r, n_t), for any config."""
    if ch.taps.ndim != 4 or y.ndim != 2 or y.shape[1] % ch.taps.shape[2]:
        raise ValueError(f"need a batch of B frames: y (B, N n_r) and taps (B, L, n_r, n_t), "
                         f"got y {y.shape} and taps {ch.taps.shape}")
    if ch.taps.shape[0] != y.shape[0]:
        raise ValueError(f"{ch.taps.shape[0]} channels for {y.shape[0]} frames")


def _slot_totals(per_edge: np.ndarray, obs_of: np.ndarray) -> np.ndarray:
    """(frame, block row, tap, ...) edge terms -> per-slot sums over each
    slot's edges."""
    return per_edge[:, obs_of, np.arange(obs_of.shape[1])].sum(axis=2)


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


class _MlCandidates:
    """Per-config enumeration tables for exhaustive detection.

    Candidates factor as (slot pattern rank, per-slot transmit vectors).
    Each used slot sends one of the n_t * |alphabet| one-active-antenna
    vectors; the k slots are split into halves A (the first ceil(k/2)) and
    B whose vector combinations are precomputed as stacked rows w_a and
    w_b, so that a slot pattern's whole metric is a single real matrix
    product (_rank_metric). One instance is shared by every caller in the
    process (``_ml_candidates``), so its arrays are read-only; the buffers
    a search writes live in a per-call workspace (``_ml_workspace``).
    """

    def __init__(self, cfg: StimConfig):
        n, k, n_t = cfg.n_slots, cfg.k, cfg.n_t
        pts = cfg.alphabet.points
        q = pts.size
        part = bit_partition(cfg)
        self.n_rank = 1 << part.slot_bits
        self.saps = np.stack([rank_to_sap(r, n, k) for r in range(self.n_rank)])
        # the k n_t columns of H that each slot pattern activates
        self.cols = (self.saps[..., None] * n_t + np.arange(n_t)).reshape(self.n_rank, -1)
        n_m = n_t * q
        # per-slot candidate vectors: antenna t sends point s at index t*q + s
        mvec = np.zeros((n_m, n_t), dtype=np.complex128)
        mvec[np.arange(n_m), np.repeat(np.arange(n_t), q)] = pts[np.tile(np.arange(q), n_t)]
        k_a = (k + 1) // 2

        def combos(width):
            count = n_m**width
            digits = (
                np.arange(count)[:, None] // n_m ** np.arange(width - 1, -1, -1)[None, :]
            ) % n_m
            return digits, mvec[digits].reshape(count, width * n_t)

        self.digits_a, self.w_a = combos(k_a)
        self.digits_b, self.w_b = combos(k - k_a)
        self.w_a_conj = self.w_a.conj()
        self.w_b_conj = self.w_b.conj()
        for table in (self.saps, self.cols, self.digits_a, self.digits_b,
                      self.w_a, self.w_b, self.w_a_conj, self.w_b_conj):
            table.setflags(write=False)

    @property
    def n_candidates(self) -> int:
        return self.n_rank * self.w_a.shape[0] * self.w_b.shape[0]


@functools.cache
def _ml_candidates(n_t: int, n_slots: int, k: int, kind: str, normalized: bool) -> _MlCandidates:
    """The enumeration tables of one config key; n_r and L do not enter them."""
    return _MlCandidates(StimConfig(n_t, 1, n_slots, k, 1, build_alphabet(kind, normalized)))


def _ml_workspace(cand: _MlCandidates):
    """(left, right, metric): the buffers of _rank_metric for one call.

    left is [2 Re A, -2 Im A, term_a, 1] (n_a rows), right is
    [Re W_B^T; Im W_B^T; 1; term_b] (n_b columns) and metric = left @ right.
    Only the A and term columns of left and the term_b row of right change
    from one slot pattern to the next; the rest is filled here.
    """
    n_a, width = cand.w_a.shape[0], cand.w_b.shape[1]
    left = np.empty((n_a, 2 * width + 2))
    left[:, -1] = 1.0
    right = np.empty((2 * width + 2, cand.w_b.shape[0]))
    right[:width] = cand.w_b.real.T
    right[width : 2 * width] = cand.w_b.imag.T
    right[-2] = 1.0
    return left, right, np.empty((n_a, cand.w_b.shape[0]))


def _half_terms(w, w_conj, g_half, c_half):
    """quad - 2 lin for one half: Re(w^H G w) - 2 Re(w^H c) rowwise."""
    quad = np.einsum("ij,ij->i", w_conj, w @ g_half.T).real
    lin = (w_conj @ c_half).real
    return quad - 2.0 * lin


def _rank_metric(gram, c, rank: int, cand: _MlCandidates, work) -> np.ndarray:
    """x^H G x - 2 Re(x^H c), that is ||y - H x||^2 - ||y||^2, of every
    candidate x of slot pattern rank, as an (n_a, n_b) matrix over the
    (half A, half B) combinations; it is work's metric buffer.

    With A = W_A^H G_AB the cross term 2 Re(A W_B^T) is
    2 Re A Re W_B^T - 2 Im A Im W_B^T, so the whole metric, half terms
    included, is the one real product left @ right (_ml_workspace). The
    factor 2 is exact in binary floating point.
    """
    left, right, metric = work
    width = cand.w_b.shape[1]
    split = cand.w_a.shape[1]
    cols = cand.cols[rank]
    g_r = gram[np.ix_(cols, cols)]
    c_r = c[cols]
    a = cand.w_a_conj @ g_r[:split, split:]
    np.multiply(a.real, 2.0, out=left[:, :width])
    np.multiply(a.imag, -2.0, out=left[:, width : 2 * width])
    left[:, -2] = _half_terms(cand.w_a, cand.w_a_conj, g_r[:split, :split], c_r[:split])
    right[-1] = _half_terms(cand.w_b, cand.w_b_conj, g_r[split:, split:], c_r[split:])
    return np.matmul(left, right, out=metric)


def ml_detect(y: np.ndarray, ch: ChannelRealization, cfg: StimConfig, cap: int = DEFAULT_ML_CAP) -> DetectionResult:
    """Exhaustive minimum-distance detection over all encodable frames.

    Minimizes ||y - H x||^2 = ||y||^2 + x^H G x - 2 Re(x^H c) with
    G = H^H H and c = H^H y. For each slot pattern the active columns form
    a k n_t submodel; splitting the used slots into halves A/B makes the
    candidate metric separable up to one cross matrix Re(W_A^H G_AB W_B).
    The metric of all half-combinations of a pattern is one real matrix
    product (_rank_metric), written into buffers allocated once per call,
    so no search step allocates a metric-sized array. The search is per
    frame, so a batch is searched frame by frame.
    """
    _check_channel(y, ch, cfg)
    total = bit_partition(cfg).total
    if 2**total > cap:
        raise ValueError(
            f"ML enumeration needs 2^{total} candidates (cap {cap}); "
            "use the 2ssd/3ssd detectors or raise the cap"
        )
    cand = _ml_candidates(cfg.n_t, cfg.n_slots, cfg.k, cfg.alphabet.kind, cfg.alphabet.normalized)
    work = _ml_workspace(cand)
    picks = [_ml_search(y_f, ChannelRealization(taps), cfg, cand, work) for y_f, taps in zip(y, ch.taps)]
    sap, antennas, symbols = (np.stack(a) for a in zip(*picks))
    diag = {"iterations_run": 0, "candidates": cand.n_candidates,
            "sap_repaired": np.zeros(len(y), dtype=bool)}
    return _finalize(sap, antennas, symbols, cfg, diag)


def _ml_search(y: np.ndarray, ch: ChannelRealization, cfg: StimConfig, cand: _MlCandidates, work):
    """(sap, antennas, symbols) of one frame's minimum-distance candidate."""
    h = build_block_circulant(ch, cfg.n_slots)
    gram = h.conj().T @ h
    c = h.conj().T @ y

    best_val = np.inf
    ties: list[tuple[int, np.ndarray]] = []
    for rank in range(cand.n_rank):
        metric = _rank_metric(gram, c, rank, cand, work)
        m = float(metric.min())
        if m < best_val:
            best_val = m
            ties = [(rank, np.flatnonzero(metric.ravel() == m))]
        elif m == best_val:
            ties.append((rank, np.flatnonzero(metric.ravel() == m)))

    rank, flat = _lowest_bit_candidate(ties, cand, cfg)
    return _candidate_fields(rank, flat, cand, cfg)


def _candidate_fields(rank, flat, cand: _MlCandidates, cfg: StimConfig):
    """(sap, antennas, symbols) of the candidate at flat index flat of slot
    pattern rank; arrays of ranks and flat indices give one row per candidate."""
    ia, ib = divmod(flat, cand.w_b.shape[0])
    m_digits = np.concatenate([cand.digits_a[ia], cand.digits_b[ib]], axis=-1)
    q = cfg.alphabet.size
    return cand.saps[rank], m_digits // q, cfg.alphabet.points[m_digits % q]


def _lowest_bit_candidate(ties, cand: _MlCandidates, cfg: StimConfig):
    """(rank, flat) of the tied candidate whose decoded bits are lowest."""
    if len(ties) == 1 and ties[0][1].size == 1:
        return ties[0][0], int(ties[0][1][0])
    ranks = np.concatenate([np.full(flats.size, rank) for rank, flats in ties])
    flats = np.concatenate([flats for _, flats in ties])
    bits = decode_frame(*_candidate_fields(ranks, flats, cand, cfg), cfg)
    i = np.lexsort(bits.T[::-1])[0]  # the first bit is the primary key
    return int(ranks[i]), int(flats[i])


# ---------------------------------------------------------------------------
# MMSE front end
# ---------------------------------------------------------------------------


def mmse_stage(y: np.ndarray, ch: ChannelRealization, sigma2: float):
    """MMSE estimate of the stacked transmit vector plus per-slot antenna picks.

    The DFT over slots block-diagonalizes the block-circulant H, so the
    (N n_t)-square solve splits into N n_t-square solves, one per frequency,
    on the N-point transform of the taps (Falconer et al., IEEE Commun. Mag.
    2002). Returns (x_hat, indices) where indices[..., i] is the antenna with
    the largest-magnitude entry of slot i's subvector (ties to the lower
    index), shaped (B, N n_t) and (B, N) for a batch of B frames.
    """
    _check_batch(y, ch)
    b, _, n_r, n_t = ch.taps.shape
    n = y.shape[1] // n_r
    lam = np.fft.fft(ch.taps, n=n, axis=1)
    lam_h = lam.conj().swapaxes(-1, -2)
    y_f = np.fft.fft(y.reshape(b, n, n_r), axis=1)
    reg = sigma2 if sigma2 > 0.0 else _ZF_EPS
    x_f = np.linalg.solve(lam_h @ lam + reg * np.eye(n_t), lam_h @ y_f[..., None])
    x_hat = np.fft.ifft(x_f[..., 0], axis=1).reshape(b, -1)
    ant_idx = np.argmax(np.abs(x_hat.reshape(b, n, n_t)), axis=-1)
    return x_hat, ant_idx


def mmse_detect(y: np.ndarray, ch: ChannelRealization, sigma2: float, cfg: StimConfig) -> DetectionResult:
    """Plain MMSE receiver: k most-energetic slots are declared used, the
    antenna pick and nearest constellation point are read per used slot."""
    _check_channel(y, ch, cfg)
    x_hat, ant_idx = mmse_stage(y, ch, sigma2)
    x_slots = x_hat.reshape(len(y), cfg.n_slots, cfg.n_t)
    scores = np.abs(x_slots).max(axis=-1)
    order = np.argsort(-scores, axis=-1, kind="stable")
    sap = np.sort(order[:, : cfg.k], axis=-1)
    sap, repaired = _repair_each(sap, cfg, scores)
    antennas = np.take_along_axis(ant_idx, sap, axis=1)
    est = x_slots[np.arange(len(y))[:, None], sap, antennas]
    pts = cfg.alphabet.points
    symbols = pts[np.argmin(np.abs(est[..., None] - pts), axis=-1)]
    diag = {"iterations_run": 0, "sap_repaired": repaired}
    return _finalize(sap, antennas, symbols, cfg, diag)


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
    # table[:, j, 0]: unused-count pmf of slots 0..j-1, table[:, j, 1]: of
    # slots n-j..n-1. Count c sits in column c + 1; column 0 stays 0 (count -1).
    table = np.zeros((b, n + 1, 2, d + 2))
    table[:, 0, :, 1] = 1.0
    # one two-term update per slot: new[c] = old[c-1] q_unused + old[c] q_used
    weights = np.stack([q, q[:, ::-1]], axis=2)[..., None]
    # pairs[:, j, side, c] views columns (c, c + 1) of table[:, j, side]
    pairs = np.ndarray(
        (b, n + 1, 2, d + 1, 2), table.dtype, table, 0, table.strides + (table.itemsize,)
    )
    new = table[:, 1:, :, 1:, None]
    for step in zip(pairs.swapaxes(0, 1), weights.swapaxes(0, 1), new.swapaxes(0, 1)):
        np.matmul(*step[:2], out=step[2])
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


def _damped(old, new, delta, active):
    """delta new + (1 - delta) old, computed in new's buffer, for the frames
    still iterating; stopped frames keep their old state."""
    new *= delta
    new += (1.0 - delta) * old
    if not active.all():
        np.copyto(new, old, where=~active.reshape(active.shape + (1,) * (old.ndim - 1)))
    return new


def ssd2_detect(
    y: np.ndarray,
    ch: ChannelRealization,
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
    _check_channel(y, ch, cfg)
    b, n, k = len(y), cfg.n_slots, cfg.k
    q_pts = cfg.alphabet.size
    _, ant_idx = mmse_stage(y, ch, sigma2)
    slot_of, obs_of = band_index(n, cfg.l_taps)
    # edge (frame, block row r, tap l, rx a): gain of slot (r - l) mod N's picked antenna
    g = ch.taps[np.arange(b)[:, None, None], np.arange(cfg.l_taps), :, ant_idx[:, slot_of]]
    g_abs2 = np.abs(g) ** 2
    y_blk = y.reshape(b, n, 1, cfg.n_r)

    vals = np.concatenate([[0.0 + 0.0j], cfg.alphabet.points])
    vals_abs2 = np.abs(vals) ** 2
    g_vals = g[..., None] * vals

    beliefs = np.full((b, n, q_pts + 1), 1.0 / (q_pts + 1))
    q = np.tile([1.0 - k / n, k / n], (b, n, 1))
    sv = np.zeros((b, n, q_pts + 1))
    active = np.ones(b, dtype=bool)
    iterations = np.zeros(b, dtype=np.int64)
    for _ in range(mp.max_iterations):
        # Gaussian moments of the interference seen on each edge
        mean_z = beliefs @ vals
        var_z = (beliefs @ vals_abs2 - np.abs(mean_z) ** 2).clip(min=0.0)
        m_e = g * mean_z[:, slot_of][..., None]
        v_e = g_abs2 * var_z[:, slot_of][..., None]
        mu = m_e.sum(axis=2, keepdims=True) - m_e
        sig2 = (v_e.sum(axis=2, keepdims=True) - v_e + sigma2).clip(min=_ZF_EPS)

        # layer 1: observation-node messages over alphabet+{0}
        log_v = np.abs((y_blk - mu)[..., None] - g_vals)
        np.square(log_v, out=log_v)
        log_v /= sig2[..., None]
        np.negative(log_v, out=log_v)
        log_v -= log_v.max(axis=-1, keepdims=True)
        log_v -= np.log(np.exp(log_v).sum(axis=-1, keepdims=True))
        sv_new = _slot_totals(log_v.sum(axis=3), obs_of)

        # layer 2: count-constraint messages from the previous activity state
        u = _slot_count_messages(q, k)

        with np.errstate(divide="ignore"):
            log_u = np.log(u)
        log_b = sv_new.copy()
        log_b[..., 0] += log_u[..., 0]
        log_b[..., 1:] += log_u[..., 1:2]
        beliefs_new = _normalize_log_rows(log_b)

        m = sv_new[..., 1:].max(axis=-1)
        log_q1 = m + np.log(np.exp(sv_new[..., 1:] - m[..., None]).sum(axis=-1))
        q_new = _normalize_log_rows(np.stack([sv_new[..., 0], log_q1], axis=-1))

        delta = mp.damping
        change = np.maximum(
            np.abs(beliefs_new - beliefs).max(axis=(1, 2)), np.abs(q_new - q).max(axis=(1, 2))
        ) * delta
        beliefs = _damped(beliefs, beliefs_new, delta, active)
        q = _damped(q, q_new, delta, active)
        np.copyto(sv, sv_new, where=active[:, None, None])
        iterations += active
        active &= ~(change < _CONVERGENCE_TOL)
        if not active.any():
            break

    order = np.argsort(-q[..., 1], axis=-1, kind="stable")
    sap = np.sort(order[:, :k], axis=-1)
    sap, repaired = _repair_each(sap, cfg, q[..., 1])
    antennas = np.take_along_axis(ant_idx, sap, axis=1)
    sv_used = np.take_along_axis(sv, sap[..., None], axis=1)
    symbols = cfg.alphabet.points[np.argmax(sv_used[..., 1:], axis=-1)]
    diag = {
        "iterations_run": int(iterations.max()),
        "frame_iterations": iterations,
        "sap_repaired": repaired,
        "slot_posteriors": q,
    }
    return _finalize(sap, antennas, symbols, cfg, diag)


# ---------------------------------------------------------------------------
# three-stage detector (refines antennas/symbols on the slots picked by 2SSD)
# ---------------------------------------------------------------------------


def ssd3_detect(
    y: np.ndarray,
    ch: ChannelRealization,
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
    res2 = ssd2_detect(y, ch, sigma2, cfg, mp)
    slots = res2.sap
    b, n, n_t = len(y), cfg.n_slots, cfg.n_t
    pts = cfg.alphabet.points
    q_pts = pts.size
    n_m = n_t * q_pts

    slot_of, obs_of = band_index(n, cfg.l_taps)
    frame = np.arange(b)[:, None]
    used = np.zeros((b, n), dtype=bool)
    used[frame, slots] = True
    edge_used = used[:, slot_of, None]  # (B, N, L, 1)
    # effective scalar on an edge of tap l, rx a when its slot sends candidate s
    ant_of = np.repeat(np.arange(n_t), q_pts)
    sym_of = np.tile(np.arange(q_pts), n_t)
    p_eff = ch.taps[:, None, ..., ant_of] * pts[sym_of]  # (B, 1, L, n_r, n_m)
    p_abs2 = np.abs(p_eff) ** 2
    y_blk = y.reshape(b, n, 1, cfg.n_r)

    def observation_messages(pbar):
        """Log messages (B, N, L, n_r, n_m) per edge from the Gaussian moments of
        pbar. Unused slots send nothing; the messages on their edges are never read."""
        me = np.einsum("...s,...s->...", pbar, p_eff)
        ve = (np.einsum("...s,...s->...", pbar, p_abs2) - np.abs(me) ** 2).clip(min=0.0)
        np.copyto(me, 0.0, where=~edge_used)
        np.copyto(ve, 0.0, where=~edge_used)
        mu = me.sum(axis=2, keepdims=True) - me
        s2 = (ve.sum(axis=2, keepdims=True) - ve + sigma2).clip(min=_ZF_EPS)
        msg = np.abs((y_blk - mu)[..., None] - p_eff)
        np.square(msg, out=msg)
        msg /= s2[..., None]
        return np.negative(msg, out=msg)

    pbar = np.full((b, n) + p_eff.shape[2:], 1.0 / n_m)
    # Off the band (only when N > L) a used slot's edges hold its full
    # belief: they move no message, but the full graph's stopping test
    # watches them too.
    off_band = np.full((b, cfg.k, n_m), 1.0 / n_m) if n > cfg.l_taps else None
    active = np.ones(b, dtype=bool)
    iterations = np.zeros(b, dtype=np.int64)
    for _ in range(mp.max_iterations):
        log_msg = observation_messages(pbar)
        tot = _slot_totals(log_msg.sum(axis=3), obs_of)  # (B, N, n_m), inclusive over edges
        pnew = _normalize_log_rows(tot[:, slot_of, None, :] - log_msg)
        del log_msg  # the edge tensors are the memory peak: drop each one early

        delta = mp.damping
        # the largest move on a used slot's edges (every frame has one)
        change = np.abs(pnew - pbar).max(axis=(1, 2, 3, 4), where=edge_used[..., None],
                                         initial=0.0) * delta
        pbar = _damped(pbar, pnew, delta, active)
        if off_band is not None:
            full = _normalize_log_rows(tot[frame, slots])
            change = np.maximum(change, np.abs(full - off_band).max(axis=(1, 2)) * delta)
            off_band = _damped(off_band, full, delta, active)
        iterations += active
        active &= ~(change < _CONVERGENCE_TOL)
        if not active.any():
            break

    # final inclusive beliefs from the final message state
    tot = _slot_totals(observation_messages(pbar).sum(axis=3), obs_of)[frame, slots]

    w_hat = np.argmax(tot, axis=-1)
    antennas = ant_of[w_hat]
    symbols = pts[sym_of[w_hat]]
    diag = {
        "iterations_run": int(iterations.max()),
        "frame_iterations": iterations,
        "sap_repaired": res2.diagnostics["sap_repaired"],
        "stage2_iterations": res2.diagnostics["frame_iterations"],
        "beliefs": _normalize_log_rows(tot),
    }
    return _finalize(slots, antennas, symbols, cfg, diag)


DETECTORS = ("ml", "mmse", "2ssd", "3ssd")


def detect(name: str, y, ch, sigma2, cfg, mp: MpParams = MpParams(), ml_cap: int = DEFAULT_ML_CAP):
    """Dispatch by detector name ("ml" | "mmse" | "2ssd" | "3ssd")."""
    if name == "ml":
        return ml_detect(y, ch, cfg, cap=ml_cap)
    if name == "mmse":
        return mmse_detect(y, ch, sigma2, cfg)
    if name == "2ssd":
        return ssd2_detect(y, ch, sigma2, cfg, mp)
    if name == "3ssd":
        return ssd3_detect(y, ch, sigma2, cfg, mp)
    raise ValueError(f"unknown detector {name!r}")
