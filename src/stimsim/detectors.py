"""Receivers for the block model y = H x + n.

Four detectors share one result type: exhaustive ML over all encodable
frames, a plain MMSE receiver, and the two- and three-stage message-passing
detectors. The message-passing stages approximate slot-interference as
Gaussian and run a damped, fixed-iteration schedule; all message arithmetic
is done in the log domain and renormalized per message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import StimConfig, bit_partition, decode_frame, rank_to_sap, repair_sap

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
    """Rows of log weights -> rows of pmfs, guarding against total underflow."""
    m = np.max(logw, axis=-1, keepdims=True)
    w = np.exp(logw - np.where(np.isfinite(m), m, 0.0))
    total = w.sum(axis=-1, keepdims=True)
    bad = ~np.isfinite(total[..., 0]) | (total[..., 0] <= 0.0)
    if np.any(bad):
        w[bad] = 1.0
        total = w.sum(axis=-1, keepdims=True)
    return w / total


def _residual(y: np.ndarray, h: np.ndarray, sap, antennas, symbols, cfg: StimConfig) -> float:
    x = np.zeros(cfg.n_slots * cfg.n_t, dtype=np.complex128)
    x[np.asarray(sap) * cfg.n_t + np.asarray(antennas)] = np.asarray(symbols)
    return float(np.sum(np.abs(y - h @ x) ** 2))


def _finalize(y, h, sap, antennas, symbols, cfg, diagnostics) -> DetectionResult:
    """Bits and residual of a decision whose slot pattern is already encodable."""
    antennas = np.asarray(antennas)
    symbols = np.asarray(symbols)
    bits = decode_frame(sap, antennas, symbols, cfg)
    diagnostics["final_residual"] = _residual(y, h, sap, antennas, symbols, cfg)
    return DetectionResult(bits, sap, antennas, symbols, diagnostics)


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


class _MlCandidates:
    """Per-config enumeration tables for exhaustive detection.

    Candidates factor as (slot pattern rank, per-slot transmit vectors).
    Each used slot sends one of the n_t * |alphabet| one-active-antenna
    vectors; the k slots are split into two halves whose vector combinations
    are precomputed as stacked rows, so the cross part of the quadratic form
    becomes a single matrix product per slot pattern.
    """

    def __init__(self, cfg: StimConfig):
        n, k, n_t = cfg.n_slots, cfg.k, cfg.n_t
        pts = cfg.alphabet.points
        q = pts.size
        part = bit_partition(cfg)
        self.n_rank = 1 << part.slot_bits
        self.saps = np.stack([rank_to_sap(r, n, k) for r in range(self.n_rank)])
        n_m = n_t * q
        # per-slot candidate vectors: antenna t sends point s at index t*q + s
        mvec = np.zeros((n_m, n_t), dtype=np.complex128)
        mvec[np.arange(n_m), np.repeat(np.arange(n_t), q)] = pts[np.tile(np.arange(q), n_t)]
        self.n_m = n_m
        self.k_a = (k + 1) // 2
        self.k_b = k - self.k_a

        def combos(width):
            count = n_m**width
            digits = (
                np.arange(count)[:, None] // n_m ** np.arange(width - 1, -1, -1)[None, :]
            ) % n_m
            return digits, mvec[digits].reshape(count, width * n_t)

        self.digits_a, self.w_a = combos(self.k_a)
        self.digits_b, self.w_b = combos(self.k_b)
        self.w_a_conj = self.w_a.conj()
        self.w_b_conj = self.w_b.conj()

    @property
    def n_candidates(self) -> int:
        return self.n_rank * self.w_a.shape[0] * self.w_b.shape[0]


_ML_CACHE: dict[tuple, _MlCandidates] = {}


def _ml_candidates(cfg: StimConfig) -> _MlCandidates:
    key = (cfg.n_t, cfg.n_slots, cfg.k, cfg.alphabet.kind, cfg.alphabet.normalized)
    if key not in _ML_CACHE:
        _ML_CACHE[key] = _MlCandidates(cfg)
    return _ML_CACHE[key]


def _half_terms(w, w_conj, g_half, c_half):
    """quad - 2 lin for one half: Re(w^H G w) - 2 Re(w^H c) rowwise."""
    quad = np.einsum("ij,ij->i", w_conj, w @ g_half.T).real
    lin = (w_conj @ c_half).real
    return quad - 2.0 * lin


def ml_detect(y: np.ndarray, h: np.ndarray, cfg: StimConfig, cap: int = DEFAULT_ML_CAP) -> DetectionResult:
    """Exhaustive minimum-distance detection over all encodable frames.

    Minimizes ||y - H x||^2 = ||y||^2 + x^H G x - 2 Re(x^H c) with
    G = H^H H and c = H^H y. For each slot pattern the active columns form
    a k n_t submodel; splitting the used slots into halves A/B makes the
    candidate metric separable up to one cross matrix Re(W_A^H G_AB W_B),
    computed as a dense product over all half-combinations at once.
    """
    total = bit_partition(cfg).total
    if 2**total > cap:
        raise ValueError(
            f"ML enumeration needs 2^{total} candidates (cap 2^{int(math.log2(cap))}); "
            "use the 2ssd/3ssd detectors or raise the cap"
        )
    cand = _ml_candidates(cfg)
    n_t = cfg.n_t
    gram = h.conj().T @ h
    c = h.conj().T @ y
    split = cand.k_a * n_t

    best_val = np.inf
    ties: list[tuple[int, np.ndarray]] = []
    for rank in range(cand.n_rank):
        cols = (cand.saps[rank][:, None] * n_t + np.arange(n_t)[None, :]).ravel()
        g_r = gram[np.ix_(cols, cols)]
        c_r = c[cols]
        term_a = _half_terms(cand.w_a, cand.w_a_conj, g_r[:split, :split], c_r[:split])
        term_b = _half_terms(cand.w_b, cand.w_b_conj, g_r[split:, split:], c_r[split:])
        metric = 2.0 * (cand.w_a_conj @ g_r[:split, split:] @ cand.w_b.T).real
        metric += term_a[:, None]
        metric += term_b[None, :]
        m = float(metric.min())
        if m < best_val:
            best_val = m
            ties = [(rank, np.flatnonzero(metric.ravel() == m))]
        elif m == best_val:
            ties.append((rank, np.flatnonzero(metric.ravel() == m)))

    rank, flat = _lowest_bit_candidate(ties, cand, cfg)
    ia, ib = divmod(flat, cand.w_b.shape[0])
    m_digits = np.concatenate([cand.digits_a[ia], cand.digits_b[ib]])
    sap = cand.saps[rank]
    antennas = m_digits // cfg.alphabet.size
    symbols = cfg.alphabet.points[m_digits % cfg.alphabet.size]
    diag = {"iterations_run": 0, "candidates": cand.n_candidates, "sap_repaired": False}
    return _finalize(y, h, sap, antennas, symbols, cfg, diag)


def _lowest_bit_candidate(ties, cand: _MlCandidates, cfg: StimConfig):
    """Resolve exact metric ties to the candidate with the lowest bit value."""
    if len(ties) == 1 and ties[0][1].size == 1:
        return ties[0][0], int(ties[0][1][0])
    part = bit_partition(cfg)
    q = cfg.alphabet.size
    k = cfg.k
    best = None
    for rank, flats in ties:
        ia, ib = np.divmod(flats, cand.w_b.shape[0])
        m_digits = np.concatenate([cand.digits_a[ia], cand.digits_b[ib]], axis=1)
        ant_val = (m_digits // q) @ (cfg.n_t ** np.arange(k - 1, -1, -1))
        sym_val = (m_digits % q) @ (q ** np.arange(k - 1, -1, -1))
        bit_val = (
            (ant_val << (part.slot_bits + part.symbol_bits))
            | (rank << part.symbol_bits)
            | sym_val
        )
        i = int(np.argmin(bit_val))
        entry = (int(bit_val[i]), rank, int(flats[i]))
        if best is None or entry < best:
            best = entry
    return best[1], best[2]


# ---------------------------------------------------------------------------
# MMSE front end
# ---------------------------------------------------------------------------


def mmse_stage(y: np.ndarray, h: np.ndarray, sigma2: float, n_t: int):
    """MMSE estimate of the stacked transmit vector plus per-slot antenna picks.

    Returns (x_hat, indices) where indices[i] is the antenna with the
    largest-magnitude entry of slot i's subvector (ties to the lower index).
    """
    gram = h.conj().T @ h
    reg = sigma2 if sigma2 > 0.0 else _ZF_EPS
    x_hat = np.linalg.solve(gram + reg * np.eye(gram.shape[0]), h.conj().T @ y)
    per_slot = np.abs(x_hat.reshape(-1, n_t))
    return x_hat, np.argmax(per_slot, axis=1)


def reduce_model(h: np.ndarray, antenna_idx: np.ndarray, n_t: int) -> np.ndarray:
    """Keep one column of H per slot: column i of the result is H's column
    i * n_t + antenna_idx[i]."""
    antenna_idx = np.asarray(antenna_idx)
    cols = np.arange(antenna_idx.size) * n_t + antenna_idx
    return h[:, cols]


def mmse_detect(y: np.ndarray, h: np.ndarray, sigma2: float, cfg: StimConfig) -> DetectionResult:
    """Plain MMSE receiver: k most-energetic slots are declared used, the
    antenna pick and nearest constellation point are read per used slot."""
    x_hat, ant_idx = mmse_stage(y, h, sigma2, cfg.n_t)
    per_slot = np.abs(x_hat.reshape(cfg.n_slots, cfg.n_t))
    scores = per_slot.max(axis=1)
    order = np.argsort(-scores, kind="stable")
    sap = np.sort(order[: cfg.k])
    sap, repaired = repair_sap(sap, cfg, scores)
    antennas = ant_idx[sap]
    est = x_hat.reshape(cfg.n_slots, cfg.n_t)[sap, antennas]
    pts = cfg.alphabet.points
    symbols = pts[np.argmin(np.abs(est[:, None] - pts[None, :]), axis=1)]
    diag = {"iterations_run": 0, "sap_repaired": repaired}
    return _finalize(y, h, sap, antennas, symbols, cfg, diag)


# ---------------------------------------------------------------------------
# two-stage detector (MMSE antenna picks + slot/symbol message passing)
# ---------------------------------------------------------------------------


def _slot_count_messages(q: np.ndarray, k: int) -> np.ndarray:
    """Constraint-node messages u_l from the activity posteriors q.

    phi_l is the pmf of the number of used slots among all slots except l,
    built by convolving the other slots' Bernoulli pmfs (prefix/suffix
    products); u_l compares phi_l at k-1 (slot l used) and k (slot l unused).
    """
    n = q.shape[0]
    prefix = [np.ones(1)]
    for j in range(n):
        prefix.append(np.convolve(prefix[-1], q[j]))
    suffix = [np.ones(1)]
    for j in range(n - 1, -1, -1):
        suffix.append(np.convolve(suffix[-1], q[j]))
    u = np.empty((n, 2))  # columns: slot l unused, used
    for l in range(n):
        phi = np.convolve(prefix[l], suffix[n - 1 - l])
        u[l, 0] = phi[k] if k < phi.size else 0.0
        u[l, 1] = phi[k - 1] if k - 1 < phi.size else 0.0
    # rows to pmfs; a row with no usable mass becomes uniform
    total = u[:, 0] + u[:, 1]
    ok = (total > 0.0) & np.isfinite(total)
    u[ok] /= total[ok, None]
    u[~ok] = 0.5
    return u


def ssd2_detect(
    y: np.ndarray,
    h: np.ndarray,
    sigma2: float,
    cfg: StimConfig,
    mp: MpParams = MpParams(),
) -> DetectionResult:
    """Two-stage detector: MMSE antenna estimation, then message passing for
    slot activity and symbols on the reduced one-column-per-slot model.

    Layer 1 exchanges Gaussian-approximation messages between observations
    and the composite symbol variables z_l in alphabet+{0}; layer 2 enforces
    the exactly-k-used-slots constraint through the count pmf. Interference
    moments use the composite per-slot belief (activity prior times the
    product of observation messages) rather than per-edge beliefs.
    """
    n, k, n_t = cfg.n_slots, cfg.k, cfg.n_t
    q_pts = cfg.alphabet.size
    _, ant_idx = mmse_stage(y, h, sigma2, n_t)
    h_bar = reduce_model(h, ant_idx, n_t)
    habs2 = np.abs(h_bar) ** 2

    vals = np.concatenate([[0.0 + 0.0j], cfg.alphabet.points])
    vals_abs2 = np.abs(vals) ** 2

    beliefs = np.full((n, q_pts + 1), 1.0 / (q_pts + 1))
    q = np.tile([1.0 - k / n, k / n], (n, 1))
    sv = np.zeros((n, q_pts + 1))
    iterations = 0
    for _ in range(mp.max_iterations):
        iterations += 1
        # Gaussian moments of the interference seen by each (observation, slot)
        mean_z = beliefs @ vals
        var_z = (beliefs @ vals_abs2 - np.abs(mean_z) ** 2).clip(min=0.0)
        mu = (h_bar @ mean_z)[:, None] - h_bar * mean_z[None, :]
        sig2 = ((habs2 @ var_z)[:, None] - habs2 * var_z[None, :] + sigma2).clip(min=_ZF_EPS)

        # layer 1: observation-node messages over alphabet+{0}
        resid = y[:, None] - mu
        diff = resid[:, :, None] - h_bar[:, :, None] * vals[None, None, :]
        log_v = -(np.abs(diff) ** 2) / sig2[:, :, None]
        log_v -= log_v.max(axis=2, keepdims=True)
        log_v -= np.log(np.exp(log_v).sum(axis=2, keepdims=True))
        sv = log_v.sum(axis=0)

        # layer 2: count-constraint messages from the previous activity state
        u = _slot_count_messages(q, k)

        with np.errstate(divide="ignore"):
            log_u = np.log(u)
        log_b = sv.copy()
        log_b[:, 0] += log_u[:, 0]
        log_b[:, 1:] += log_u[:, 1:2]
        beliefs_new = _normalize_log_rows(log_b)

        m = sv[:, 1:].max(axis=1)
        log_q1 = m + np.log(np.exp(sv[:, 1:] - m[:, None]).sum(axis=1))
        q_new = _normalize_log_rows(np.stack([sv[:, 0], log_q1], axis=1))

        delta = mp.damping
        change = max(
            np.abs(beliefs_new - beliefs).max(), np.abs(q_new - q).max()
        ) * delta
        beliefs = delta * beliefs_new + (1.0 - delta) * beliefs
        q = delta * q_new + (1.0 - delta) * q
        if change < _CONVERGENCE_TOL:
            break

    order = np.argsort(-q[:, 1], kind="stable")
    sap = np.sort(order[:k])
    sap, repaired = repair_sap(sap, cfg, q[:, 1])
    antennas = ant_idx[sap]
    symbols = cfg.alphabet.points[np.argmax(sv[sap, 1:], axis=1)]
    diag = {
        "iterations_run": iterations,
        "sap_repaired": repaired,
        "slot_posteriors": q.copy(),
    }
    return _finalize(y, h, sap, antennas, symbols, cfg, diag)


# ---------------------------------------------------------------------------
# three-stage detector (refines antennas/symbols on the slots picked by 2SSD)
# ---------------------------------------------------------------------------


def ssd3_detect(
    y: np.ndarray,
    h: np.ndarray,
    sigma2: float,
    cfg: StimConfig,
    mp: MpParams = MpParams(),
) -> DetectionResult:
    """Three-stage detector: 2SSD fixes the used slots, then per-slot transmit
    vectors (antenna, symbol) are re-estimated by message passing on the
    k n_t columns of H for those slots.

    The candidate set holds all n_t * |alphabet| one-active-antenna vectors;
    messages are per (variable, observation) edge with Gaussian-approximated
    interference from the other used slots.
    """
    res2 = ssd2_detect(y, h, sigma2, cfg, mp)
    slots = res2.sap
    n_t, k = cfg.n_t, cfg.k
    pts = cfg.alphabet.points
    q_pts = pts.size
    n_obs = y.size
    n_m = n_t * q_pts

    g = h[:, (slots[:, None] * n_t + np.arange(n_t)[None, :]).ravel()]
    # effective scalar seen at observation i from slot j sending candidate s
    ant_of = np.repeat(np.arange(n_t), q_pts)
    sym_of = np.tile(np.arange(q_pts), n_t)
    p_eff = g.reshape(n_obs, k, n_t)[:, :, ant_of] * pts[sym_of][None, None, :]
    p_abs2 = np.abs(p_eff) ** 2

    def observation_messages(pbar):
        """Log messages (n_obs, k, n_m) from the Gaussian moments of pbar."""
        me = np.einsum("lis,ils->il", pbar, p_eff)
        ve = (np.einsum("lis,ils->il", pbar, p_abs2) - np.abs(me) ** 2).clip(min=0.0)
        mu = me.sum(axis=1, keepdims=True) - me
        s2 = (ve.sum(axis=1, keepdims=True) - ve + sigma2).clip(min=_ZF_EPS)
        resid = y[:, None] - mu
        return -(np.abs(resid[:, :, None] - p_eff) ** 2) / s2[:, :, None]

    pbar = np.full((k, n_obs, n_m), 1.0 / n_m)
    iterations = 0
    for _ in range(mp.max_iterations):
        iterations += 1
        log_msg = observation_messages(pbar)
        tot = log_msg.sum(axis=0)  # (k, n_m), inclusive over observations
        log_pnew = tot[:, None, :] - log_msg.transpose(1, 0, 2)
        pnew = _normalize_log_rows(log_pnew)

        delta = mp.damping
        change = np.abs(pnew - pbar).max() * delta
        pbar = delta * pnew + (1.0 - delta) * pbar
        if change < _CONVERGENCE_TOL:
            break

    # final inclusive beliefs from the final message state
    tot = observation_messages(pbar).sum(axis=0)

    w_hat = np.argmax(tot, axis=1)
    antennas = ant_of[w_hat]
    symbols = pts[sym_of[w_hat]]
    diag = {
        "iterations_run": iterations,
        "sap_repaired": res2.diagnostics.get("sap_repaired", False),
        "stage2_iterations": res2.diagnostics.get("iterations_run", 0),
    }
    return _finalize(y, h, slots, antennas, symbols, cfg, diag)


DETECTORS = ("ml", "mmse", "2ssd", "3ssd")


def detect(name: str, y, h, sigma2, cfg, mp: MpParams = MpParams(), ml_cap: int = DEFAULT_ML_CAP):
    """Dispatch by detector name ("ml" | "mmse" | "2ssd" | "3ssd")."""
    if name == "ml":
        return ml_detect(y, h, cfg, cap=ml_cap)
    if name == "mmse":
        return mmse_detect(y, h, sigma2, cfg)
    if name == "2ssd":
        return ssd2_detect(y, h, sigma2, cfg, mp)
    if name == "3ssd":
        return ssd3_detect(y, h, sigma2, cfg, mp)
    raise ValueError(f"unknown detector {name!r}")
