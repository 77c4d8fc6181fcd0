"""Exact, slow reference implementations that the tests compare the
simulator's fast paths against."""

import numpy as np

from stimsim.alphabet import index_to_bits
from stimsim.channel import ChannelRealization
from stimsim.codec import StimFrame, decode_frame, repair_sap
from stimsim.detectors import (
    _CONVERGENCE_TOL,
    _ZF_EPS,
    DetectionResult,
    MpParams,
    _normalize_log_rows,
)
from stimsim.ofdm import OfdmConfig


def normalize_messages(raw: np.ndarray) -> np.ndarray:
    """Scale a nonnegative vector to a pmf; all-zero input becomes uniform."""
    raw = np.asarray(raw, dtype=float)
    total = raw.sum()
    if total <= 0.0 or not np.isfinite(total):
        return np.full(raw.shape, 1.0 / raw.size)
    return raw / total


def circular_convolution_reference(frame: StimFrame, ch: ChannelRealization) -> np.ndarray:
    """Per-antenna circular convolution of the data columns with the taps.

    Independent oracle for the block-circulant product: entry (slot j, rx r)
    is sum_l sum_i taps[l, r, i] * B[i, (j - l) mod N].
    """
    l_taps, n_r, n_t = ch.taps.shape
    n = frame.b_mat.shape[1]
    y = np.zeros((n, n_r), dtype=np.complex128)
    for j in range(n):
        for l in range(l_taps):
            y[j] += ch.taps[l] @ frame.b_mat[:, (j - l) % n]
    return y.reshape(-1)


def linear_convolution_ofdm_reference(block: np.ndarray, ch: ChannelRealization) -> np.ndarray:
    """Noiseless OFDM receive samples, (n_r, N): per-antenna linear convolution
    of the CP-extended block with the taps, keeping samples L-1 .. N+L-2."""
    l_taps, n_r, _ = ch.taps.shape
    n = block.size - (l_taps - 1)
    y = np.empty((n_r, n), dtype=np.complex128)
    for r in range(n_r):
        y[r] = np.convolve(block, ch.taps[:, r, 0])[l_taps - 1 : l_taps - 1 + n]
    return y


def joint_ml_reference(y: np.ndarray, ch: ChannelRealization, cfg: OfdmConfig) -> np.ndarray:
    """Exhaustive joint ML over all |alphabet|^N OFDM frames."""
    n, m = cfg.n_slots, cfg.alphabet.m_bits
    pts = cfg.alphabet.points
    lam = np.fft.fft(ch.taps[:, :, 0], n=n, axis=0).T
    freq_rx = np.fft.fft(y, axis=1, norm="ortho")
    best_bits, best_val = None, np.inf
    for v in range(pts.size**n):
        digits = [(v // pts.size ** (n - 1 - i)) % pts.size for i in range(n)]
        s = pts[digits]
        val = float(np.sum(np.abs(freq_rx - lam * s[None, :]) ** 2))
        if val < best_val:
            best_val = val
            best_bits = np.concatenate([index_to_bits(d, m) for d in digits])
    return best_bits


# ---------------------------------------------------------------------------
# dense detectors: every observation against every slot of any H
# ---------------------------------------------------------------------------


def dense_mmse_stage(y, h, sigma2, n_t):
    """MMSE estimate by one (N n_t)-square solve, plus per-slot antenna picks."""
    gram = h.conj().T @ h
    reg = sigma2 if sigma2 > 0.0 else _ZF_EPS
    x_hat = np.linalg.solve(gram + reg * np.eye(gram.shape[0]), h.conj().T @ y)
    per_slot = np.abs(x_hat.reshape(-1, n_t))
    return x_hat, np.argmax(per_slot, axis=1)


def reduce_model(h, antenna_idx, n_t):
    """Keep one column of H per slot: column i of the result is H's column
    i * n_t + antenna_idx[i]."""
    antenna_idx = np.asarray(antenna_idx)
    cols = np.arange(antenna_idx.size) * n_t + antenna_idx
    return h[:, cols]


def convolution_count_messages(q, k):
    """Count-constraint messages by explicit prefix/suffix convolutions."""
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
    total = u[:, 0] + u[:, 1]
    ok = (total > 0.0) & np.isfinite(total)
    u[ok] /= total[ok, None]
    u[~ok] = 0.5
    return u


def dense_ssd2_detect(y, h, sigma2, cfg, mp=MpParams()):
    """2SSD with (observation x slot x value) messages over all of H."""
    n, k, n_t = cfg.n_slots, cfg.k, cfg.n_t
    q_pts = cfg.alphabet.size
    _, ant_idx = dense_mmse_stage(y, h, sigma2, n_t)
    h_bar = reduce_model(h, ant_idx, n_t)
    habs2 = np.abs(h_bar) ** 2
    vals = np.concatenate([[0.0 + 0.0j], cfg.alphabet.points])
    vals_abs2 = np.abs(vals) ** 2

    beliefs = np.full((n, q_pts + 1), 1.0 / (q_pts + 1))
    q = np.tile([1.0 - k / n, k / n], (n, 1))
    iterations = 0
    for _ in range(mp.max_iterations):
        iterations += 1
        mean_z = beliefs @ vals
        var_z = (beliefs @ vals_abs2 - np.abs(mean_z) ** 2).clip(min=0.0)
        mu = (h_bar @ mean_z)[:, None] - h_bar * mean_z[None, :]
        sig2 = ((habs2 @ var_z)[:, None] - habs2 * var_z[None, :] + sigma2).clip(min=_ZF_EPS)
        resid = y[:, None] - mu
        diff = resid[:, :, None] - h_bar[:, :, None] * vals[None, None, :]
        log_v = -(np.abs(diff) ** 2) / sig2[:, :, None]
        log_v -= log_v.max(axis=2, keepdims=True)
        log_v -= np.log(np.exp(log_v).sum(axis=2, keepdims=True))
        sv = log_v.sum(axis=0)

        u = convolution_count_messages(q, k)
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
        change = max(np.abs(beliefs_new - beliefs).max(), np.abs(q_new - q).max()) * delta
        beliefs = delta * beliefs_new + (1.0 - delta) * beliefs
        q = delta * q_new + (1.0 - delta) * q
        if change < _CONVERGENCE_TOL:
            break

    order = np.argsort(-q[:, 1], kind="stable")
    sap, repaired = repair_sap(np.sort(order[:k]), cfg, q[:, 1])
    antennas = ant_idx[sap]
    symbols = cfg.alphabet.points[np.argmax(sv[sap, 1:], axis=1)]
    diag = {"iterations_run": iterations, "sap_repaired": repaired, "slot_posteriors": q}
    bits = decode_frame(sap, antennas, symbols, cfg)
    return DetectionResult(bits, sap, antennas, symbols, diag)


def dense_ssd3_detect(y, h, sigma2, cfg, mp=MpParams()):
    """3SSD with per-(used slot, observation) messages over all of H."""
    res2 = dense_ssd2_detect(y, h, sigma2, cfg, mp)
    slots = res2.sap
    n_t, k = cfg.n_t, cfg.k
    pts = cfg.alphabet.points
    q_pts = pts.size
    n_obs = y.size
    n_m = n_t * q_pts

    g = h[:, (slots[:, None] * n_t + np.arange(n_t)[None, :]).ravel()]
    ant_of = np.repeat(np.arange(n_t), q_pts)
    sym_of = np.tile(np.arange(q_pts), n_t)
    p_eff = g.reshape(n_obs, k, n_t)[:, :, ant_of] * pts[sym_of][None, None, :]
    p_abs2 = np.abs(p_eff) ** 2

    def observation_messages(pbar):
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
        tot = log_msg.sum(axis=0)
        pnew = _normalize_log_rows(tot[:, None, :] - log_msg.transpose(1, 0, 2))
        delta = mp.damping
        change = np.abs(pnew - pbar).max() * delta
        pbar = delta * pnew + (1.0 - delta) * pbar
        if change < _CONVERGENCE_TOL:
            break

    tot = observation_messages(pbar).sum(axis=0)
    w_hat = np.argmax(tot, axis=1)
    antennas = ant_of[w_hat]
    symbols = pts[sym_of[w_hat]]
    diag = {
        "iterations_run": iterations,
        "stage2_iterations": res2.diagnostics["iterations_run"],
        "beliefs": _normalize_log_rows(tot),
    }
    bits = decode_frame(slots, antennas, symbols, cfg)
    return DetectionResult(bits, slots, antennas, symbols, diag)
