"""Exact, slow reference implementations that the tests compare the
simulator's fast paths against, and the seeded link draws the tests share."""

import math

import numpy as np

from stimsim.alphabet import Alphabet
from stimsim.channel import build_block_circulant, draw_channel
from stimsim.codec import StimConfig, bit_partition, decode_frame, encode_frame, repair_sap
from stimsim.detectors import (
    _CONVERGENCE_TOL,
    _ZF_EPS,
    DetectionResult,
    MpParams,
)
from stimsim.ofdm import OfdmConfig
from stimsim.rates import RateParams, rate_improvement


def bits_to_index(bits: np.ndarray) -> int:
    """Pack a big-endian 0/1 vector into an integer."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def index_to_bits(value: int, width: int) -> np.ndarray:
    """Unpack an integer into a big-endian 0/1 vector of the given width."""
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.int8)


def lex_unrank(rank: int, n: int, k: int) -> list[int]:
    """The rank-th k-subset of {0..n-1} in lexicographic order, one slot at a
    time: place i skips slot x while the rank left is at least the number of
    subsets that put x there, C(n - x - 1, k - i - 1)."""
    subset, x = [], 0
    for i in range(k):
        while rank >= (block := math.comb(n - x - 1, k - i - 1)):
            rank -= block
            x += 1
        subset.append(x)
        x += 1
    return subset


def map_bits(bits: np.ndarray, a: Alphabet) -> complex:
    """Map an m_bits-long bit vector to its constellation point."""
    bits = np.asarray(bits)
    if bits.size != a.m_bits:
        raise ValueError(f"expected {a.m_bits} bits, got {bits.size}")
    return complex(a.points[bits_to_index(bits)])


def demap_symbol(s: complex, a: Alphabet) -> np.ndarray:
    """Label of the nearest constellation point (ties go to the lowest label)."""
    idx = int(np.argmin(np.abs(a.points - s)))
    return index_to_bits(idx, a.m_bits)


def brute_force_optimal_n(params: RateParams, n_max: int = 512) -> int:
    """Argmax of the analytic rate improvement over N in [2, n_max] with k = N-1."""
    best_n, best_ri = 2, -math.inf
    for n in range(2, n_max + 1):
        p = RateParams(n, params.l_taps, params.n_t, params.alphabet_size)
        ri = rate_improvement(p, n - 1, analytic=True)
        if ri > best_ri:
            best_n, best_ri = n, ri
    return best_n


def tap_normals(rng: np.random.Generator, cfg) -> np.ndarray:
    """One realization's standard normals for any config with n_t/n_r/l_taps,
    shaped (2, L, n_r, n_t): the real parts, then the imaginary ones, the
    order draw_channel reads them in."""
    return rng.standard_normal((2, cfg.l_taps, cfg.n_r, cfg.n_t))


def draw_links(rng: np.random.Generator, cfg: StimConfig | OfdmConfig, frames: int):
    """(bits, taps, normals) of frames links stacked on a leading axis: each
    link draws its bits, its channel taps and its noise normals in turn."""
    draws = [(rng.integers(0, 2, bit_partition(cfg).total, dtype=np.int8), draw_channel(tap_normals(rng, cfg)),
              rng.standard_normal((2, cfg.n_slots * cfg.n_r))) for _ in range(frames)]
    return tuple(np.stack(a) for a in zip(*draws))


def normalize_messages(raw: np.ndarray) -> np.ndarray:
    """Scale a nonnegative vector to a pmf; all-zero input becomes uniform."""
    raw = np.asarray(raw, dtype=float)
    total = raw.sum()
    if total <= 0.0 or not np.isfinite(total):
        return np.full(raw.shape, 1.0 / raw.size)
    return raw / total


def normalize_log_rows(logw: np.ndarray) -> np.ndarray:
    """Rows (the last axis) of log weights -> rows of pmfs; a row with no
    finite entry becomes uniform."""
    m = logw.max(axis=-1, keepdims=True)
    finite = np.isfinite(m)
    w = np.exp(logw - np.where(finite, m, 0.0))
    w[~finite[..., 0]] = 1.0
    return w / w.sum(axis=-1, keepdims=True)


def circular_convolution_reference(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per-antenna circular convolution of the (N, n_t) transmit slots with the taps.

    Independent oracle for the block-circulant product: entry (slot j, rx r)
    is sum_l sum_i taps[l, r, i] * x[(j - l) mod N, i].
    """
    l_taps, n_r, n_t = taps.shape
    n = x.shape[0]
    y = np.zeros((n, n_r), dtype=np.complex128)
    for j in range(n):
        for l in range(l_taps):
            y[j] += taps[l] @ x[(j - l) % n]
    return y.reshape(-1)


def linear_convolution_ofdm_reference(block: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Noiseless OFDM receive samples, (n_r, N): per-antenna linear convolution
    of the CP-extended block with the taps, keeping samples L-1 .. N+L-2."""
    l_taps, n_r, _ = taps.shape
    n = block.size - (l_taps - 1)
    y = np.empty((n_r, n), dtype=np.complex128)
    for r in range(n_r):
        y[r] = np.convolve(block, taps[:, r, 0])[l_taps - 1 : l_taps - 1 + n]
    return y


def joint_ml_reference(y: np.ndarray, taps: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Exhaustive joint ML over all |alphabet|^N OFDM frames."""
    n, m = cfg.n_slots, cfg.alphabet.m_bits
    pts = cfg.alphabet.points
    lam = np.fft.fft(taps[:, :, 0], n=n, axis=0).T
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
# exhaustive ML: every bit vector through the encoder
# ---------------------------------------------------------------------------


def encode_table(cfg: StimConfig):
    """(bits, x): every bit vector of cfg in increasing order of its value,
    (2^bits, bits), and its transmit slots from encode_frame, flattened to
    (2^bits, N n_t)."""
    total = bit_partition(cfg).total
    values = np.arange(2**total)
    bits = ((values[:, None] >> np.arange(total - 1, -1, -1)) & 1).astype(np.int8)
    return bits, encode_frame(bits, cfg).reshape(len(bits), -1)


def exhaustive_ml(y, taps: np.ndarray, cfg: StimConfig, table):
    """(bits, metric): ||y - H x||^2 with the dense H for every row x of
    encode_table(cfg), and the lowest bits among the candidates within
    1e-10 (sqrt(tr(H^H H) max ||x||^2) + ||y||)^2 of the least metric, the
    tolerance within which ml_detect calls two candidates tied."""
    bits, x = table
    h = build_block_circulant(taps, cfg.n_slots)
    metric = np.sum(np.abs(y - x @ h.T) ** 2, axis=1)
    x_max = np.max(np.sum(np.abs(x) ** 2, axis=1))
    tol = 1e-10 * (np.sqrt(np.sum(np.abs(h) ** 2) * x_max) + np.linalg.norm(y)) ** 2
    return bits[np.argmax(metric <= metric.min() + tol)], metric


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
        beliefs_new = normalize_log_rows(log_b)
        m = sv[:, 1:].max(axis=1)
        log_q1 = m + np.log(np.exp(sv[:, 1:] - m[:, None]).sum(axis=1))
        q_new = normalize_log_rows(np.stack([sv[:, 0], log_q1], axis=1))

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
        pnew = normalize_log_rows(tot[:, None, :] - log_msg.transpose(1, 0, 2))
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
        "beliefs": normalize_log_rows(tot),
    }
    bits = decode_frame(slots, antennas, symbols, cfg)
    return DetectionResult(bits, slots, antennas, symbols, diag)
