import re

import numpy as np
import pytest

from oracles import (
    convolution_count_messages,
    dense_mmse_stage,
    dense_ssd2_detect,
    dense_ssd3_detect,
    encode_table,
    exhaustive_ml,
    ml_pattern_metric,
    normalize_messages,
    reduce_model,
)
from stimsim.alphabet import build_alphabet
from stimsim.channel import (
    ChannelRealization,
    build_block_circulant,
    draw_channel,
    snr_to_sigma2,
    transmit,
)
from stimsim import codec, detectors
from stimsim.codec import StimConfig, bit_partition, encode_frame, slot_fields
from stimsim.detectors import (
    DETECTORS,
    MpParams,
    _lowest_bit_candidate,
    _ml_candidates,
    _ml_workspace,
    _rank_metric,
    _repair_each,
    _slot_count_messages,
    detect,
    ml_detect,
    mmse_detect,
    mmse_stage,
    ssd2_detect,
    ssd3_detect,
)

QAM4 = build_alphabet("qam4")
QAM4_RAW = build_alphabet("qam4", normalize=False)
BPSK = build_alphabet("bpsk")

FIG5 = StimConfig(2, 4, 8, 7, 2, QAM4)
FIG4 = StimConfig(2, 4, 6, 5, 2, QAM4)


def run_links(rng, cfg, snr_db, frames=1):
    """(bits, slots, ch, y, sigma2) of frames links stacked on a leading axis;
    each link draws its bits, channel taps and noise normals in turn."""
    part = bit_partition(cfg)
    draws = [(rng.integers(0, 2, part.total, dtype=np.int8), draw_channel(rng, cfg).taps,
              rng.standard_normal((2, cfg.n_slots * cfg.n_r))) for _ in range(frames)]
    bits, taps, normals = (np.stack(a) for a in zip(*draws))
    ch = ChannelRealization(taps)
    slots = encode_frame(bits, cfg)
    sigma2 = snr_to_sigma2(snr_db, cfg.l_taps) if snr_db is not None else 0.0
    return bits, slots, ch, transmit(slots, ch, sigma2, normals), sigma2


def dense_h(ch, i, cfg):
    """Frame i's dense block-circulant H."""
    return build_block_circulant(ChannelRealization(ch.taps[i]), cfg.n_slots)


# ---------------------------------------------------------------------------
# normalize_messages
# ---------------------------------------------------------------------------


def test_normalize_messages_basic():
    assert np.allclose(normalize_messages(np.array([2.0, 2.0])), [0.5, 0.5])
    assert np.allclose(normalize_messages(np.array([0.0, 0.0])), [0.5, 0.5])
    assert np.allclose(normalize_messages(np.array([1.0, 3.0])), [0.25, 0.75])


def test_normalize_log_linear_agreement():
    rng = np.random.default_rng(0)
    for _ in range(200):
        raw = rng.uniform(0.01, 5.0, size=rng.integers(2, 9))
        linear = normalize_messages(raw)
        logs = np.log(raw)
        log_path = np.exp(logs - logs.max())
        log_path /= log_path.sum()
        assert np.abs(linear - log_path).max() < 1e-12


# ---------------------------------------------------------------------------
# ML
# ---------------------------------------------------------------------------


def test_ml_noiseless_recovery():
    rng = np.random.default_rng(1)
    bits, _, ch, y, _ = run_links(rng, FIG4, None, 20)
    assert np.array_equal(ml_detect(y, ch, FIG4).bits, bits)


def test_ml_candidate_count_fig4():
    rng = np.random.default_rng(2)
    _, _, ch, y, _ = run_links(rng, FIG4, 10.0)
    res = ml_detect(y, ch, FIG4)
    assert res.diagnostics["candidates"] == 2**17


def test_ml_beats_random_candidates():
    rng = np.random.default_rng(3)
    bits, _, ch, y, _ = run_links(rng, FIG4, 6.0)
    res = ml_detect(y, ch, FIG4)
    h = dense_h(ch, 0, FIG4)
    x_ml = np.zeros(FIG4.n_slots * FIG4.n_t, dtype=complex)
    x_ml[res.sap[0] * FIG4.n_t + res.antennas[0]] = res.symbols[0]
    residual = np.sum(np.abs(y[0] - h @ x_ml) ** 2)
    part = bit_partition(FIG4)
    others = np.stack([rng.integers(0, 2, part.total, dtype=np.int8) for _ in range(1000)])
    x = encode_frame(others, FIG4).reshape(1000, -1)
    assert np.all(residual <= np.sum(np.abs(y[0] - x @ h.T) ** 2, axis=1) + 1e-9)


def test_ml_cap_refusal():
    rng = np.random.default_rng(4)
    _, _, ch, y, _ = run_links(rng, FIG5, 10.0)
    with pytest.raises(ValueError, match="2ssd"):
        ml_detect(y, ch, FIG5, cap=2**22)


# Fig. 4 with the normalized and the integer-grid alphabet, and with n_t = 1 BPSK
ML_ORACLE_CONFIGS = [FIG4, StimConfig(2, 4, 6, 5, 2, QAM4_RAW), StimConfig(1, 4, 6, 5, 2, BPSK)]


@pytest.mark.parametrize("cfg", ML_ORACLE_CONFIGS, ids=["qam4", "qam4_raw", "nt1_bpsk"])
def test_ml_matches_exhaustive_oracle(cfg):
    # only frames whose oracle minimum is unique: where candidates tie
    # mathematically (y = 0), they differ by an ulp in either computation
    rng = np.random.default_rng(30)
    table = encode_table(cfg)
    checked = 0
    for snr in (None, 3.0, 9.0, 12.0):
        _, _, ch, y, _ = run_links(rng, cfg, snr, 6)
        res = ml_detect(y, ch, cfg)
        for i in range(6):
            want, metric = exhaustive_ml(y[i], ChannelRealization(ch.taps[i]), cfg, table)
            best, second = np.partition(metric, 1)[:2]
            if second - best > 1e-9 * second:
                assert np.array_equal(res.bits[i], want), (snr, i)
                checked += 1
    assert checked >= 20


@pytest.mark.parametrize("cfg", ML_ORACLE_CONFIGS + [
    StimConfig(4, 1, 4, 2, 1, build_alphabet("qam8")),
    StimConfig(2, 1, 5, 3, 1, build_alphabet("qam8", normalize=False)),
], ids=["qam4", "qam4_raw", "nt1_bpsk", "nt4_qam8", "qam8_raw"])
def test_ml_ties_go_to_the_lowest_bits(cfg):
    # random tie sets, shaped as the search builds them: ranks in increasing
    # order, each with its sorted flat indices
    rng = np.random.default_rng(31)
    cand = _ml_candidates(cfg.n_t, cfg.n_slots, cfg.k, cfg.alphabet.kind, cfg.alphabet.normalized)
    _, table = encode_table(cfg)
    value_of = {row.tobytes(): v for v, row in enumerate(table)}
    n_b = cand.w_b.shape[0]

    def value(rank, flat):
        """The oracle's bit value of a candidate, found by its transmit slots."""
        ia, ib = divmod(flat, n_b)
        x = np.zeros((cfg.n_slots, cfg.n_t), dtype=complex)
        x[cand.saps[rank]] = np.concatenate([cand.w_a[ia], cand.w_b[ib]]).reshape(cfg.k, cfg.n_t)
        return value_of[x.tobytes()]

    for _ in range(300):
        ranks = np.sort(rng.choice(cand.n_rank, rng.integers(1, cand.n_rank + 1), replace=False))
        ties = [(int(r), np.sort(rng.choice(cand.w_a.shape[0] * n_b, rng.integers(1, 6), replace=False)))
                for r in ranks]
        want = min((value(r, int(f)), r, int(f)) for r, flats in ties for f in flats)
        assert _lowest_bit_candidate(ties, cand, cfg) == want[1:]


# the oracle configs, plus k = 1 (half B is empty, so the product has only
# the two term columns), k = N and n_t = 4 qam8
METRIC_CONFIGS = ML_ORACLE_CONFIGS + [
    StimConfig(2, 2, 4, 1, 2, QAM4),
    StimConfig(2, 2, 3, 3, 2, QAM4),
    StimConfig(4, 1, 4, 2, 1, build_alphabet("qam8")),
]


@pytest.mark.parametrize("cfg", METRIC_CONFIGS,
                         ids=["qam4", "qam4_raw", "nt1_bpsk", "k1", "k_eq_n", "nt4_qam8"])
def test_rank_metric_matches_dense_oracle(cfg):
    # every candidate of every slot pattern, relative to the pattern's largest metric
    rng = np.random.default_rng(32)
    cand = _ml_candidates(cfg.n_t, cfg.n_slots, cfg.k, cfg.alphabet.kind, cfg.alphabet.normalized)
    work = _ml_workspace(cand)
    for snr in (None, 3.0, 12.0):
        _, _, ch, y, _ = run_links(rng, cfg, snr, 2)
        for i in range(2):
            one = ChannelRealization(ch.taps[i])
            h = build_block_circulant(one, cfg.n_slots)
            gram, c = h.conj().T @ h, h.conj().T @ y[i]
            for rank in range(cand.n_rank):
                want = ml_pattern_metric(y[i], one, cfg, cand.saps[rank])
                got = _rank_metric(gram, c, rank, cand, work).ravel()
                assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), (snr, i, rank)


def test_ml_tables_are_read_only():
    cand = _ml_candidates(FIG4.n_t, FIG4.n_slots, FIG4.k, FIG4.alphabet.kind, FIG4.alphabet.normalized)
    for name in ("saps", "cols", "digits_a", "digits_b", "w_a", "w_b", "w_a_conj", "w_b_conj"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(cand, name)[0] = 0


def test_interleaved_ml_calls_match_separate_calls():
    # each call has its own workspace: alternating frames of two configs
    # gives each frame the bits of its own config's batch call
    rng = np.random.default_rng(33)
    cfgs = ML_ORACLE_CONFIGS[::2]
    links = [run_links(rng, cfg, 6.0, 5)[2:4] for cfg in cfgs]
    separate = [ml_detect(y, ch, cfg).bits for cfg, (ch, y) in zip(cfgs, links)]
    for i in range(5):
        for cfg, (ch, y), want in zip(cfgs, links, separate):
            got = ml_detect(y[i : i + 1], ChannelRealization(ch.taps[i : i + 1]), cfg).bits
            assert np.array_equal(got[0], want[i])


def test_per_slot_candidate_vectors_nt2_bpsk():
    # the n_t |A| one-active-antenna vectors for n_t=2, BPSK, unnormalized:
    # (1,0), (-1,0), (0,1), (0,-1)
    from stimsim.detectors import _MlCandidates

    cfg = StimConfig(2, 1, 2, 1, 1, build_alphabet("bpsk", normalize=False))
    cand = _MlCandidates(cfg)
    expected = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=complex)
    assert np.array_equal(cand.w_a, expected)


# ---------------------------------------------------------------------------
# MMSE stage
# ---------------------------------------------------------------------------


def test_mmse_zero_forcing_limit():
    # mmse_stage takes H to be block-circulant: with sigma2 = 0 it inverts it
    rng = np.random.default_rng(5)
    cfg = StimConfig(2, 2, 6, 5, 3, QAM4)
    ch = draw_channel(rng, cfg)
    h = build_block_circulant(ch, cfg.n_slots)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    x_hat, _ = mmse_stage((h @ x)[None], ChannelRealization(ch.taps[None]), 0.0)
    assert np.abs(x_hat[0] - x).max() < 1e-5


def test_mmse_single_antenna_indices():
    rng = np.random.default_rng(6)
    cfg = StimConfig(1, 2, 4, 3, 2, QAM4)
    _, _, ch, y, s2 = run_links(rng, cfg, 10.0)
    _, idx = mmse_stage(y, ch, s2)
    assert np.array_equal(idx, np.zeros((1, 4), dtype=int))


def test_mmse_antenna_accuracy_high_snr():
    rng = np.random.default_rng(7)
    _, slots, ch, y, s2 = run_links(rng, FIG5, 30.0, 200)
    _, idx = mmse_stage(y, ch, s2)
    sap, antennas, _ = slot_fields(slots, FIG5.k)
    assert np.mean(np.take_along_axis(idx, sap, axis=1) == antennas) > 0.95


def test_reduce_model_identity_and_indexing():
    rng = np.random.default_rng(8)
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert np.array_equal(reduce_model(h, np.zeros(8, dtype=int), 1), h)
    h2 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    picked = reduce_model(h2, np.zeros(4, dtype=int), 2)
    assert np.array_equal(picked, h2[:, [0, 2, 4, 6]])


def test_reduce_model_support_identity():
    # H-bar z equals H x when x is supported exactly on the picked columns
    rng = np.random.default_rng(9)
    n, n_t = 5, 2
    h = rng.standard_normal((10, n * n_t)) + 1j * rng.standard_normal((10, n * n_t))
    idx = rng.integers(0, n_t, n)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = np.zeros(n * n_t, dtype=complex)
    x[np.arange(n) * n_t + idx] = z
    assert np.abs(reduce_model(h, idx, n_t) @ z - h @ x).max() < 1e-12


# ---------------------------------------------------------------------------
# banded and per-frequency paths vs the dense oracles
# ---------------------------------------------------------------------------

# (n_t, n_r, N, k, L): N = 8, 16, 32 with L = 2 and 4, n_t = 1 and 2
ORACLE_CONFIGS = [
    (2, 4, 8, 7, 2),
    (1, 4, 8, 6, 4),
    (2, 2, 16, 13, 4),
    (1, 2, 16, 12, 2),
    (2, 4, 32, 28, 4),
    (1, 4, 32, 27, 2),
]


@pytest.mark.parametrize("shape", ORACLE_CONFIGS)
def test_mmse_stage_matches_dense_solve(shape):
    rng = np.random.default_rng(20)
    cfg = StimConfig(*shape, QAM4)
    for snr in (0.0, 10.0, 30.0):
        _, _, ch, y, s2 = run_links(rng, cfg, snr)
        x_hat, idx = mmse_stage(y, ch, s2)
        x_ref, idx_ref = dense_mmse_stage(y[0], dense_h(ch, 0, cfg), s2, cfg.n_t)
        assert np.abs(x_hat[0] - x_ref).max() < 1e-9
        assert np.array_equal(idx[0], idx_ref)


@pytest.mark.parametrize("shape", ORACLE_CONFIGS)
def test_banded_mp_matches_dense(shape):
    rng = np.random.default_rng(21)
    cfg = StimConfig(*shape, QAM4)
    for snr in (4.0, 8.0, 60.0):
        _, _, ch, y, s2 = run_links(rng, cfg, snr, 2)
        res2, res3 = ssd2_detect(y, ch, s2, cfg), ssd3_detect(y, ch, s2, cfg)
        for i in range(2):
            h = dense_h(ch, i, cfg)
            ref2, ref3 = dense_ssd2_detect(y[i], h, s2, cfg), dense_ssd3_detect(y[i], h, s2, cfg)
            for res, ref in ((res2, ref2), (res3, ref3)):
                for name in ("bits", "sap", "antennas", "symbols"):
                    assert np.array_equal(getattr(res, name)[i], getattr(ref, name)), name
                assert res.diagnostics["frame_iterations"][i] == ref.diagnostics["iterations_run"]
            q, q_ref = res2.diagnostics["slot_posteriors"][i], ref2.diagnostics["slot_posteriors"]
            assert np.abs(q - q_ref).max() < 1e-9
            b, b_ref = res3.diagnostics["beliefs"][i], ref3.diagnostics["beliefs"]
            assert np.abs(b - b_ref).max() < 1e-9


@pytest.mark.parametrize("shape,alphabet,mp,snr", [
    ((2, 4, 16, 13, 2), QAM4, MpParams(max_iterations=40, damping=0.9), 20.0),
    # two edges per slot: here the off-band beliefs can move the most
    ((2, 1, 4, 2, 2), QAM4, MpParams(max_iterations=60, damping=0.3), 0.0),
])
def test_banded_ssd3_early_stop_matches_dense(shape, alphabet, mp, snr):
    # the stopping test is reached within the cap, and it watches the
    # off-band edges of the full graph as well as the band's
    rng = np.random.default_rng(22)
    cfg = StimConfig(*shape, alphabet)
    _, _, ch, y, s2 = run_links(rng, cfg, snr, 25)
    res = ssd3_detect(y, ch, s2, cfg, mp)
    for i in range(25):
        ref = dense_ssd3_detect(y[i], dense_h(ch, i, cfg), s2, cfg, mp)
        assert res.diagnostics["frame_iterations"][i] == ref.diagnostics["iterations_run"]
        assert np.array_equal(res.bits[i], ref.bits)
    assert (res.diagnostics["frame_iterations"] < mp.max_iterations).any()


# ---------------------------------------------------------------------------
# a batch of frames gives each frame its result in a batch of one
# ---------------------------------------------------------------------------


def frame_of(res, i):
    """Frame i of a batch result, shaped like the result of a batch of one."""
    diag = {k: v[i : i + 1] if isinstance(v, np.ndarray) else v for k, v in res.diagnostics.items()}
    return res.bits[i : i + 1], res.sap[i : i + 1], res.antennas[i : i + 1], res.symbols[i : i + 1], diag


# (detector, config, mp, SNR): the early-stop configs above, with caps at
# which some frames stop early and the others run to the cap
MIXED_BATCHES = [
    ("2ssd", (2, 1, 4, 2, 2), MpParams(max_iterations=50, damping=0.3), 0.0),
    ("3ssd", (2, 1, 4, 2, 2), MpParams(max_iterations=36, damping=0.3), 0.0),
    ("3ssd", (2, 4, 16, 13, 2), MpParams(max_iterations=8, damping=0.9), 20.0),
    ("mmse", (2, 4, 8, 7, 2), MpParams(), 6.0),
    ("ml", (2, 4, 6, 5, 2), MpParams(), 6.0),
]


@pytest.mark.parametrize("name,shape,mp,snr", MIXED_BATCHES)
def test_batch_matches_single_frames(name, shape, mp, snr):
    rng = np.random.default_rng(27)
    cfg = StimConfig(*shape, QAM4)
    _, _, ch, y, s2 = run_links(rng, cfg, snr, 12)
    chs = [ChannelRealization(ch.taps[i : i + 1]) for i in range(12)]
    batch = detect(name, y, ch, s2, cfg, mp)
    singles = [detect(name, y[i : i + 1], chs[i], s2, cfg, mp) for i in range(12)]
    for i, one in enumerate(singles):
        bits, sap, antennas, symbols, diag = frame_of(batch, i)
        for got, want in ((bits, one.bits), (sap, one.sap), (antennas, one.antennas),
                          (symbols, one.symbols)):
            assert np.array_equal(got, want)
        assert diag.keys() == one.diagnostics.keys()
        for key, want in one.diagnostics.items():
            if key != "iterations_run":  # the batch call's loop count
                assert np.array_equal(diag[key], want), key
    if name in ("2ssd", "3ssd"):
        counts = [int(one.diagnostics["frame_iterations"][0]) for one in singles]
        assert 0 < counts.count(mp.max_iterations) < len(counts), counts  # a mixed batch
        assert batch.diagnostics["iterations_run"] == max(counts)
        assert all(one.diagnostics["iterations_run"] == c for one, c in zip(singles, counts))
    if name == "mmse":
        x_hat, idx = mmse_stage(y, ch, s2)
        for i in range(12):
            x_one, idx_one = mmse_stage(y[i : i + 1], chs[i], s2)
            assert np.array_equal(x_hat[i : i + 1], x_one) and np.array_equal(idx[i : i + 1], idx_one)


def test_chunk_repair_matches_per_frame_repair_sap(monkeypatch):
    # N = 6, k = 5: patterns of rank 4 and 5 are not encodable
    saps = np.array([[1, 2, 3, 4, 5], [0, 1, 2, 3, 4], [0, 2, 3, 4, 5], [0, 1, 2, 4, 5]] * 3)
    scores = np.random.default_rng(29).random((12, 6))
    calls = []

    def counted(sap, cfg, slot_scores=None):
        calls.append(sap)
        return codec.repair_sap(sap, cfg, slot_scores)

    monkeypatch.setattr(detectors, "repair_sap", counted)
    fixed, flags = _repair_each(saps, FIG4, scores)
    assert len(calls) == 6  # only the out-of-range patterns
    for i in range(12):
        want, flag = codec.repair_sap(saps[i], FIG4, scores[i])
        assert np.array_equal(fixed[i], want)
        assert flags[i] == flag == (i % 2 == 0)


def test_batch_rejects_channels_that_do_not_match_its_frames():
    rng = np.random.default_rng(28)
    _, _, ch, y, s2 = run_links(rng, FIG5, 10.0)
    with pytest.raises(ValueError, match="2 channels for 3 frames"):
        detect("mmse", np.repeat(y, 3, axis=0), ChannelRealization(np.repeat(ch.taps, 2, axis=0)), s2, FIG5)


def test_count_messages_match_convolutions():
    rng = np.random.default_rng(23)
    for n, k in [(1, 1), (5, 5), (6, 5), (8, 7), (16, 3), (32, 28), (128, 114)]:
        p = rng.uniform(0.0, 1.0, n)
        q = np.stack([1.0 - p, p], axis=1)
        assert np.abs(_slot_count_messages(q[None], k)[0] - convolution_count_messages(q, k)).max() < 1e-12
    # no mass anywhere (every slot surely unused, k >= 1): uniform fallback
    q = np.tile([1.0, 0.0], (6, 1))
    assert np.array_equal(_slot_count_messages(q[None], 3)[0], convolution_count_messages(q, 3))


@pytest.mark.parametrize("n_slots,k", [(64, 57), (128, 114)])
def test_ssd3_noiseless_paper_scale(n_slots, k):
    rng = np.random.default_rng(24)
    cfg = StimConfig(2, 4, n_slots, k, 4, QAM4)
    s2 = snr_to_sigma2(60.0, cfg.l_taps)
    bits, _, ch, y, _ = run_links(rng, cfg, 60.0, 3)
    assert np.array_equal(ssd3_detect(y, ch, s2, cfg).bits, bits)


# ---------------------------------------------------------------------------
# 2SSD vs a plain-loop reference of the same message schedule
# ---------------------------------------------------------------------------


def reference_ssd2_posteriors(y, h, sigma2, cfg, iters, damp):
    """Unvectorized transcription of the two-stage message equations."""
    n, k = cfg.n_slots, cfg.k
    _, ant = dense_mmse_stage(y, h, sigma2, cfg.n_t)
    hb = reduce_model(h, ant, cfg.n_t)
    n_obs = y.size
    vals = np.concatenate([[0.0 + 0.0j], cfg.alphabet.points])
    nv = vals.size
    b = np.full((n, nv), 1.0 / nv)
    q = np.tile([1.0 - k / n, k / n], (n, 1))
    for _ in range(iters):
        mean_z = np.array([np.sum(b[l] * vals) for l in range(n)])
        var_z = np.array(
            [np.sum(b[l] * np.abs(vals) ** 2) - abs(mean_z[l]) ** 2 for l in range(n)]
        )
        v = np.zeros((n_obs, n, nv))
        for i in range(n_obs):
            for l in range(n):
                mu = sum(hb[i, j] * mean_z[j] for j in range(n) if j != l)
                s2 = sum(abs(hb[i, j]) ** 2 * var_z[j] for j in range(n) if j != l) + sigma2
                w = np.exp(-np.abs(y[i] - mu - vals * hb[i, l]) ** 2 / max(s2, 1e-12))
                v[i, l] = normalize_messages(w)
        u = np.zeros((n, 2))
        for l in range(n):
            phi = np.ones(1)
            for j in range(n):
                if j != l:
                    phi = np.convolve(phi, q[j])
            used = phi[k - 1] if k - 1 < phi.size else 0.0
            unused = phi[k] if k < phi.size else 0.0
            u[l] = normalize_messages(np.array([unused, used]))
        b_new = np.zeros_like(b)
        q_new = np.zeros_like(q)
        for l in range(n):
            prod = np.prod(v[:, l, :], axis=0)
            b_new[l] = normalize_messages(prod * u[l, [0] + [1] * (nv - 1)])
            q_new[l] = normalize_messages(np.array([prod[0], prod[1:].sum()]))
        b = damp * b_new + (1 - damp) * b
        q = damp * q_new + (1 - damp) * q
    return q


@pytest.mark.parametrize("damp", [1.0, 0.3])
def test_ssd2_matches_loop_reference(damp):
    rng = np.random.default_rng(10)
    cfg = StimConfig(2, 2, 4, 3, 2, QAM4)
    _, _, ch, y, s2 = run_links(rng, cfg, 9.0, 5)
    res = ssd2_detect(y, ch, s2, cfg, MpParams(max_iterations=3, damping=damp))
    for i in range(5):
        q_ref = reference_ssd2_posteriors(y[i], dense_h(ch, i, cfg), s2, cfg, 3, damp)
        assert np.abs(res.diagnostics["slot_posteriors"][i] - q_ref).max() < 1e-9


def test_ssd2_posteriors_are_pmfs():
    rng = np.random.default_rng(11)
    _, _, ch, y, s2 = run_links(rng, FIG5, 6.0, 10)
    q = ssd2_detect(y, ch, s2, FIG5).diagnostics["slot_posteriors"]
    assert np.all(q >= 0)
    assert np.abs(q.sum(axis=-1) - 1.0).max() < 1e-9


def test_ssd2_noiseless_consistency():
    rng = np.random.default_rng(12)
    bits, _, ch, y, s2 = run_links(rng, FIG5, 60.0, 25)
    assert np.array_equal(ssd2_detect(y, ch, s2, FIG5).bits, bits)


def test_ssd2_internal_consistency():
    from stimsim.codec import decode_frame

    rng = np.random.default_rng(13)
    _, _, ch, y, s2 = run_links(rng, FIG5, 5.0, 10)
    res = ssd2_detect(y, ch, s2, FIG5)
    assert np.array_equal(decode_frame(res.sap, res.antennas, res.symbols, FIG5), res.bits)


# ---------------------------------------------------------------------------
# 3SSD
# ---------------------------------------------------------------------------


def test_ssd3_noiseless_consistency():
    rng = np.random.default_rng(14)
    bits, _, ch, y, s2 = run_links(rng, FIG5, 60.0, 25)
    assert np.array_equal(ssd3_detect(y, ch, s2, FIG5).bits, bits)


def test_ssd3_single_slot_matched_filter():
    # with k=1 there is no interference: the decision must match the
    # nearest-candidate rule over the n_t |A| per-slot vectors
    rng = np.random.default_rng(15)
    cfg = StimConfig(2, 8, 2, 1, 2, QAM4)
    pts = cfg.alphabet.points
    _, _, ch, y, s2 = run_links(rng, cfg, 6.0, 25)
    res = ssd3_detect(y, ch, s2, cfg)
    for i in range(25):
        slot = int(res.sap[i, 0])
        g = dense_h(ch, i, cfg)[:, slot * 2 : slot * 2 + 2]
        best = None
        for t in range(2):
            for m in range(4):
                w = np.zeros(2, dtype=complex)
                w[t] = pts[m]
                val = np.sum(np.abs(y[i] - g @ w) ** 2)
                if best is None or val < best[0]:
                    best = (val, t, pts[m])
        assert res.antennas[i, 0] == best[1]
        assert res.symbols[i, 0] == best[2]


def test_ssd3_not_worse_than_ssd2():
    rng = np.random.default_rng(16)
    bits, _, ch, y, s2 = run_links(rng, FIG5, 8.0, 800)
    e2 = int((ssd2_detect(y, ch, s2, FIG5).bits != bits).sum())
    e3 = int((ssd3_detect(y, ch, s2, FIG5).bits != bits).sum())
    bits_seen = bits.size
    p2, p3 = e2 / bits_seen, e3 / bits_seen
    margin = 2 * np.sqrt((p2 * (1 - p2) + p3 * (1 - p3)) / bits_seen)
    assert p3 <= p2 + margin


def test_ml_not_worse_than_ssd3():
    rng = np.random.default_rng(17)
    bits, _, ch, y, s2 = run_links(rng, FIG4, 8.0, 1200)
    em = int((ml_detect(y, ch, FIG4).bits != bits).sum())
    e3 = int((ssd3_detect(y, ch, s2, FIG4).bits != bits).sum())
    bits_seen = bits.size
    pm, p3 = em / bits_seen, e3 / bits_seen
    margin = 2 * np.sqrt((pm * (1 - pm) + p3 * (1 - p3)) / bits_seen)
    assert pm <= p3 + margin


# ---------------------------------------------------------------------------
# MMSE receiver and dispatch
# ---------------------------------------------------------------------------


def test_mmse_detect_high_snr():
    rng = np.random.default_rng(18)
    bits, _, ch, y, s2 = run_links(rng, FIG5, 40.0, 50)
    assert np.array_equal(mmse_detect(y, ch, s2, FIG5).bits, bits)


def test_detect_dispatch():
    rng = np.random.default_rng(19)
    bits, _, ch, y, s2 = run_links(rng, FIG4, 30.0)
    for name in ("ml", "mmse", "2ssd", "3ssd"):
        res = detect(name, y, ch, s2, FIG4)
        assert res.bits.shape == bits.shape
    with pytest.raises(ValueError):
        detect("zf", y, ch, s2, FIG4)


def test_detectors_reject_taps_that_do_not_fit_the_config():
    # one tap more than cfg.l_taps: no detector may use some of them silently
    rng = np.random.default_rng(25)
    _, _, ch, y, s2 = run_links(rng, FIG5, 10.0)
    longer = ChannelRealization(np.concatenate([ch.taps, ch.taps[:, :1]], axis=1))
    for name in DETECTORS:
        with pytest.raises(ValueError, match=re.escape("(1, 3, 4, 2)") + ".*" + re.escape("(B, 2, 4, 2)")):
            detect(name, y, longer, s2, FIG5)


def test_detectors_reject_y_that_does_not_fit_the_config():
    rng = np.random.default_rng(26)
    _, _, ch, y, s2 = run_links(rng, FIG5, 10.0)
    for name in DETECTORS:
        with pytest.raises(ValueError, match=re.escape("(1, 31)") + ".*" + re.escape("(B, 32)")):
            detect(name, y[:, :-1], ch, s2, FIG5)


def test_detectors_reject_an_unbatched_frame():
    rng = np.random.default_rng(26)
    _, _, ch, y, s2 = run_links(rng, FIG5, 10.0)
    one = ChannelRealization(ch.taps[0])
    for name in DETECTORS:
        with pytest.raises(ValueError, match=re.escape("taps (B, 2, 4, 2) and y (B, 32)")):
            detect(name, y[0], one, s2, FIG5)


def test_mmse_stage_rejects_input_that_is_not_a_batch():
    rng = np.random.default_rng(34)
    _, _, ch, y, s2 = run_links(rng, FIG5, 10.0, 2)
    shapes = re.escape("y (B, N n_r) and taps (B, L, n_r, n_t)")
    # one frame, one frame with one channel, and N n_r = 30 with n_r = 4
    for bad_y, bad_ch in [(y[0], ch), (y[0], ChannelRealization(ch.taps[0])), (y[:, :30], ch)]:
        with pytest.raises(ValueError, match=shapes):
            mmse_stage(bad_y, bad_ch, s2)
    with pytest.raises(ValueError, match="2 channels for 1 frames"):
        mmse_stage(y[:1], ch, s2)


def test_damping_validation():
    with pytest.raises(ValueError):
        MpParams(damping=0.0)
    with pytest.raises(ValueError):
        MpParams(max_iterations=0)
