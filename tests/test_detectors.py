import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from oracles import (
    convolution_count_messages,
    dense_mmse_stage,
    dense_ssd2_detect,
    dense_ssd3_detect,
    draw_links,
    encode_table,
    exhaustive_ml,
    normalize_log_rows,
    normalize_messages,
    reduce_model,
    tap_normals,
)
from stimsim.alphabet import build_alphabet
from stimsim.channel import build_block_circulant, draw_channel, snr_to_sigma2, transmit
from stimsim import codec, detectors
from stimsim.codec import StimConfig, bit_partition, decode_frame, encode_frame, rank_to_sap, sap_to_rank, slot_fields
from stimsim.detectors import (
    DETECTORS,
    MpParams,
    _candidate_fields,
    _lowest_bits,
    _ml_entries,
    _ml_sphere,
    _ml_tree,
    _normalize_log_rows,
    _pick_slots,
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
QAM8 = build_alphabet("qam8")
QAM16 = build_alphabet("qam16")
BPSK = build_alphabet("bpsk")

FIG5 = StimConfig(2, 4, 8, 7, 2, QAM4)
FIG4 = StimConfig(2, 4, 6, 5, 2, QAM4)


def run_links(rng, cfg, snr_db, frames=1):
    """(bits, slots, taps, y, sigma2) of frames links stacked on a leading
    axis (draw_links); snr_db None is sigma2 = 0."""
    bits, taps, normals = draw_links(rng, cfg, frames)
    slots = encode_frame(bits, cfg)
    sigma2 = snr_to_sigma2(snr_db, cfg.l_taps) if snr_db is not None else 0.0
    return bits, slots, taps, transmit(slots, taps, sigma2, normals), sigma2


def dense_h(taps, i, cfg):
    """Frame i's dense block-circulant H."""
    return build_block_circulant(taps[i], cfg.n_slots)


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


@pytest.mark.parametrize("n", [2, 5, 8, 16, 17])
def test_normalize_log_rows_matches_trailing_rows(n):
    rng = np.random.default_rng(n)
    logw = rng.standard_normal((4, 6, n)) * 30.0
    logw[0, 1] = -np.inf  # no finite weight: uniform
    logw[2, 3, ::2] = -np.inf
    want = normalize_log_rows(logw)
    lead = np.ascontiguousarray(np.moveaxis(logw, -1, 0))
    got = np.moveaxis(_normalize_log_rows(lead), 0, -1)
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    assert np.array_equal(got[0, 1], np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# ML
# ---------------------------------------------------------------------------


def test_ml_noiseless_recovery():
    rng = np.random.default_rng(1)
    bits, _, taps, y, _ = run_links(rng, FIG4, None, 20)
    assert np.array_equal(ml_detect(y, taps, FIG4).bits, bits)


def encodable_saps(cfg):
    """The encodable slot patterns, the first 2^slot_bits in lexicographic order."""
    return rank_to_sap(np.arange(1 << bit_partition(cfg).slot_bits), cfg.n_slots, cfg.k)


def test_ml_candidate_count_fig4():
    # the tree nodes the search scored: the Babai walk, 6 levels of 9
    # choices (8 (antenna, point) pairs and the unused slot), and at least
    # the walk's path again in the search, far fewer than the 2^17
    # candidates at 10 dB; with y = 0 every candidate ties with its
    # negation, and the count still stays within the whole tree's: the
    # walk, and 9 choices for every node from which an encodable pattern
    # can still be reached, a node for each (antenna, point) choice of the
    # used slots among the slots decided so far
    rng = np.random.default_rng(2)
    _, _, taps, y, _ = run_links(rng, FIG4, 10.0)
    n, n_m = FIG4.n_slots, FIG4.n_t * FIG4.alphabet.size
    used = np.zeros((len(encodable_saps(FIG4)), n), dtype=bool)
    used[np.arange(len(used))[:, None], encodable_saps(FIG4)] = True
    nodes = sum(n_m ** sum(prefix) for depth in range(n) for prefix in {tuple(row[:depth]) for row in used})
    floor, tree = 2 * n * (n_m + 1), n * (n_m + 1) + (n_m + 1) * nodes
    assert tree == 54 + 9 * 50825
    searched = ml_detect(y, taps, FIG4).diagnostics["candidates"]
    assert isinstance(searched, int) and floor <= searched <= 2**11
    tied = ml_detect(np.zeros_like(y), taps, FIG4).diagnostics["candidates"]
    assert isinstance(tied, int) and floor <= tied <= tree


def test_ml_shift_keeps_the_leaves_and_cuts_the_low_snr_tree(monkeypatch):
    # at -10 dB every Fig. 4 frame is factored again with the ridge shift:
    # each frame's best leaf has the same metric, within the tolerance, as
    # without the shift, the decisions are the same, and the search scores
    # under a quarter of the nodes
    rng = np.random.default_rng(40)
    _, _, taps, y, _ = run_links(rng, FIG4, -10.0, 8)
    entries, energy = _ml_entries(y, taps), np.sum(np.abs(y) ** 2, axis=1)
    runs = []
    for shift in (detectors._ML_SHIFT, 0.0):
        with monkeypatch.context() as m:
            m.setattr(detectors, "_ML_SHIFT", shift)
            frame, _, metric, _ = _ml_sphere(entries, energy, FIG4)
            res = ml_detect(y, taps, FIG4)
        best = np.full(8, np.inf)
        np.minimum.at(best, frame, metric)
        runs.append((best, res))
    (best, shifted), (plain_best, plain) = runs
    assert np.abs(best - plain_best).max() <= 1e-10 * np.max(energy)
    assert np.array_equal(shifted.bits, plain.bits)
    assert 4 * shifted.diagnostics["candidates"] <= plain.diagnostics["candidates"]


def test_ml_beats_random_candidates():
    rng = np.random.default_rng(3)
    bits, _, taps, y, _ = run_links(rng, FIG4, 6.0)
    res = ml_detect(y, taps, FIG4)
    h = dense_h(taps, 0, FIG4)
    x_ml = np.zeros(FIG4.n_slots * FIG4.n_t, dtype=complex)
    x_ml[res.sap[0] * FIG4.n_t + res.antennas[0]] = res.symbols[0]
    residual = np.sum(np.abs(y[0] - h @ x_ml) ** 2)
    part = bit_partition(FIG4)
    others = np.stack([rng.integers(0, 2, part.total, dtype=np.int8) for _ in range(1000)])
    x = encode_frame(others, FIG4).reshape(1000, -1)
    assert np.all(residual <= np.sum(np.abs(y[0] - x @ h.T) ** 2, axis=1) + 1e-9)


def test_ml_cap_refusal():
    rng = np.random.default_rng(4)
    _, _, taps, y, _ = run_links(rng, FIG5, 10.0)
    with pytest.raises(ValueError, match="2ssd"):
        ml_detect(y, taps, FIG5, cap=2**22)


# Fig. 4 with the normalized and the integer-grid alphabet, and with n_t = 1 BPSK
ML_ORACLE_CONFIGS = [FIG4, StimConfig(2, 4, 6, 5, 2, QAM4_RAW), StimConfig(1, 4, 6, 5, 2, BPSK)]
# and with n_r = 1: n_t = 4 qam8, and the integer-grid qam8
TIE_CONFIGS = ML_ORACLE_CONFIGS + [
    StimConfig(4, 1, 4, 2, 1, QAM8),
    StimConfig(2, 1, 5, 3, 1, build_alphabet("qam8", normalize=False)),
]
TIE_IDS = ["qam4", "qam4_raw", "nt1_bpsk", "nt4_qam8", "qam8_raw"]


def zeroed_links(rng, cfg, snr, frames):
    """run_links, where snr "y = 0" draws noiseless links and zeroes y."""
    zero = snr == "y = 0"
    bits, slots, taps, y, sigma2 = run_links(rng, cfg, None if zero else snr, frames)
    if zero:
        y[:] = 0.0
    return bits, slots, taps, y, sigma2


def placed_links(rng, cfg, snr_db, frames):
    """(x, taps, y) of frames links whose used slots' rows are sent on a
    slot pattern the encoder never sends: the ranks at and above
    2^slot_bits in turn or, where every k-subset is encodable, the pattern
    without the last used slot. snr_db None is sigma2 = 0."""
    bits, taps, normals = draw_links(rng, cfg, frames)
    slots = encode_frame(bits, cfg)
    sap, limit, total = slot_fields(slots, cfg.k)[0], 1 << bit_partition(cfg).slot_bits, math.comb(cfg.n_slots, cfg.k)
    rows, at = np.take_along_axis(slots, sap[..., None], axis=1), np.arange(frames)[:, None]
    x = np.zeros_like(slots)
    if limit < total:
        x[at, rank_to_sap(limit + np.arange(frames) % (total - limit), cfg.n_slots, cfg.k)] = rows
    else:
        x[at, sap[:, :-1]] = rows[:, :-1]
    sigma2 = snr_to_sigma2(snr_db, cfg.l_taps) if snr_db is not None else 0.0
    return x, taps, transmit(x, taps, sigma2, normals)


@pytest.mark.parametrize("cfg", TIE_CONFIGS, ids=TIE_IDS)
def test_ml_matches_exhaustive_oracle(cfg):
    # every frame, near ties included (at y = 0 every candidate ties with
    # its negation): both take the lowest bits among the candidates within
    # the same tolerance of their minimum
    rng = np.random.default_rng(30)
    table = encode_table(cfg)
    for snr in (None, -10.0, 3.0, 9.0, 12.0, "y = 0"):
        _, _, taps, y, _ = zeroed_links(rng, cfg, snr, 6)
        res = ml_detect(y, taps, cfg)
        for i in range(6):
            assert np.array_equal(res.bits[i], exhaustive_ml(y[i], taps[i], cfg, table)[0]), (snr, i)


@pytest.mark.parametrize("cfg", TIE_CONFIGS, ids=TIE_IDS)
def test_ml_ties_go_to_the_lowest_bits(cfg):
    # chunks of random tie sets, in any order: per frame, distinct slot
    # patterns, each with a few distinct candidates given by their digits
    rng = np.random.default_rng(31)
    saps = encodable_saps(cfg)
    bits, table = encode_table(cfg)
    value_of = {row.tobytes(): v for v, row in enumerate(table)}
    q, n_m = cfg.alphabet.size, cfg.n_t * cfg.alphabet.size

    def value(rank, digits):
        """The oracle's bit value of a candidate, found by its transmit
        slots: choice t |A| + s of a used slot sends point s from antenna t."""
        x = np.zeros((cfg.n_slots, cfg.n_t), dtype=complex)
        x[saps[rank], digits // q] = cfg.alphabet.points[digits % q]
        return value_of[x.tobytes()]

    def frame_ties():
        ranks = rng.choice(len(saps), rng.integers(1, len(saps) + 1), replace=False)
        flats = [rng.choice(n_m**cfg.k, rng.integers(1, 6), replace=False) for _ in ranks]
        return [(int(r), f // n_m ** np.arange(cfg.k - 1, -1, -1) % n_m) for r, fs in zip(ranks, flats) for f in fs]

    def slot_digits(rank, digits):
        """The candidate's choice at every slot, n_m at the unused ones."""
        row = np.full(cfg.n_slots, n_m)
        row[saps[rank]] = digits
        return row

    for _ in range(60):
        frames = [frame_ties() for _ in range(rng.integers(1, 8))]
        leaves = [(i, slot_digits(r, d)) for i, ties in enumerate(frames) for r, d in ties]
        frame, digits = (np.array(column) for column in zip(*(leaves[o] for o in rng.permutation(len(leaves)))))
        got = _lowest_bits(frame, digits, cfg)
        assert all(len(field) == len(frames) for field in got)
        for i, ties in enumerate(frames):
            want = min(value(r, d) for r, d in ties)
            assert np.array_equal(got[0][i], bits[want]), i
            x = np.zeros((cfg.n_slots, cfg.n_t), dtype=complex)
            x[got[1][i], got[2][i]] = got[3][i]
            assert value_of[x.tobytes()] == want, i


# Fig. 4, k = N (every slot used), k = 1 with 2 of 6 patterns unencodable,
# n_t = 1 BPSK and n_r = 1 with n_t = 4 qam8
PLACED_CONFIGS = [FIG4, StimConfig(2, 2, 3, 3, 2, QAM4), StimConfig(2, 2, 6, 1, 2, QAM4),
                  StimConfig(1, 4, 6, 5, 2, BPSK), StimConfig(4, 1, 4, 2, 1, QAM8)]


@pytest.mark.parametrize("cfg", PLACED_CONFIGS, ids=["qam4", "k_eq_n", "k1", "nt1_bpsk", "nt4_qam8"])
def test_ml_never_decides_an_unencodable_pattern(cfg):
    # frames sent on a pattern the encoder never sends, noiseless or not:
    # the nearest candidate is then often one ML may not return, and ML
    # decides the exhaustive oracle's frame, k used slots of an encodable rank
    rng = np.random.default_rng(38)
    table, limit = encode_table(cfg), 1 << bit_partition(cfg).slot_bits
    for snr in (None, 12.0):
        x, taps, y = placed_links(rng, cfg, snr, 8)
        used = (x != 0).any(axis=-1)
        assert all(u.sum() != cfg.k or sap_to_rank(np.flatnonzero(u), cfg.n_slots) >= limit for u in used)
        res = ml_detect(y, taps, cfg)
        assert res.sap.shape == (8, cfg.k) and (np.diff(res.sap, axis=1) > 0).all()
        assert (sap_to_rank(res.sap, cfg.n_slots) < limit).all()
        for i in range(8):
            assert np.array_equal(res.bits[i], exhaustive_ml(y[i], taps[i], cfg, table)[0]), (snr, i)


# the oracle configs, plus k = 1 (half B is empty, so the product has only
# the two term columns), k = N and n_t = 4 qam8
METRIC_CONFIGS = ML_ORACLE_CONFIGS + [
    StimConfig(2, 2, 4, 1, 2, QAM4),
    StimConfig(2, 2, 3, 3, 2, QAM4),
    StimConfig(4, 1, 4, 2, 1, build_alphabet("qam8")),
]


@pytest.mark.parametrize("cfg", METRIC_CONFIGS,
                         ids=["qam4", "qam4_raw", "nt1_bpsk", "k1", "k_eq_n", "nt4_qam8"])
def test_rank_metric_matches_dense_oracle(cfg, monkeypatch):
    # with a tolerance wider than any frame's spread of metrics, every
    # encodable candidate of every frame is a leaf of the search, once,
    # and each leaf's metric lies within the search's own tolerance of the
    # dense ||y - H x||^2 - ||y||^2 of the frame its digits decode to
    rng = np.random.default_rng(32)
    table = encode_table(cfg)
    places = 1 << np.arange(bit_partition(cfg).total - 1, -1, -1)
    x_max = cfg.k * np.max(np.abs(cfg.alphabet.points) ** 2)
    for snr in (None, 3.0, 12.0):
        _, _, taps, y, _ = run_links(rng, cfg, snr, 3)
        with monkeypatch.context() as m:
            m.setattr(detectors, "_ML_TOL", 2.0)
            frame, digits, metric, _ = _ml_sphere(_ml_entries(y, taps), np.sum(np.abs(y) ** 2, axis=1), cfg)
        value = decode_frame(*_candidate_fields(digits, cfg), cfg) @ places
        for i in range(3):
            trace = np.sum(np.abs(dense_h(taps, i, cfg)) ** 2)  # tr(H^H H)
            tol = (detectors._ML_TOL * (np.sqrt(trace * x_max) + np.linalg.norm(y[i])) ** 2
                   + detectors._ML_RIDGE * trace / (cfg.n_slots * cfg.n_t) * x_max)
            mine = frame == i
            order = np.argsort(value[mine])
            assert np.array_equal(value[mine][order], np.arange(len(table[0]))), (snr, i)
            want = exhaustive_ml(y[i], taps[i], cfg, table)[1] - np.sum(np.abs(y[i]) ** 2)
            assert np.abs(metric[mine][order] - want).max() <= tol, (snr, i)


@pytest.mark.parametrize("cfg", [StimConfig(2, 2, 6, 2, 2, QAM4), StimConfig(4, 1, 4, 2, 1, QAM8),
                                 StimConfig(2, 2, 6, 1, 2, QAM4)], ids=["n6k2", "nt4_qam8", "k1"])
def test_ml_leaf_metrics_do_not_depend_on_the_pieces(cfg, monkeypatch):
    # every candidate a leaf (tolerance 2), and the same leaves with
    # bitwise the same metrics: in one pass, and in pieces of 8 nodes led
    # by no node, by 2 or by all the nodes of each wide frame
    rng = np.random.default_rng(39)
    _, _, taps, y, _ = run_links(rng, cfg, 3.0, 4)
    entries, energy = _ml_entries(y, taps), np.sum(np.abs(y) ** 2, axis=1)
    runs = []
    for first, split, frontier in ((2**30, 2**30, 2**13), (0, 1, 8), (2, 1, 8), (2**30, 1, 8)):
        with monkeypatch.context() as m:
            for name, value in (("_ML_TOL", 2.0), ("_ML_FIRST", first), ("_ML_SPLIT", split),
                                ("_ML_FRONTIER", frontier)):
                m.setattr(detectors, name, value)
            frame, digits, metric, _ = _ml_sphere(entries, energy, cfg)
        order = np.lexsort((*digits.T[::-1], frame))
        runs.append((frame[order], digits[order], metric[order]))
    for run in runs[1:]:
        assert all(np.array_equal(got, want) for got, want in zip(run, runs[0]))


# (n_t, n_r, N, k, L): N = L, N = L = 1, n_t = 1, n_r = 1, L = N - 1, and Fig. 4
ENTRY_SHAPES = [(2, 2, 3, 2, 3), (2, 3, 1, 1, 1), (1, 4, 6, 5, 2), (4, 1, 5, 3, 2),
                (2, 2, 5, 4, 4), (2, 4, 6, 5, 2)]


@pytest.mark.parametrize("frames", [1, 4])
@pytest.mark.parametrize("shape", ENTRY_SHAPES, ids=["n_eq_l", "n_eq_l_eq_1", "nt1", "nr1", "l_eq_n_minus_1", "fig4"])
def test_ml_entries_match_dense_gram_and_matched_filter(shape, frames):
    # G = H^H H and c = H^H y from the taps, against the dense products
    rng = np.random.default_rng(34)
    cfg = StimConfig(*shape, QAM4)
    n, n_t = cfg.n_slots, cfg.n_t
    _, _, taps, y, _ = run_links(rng, cfg, 6.0, frames)
    rows = _ml_entries(y, taps).view(complex)
    g = rows[:, : n * n_t * n_t].reshape(frames, n, n_t, n_t)
    c = rows[:, n * n_t * n_t :]
    lag = (np.arange(n)[:, None] - np.arange(n)) % n  # block (s, s') of G is g[(s - s') mod N]
    gram = g[:, lag].transpose(0, 1, 3, 2, 4).reshape(frames, n * n_t, n * n_t)
    for i in range(frames):
        h = dense_h(taps, i, cfg)
        want_g, want_c = h.conj().T @ h, h.conj().T @ y[i]
        assert np.abs(gram[i] - want_g).max() <= 1e-13 * np.abs(want_g).max(), i
        assert np.abs(c[i] - want_c).max() <= 1e-13 * np.abs(want_c).max(), i


@pytest.mark.parametrize("cfg", [FIG4, FIG5, StimConfig(2, 2, 5, 2, 2, QAM4), StimConfig(2, 2, 6, 1, 2, QAM4),
                                 StimConfig(2, 2, 3, 3, 2, QAM4), StimConfig(2, 2, 7, 3, 2, QAM4)],
                         ids=["fig4", "fig5", "n5k2", "k1", "k_eq_n", "n7k3"])
def test_ml_tree_admits_the_encodable_patterns(cfg):
    # the tree decides slot 0 first; a run of used and unused slots ends
    # in a leaf exactly if it is one of the first 2^slot_bits k-subsets in
    # lexicographic order, the patterns encode_frame sends, and a branch
    # is cut only where no such pattern lies below
    n, child = cfg.n_slots, _ml_tree(cfg)[1]
    encodable = {tuple(s) for s in itertools.islice(itertools.combinations(range(n), cfg.k),
                                                    1 << bit_partition(cfg).slot_bits)}
    admitted = set()
    for used in itertools.product((True, False), repeat=n):
        state = cfg.k + 1
        for slot, on in enumerate(used):
            state = child[n - 1 - slot, state, 0 if on else -1]
            below = {s for s in encodable if all((x in s) == u for x, u in enumerate(used[: slot + 1]))}
            assert (state >= 0) == bool(below), (used, slot)
            if state < 0:
                break
        else:
            admitted.add(tuple(np.flatnonzero(used)))
    assert admitted == encodable


def test_ml_tables_are_read_only():
    for table in _ml_tree(FIG4)[:5]:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def test_ml_call_allocates_little():
    # one Fig. 4 chunk as the harness sends it: the chunk's G and c entries,
    # the factors of its (frame, pattern) blocks and the search's frontier
    # stay under 1 MiB
    rng = np.random.default_rng(35)
    _, _, taps, y, _ = run_links(rng, FIG4, 6.0, 42)
    ml_detect(y, taps, FIG4)  # the cached tables are built once
    tracemalloc.start()
    try:
        ml_detect(y, taps, FIG4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, f"{peak / 2**20:.2f} MiB"


def test_ml_low_snr_call_allocates_little():
    # Fig. 4 chunks whose searches visit much of the tree: the frontier is
    # descended in pieces and only the leaves near each frame's best are
    # kept, so a call stays under 10 MiB
    rng = np.random.default_rng(36)
    for snr in (-20.0, "y = 0"):
        _, _, taps, y, _ = zeroed_links(rng, FIG4, snr, 42)
        ml_detect(y, taps, FIG4)
        tracemalloc.start()
        try:
            ml_detect(y, taps, FIG4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20, f"{snr}: {peak / 2**20:.2f} MiB"


# (config, frames): Fig. 4, Fig. 5 and n_t = 4 qam8 with n_r = 1
PIECE_CASES = [(FIG4, 12), (FIG5, 3), (StimConfig(4, 1, 4, 2, 1, QAM8), 12)]


@pytest.mark.parametrize("cfg,frames", PIECE_CASES, ids=["fig4", "fig5", "nt4_qam8"])
def test_ml_decisions_do_not_depend_on_the_pieces(cfg, frames, monkeypatch):
    # pieces of 8 nodes split every level the search keeps more than 8
    # nodes of; Fig. 5 at -20 dB and y = 0 keeps millions, so its pieces
    # there are 256 nodes. Taken lowest partial distance first, a frame's
    # best leaf mostly comes early; taken in reverse, it often comes in a
    # later piece than leaves that are near a worse best
    rng = np.random.default_rng(37)
    argsort = np.argsort
    for snr in (-20.0, -10.0, 0.0, 9.0, None, "y = 0"):
        _, _, taps, y, _ = zeroed_links(rng, cfg, snr, frames)
        want = ml_detect(y, taps, cfg, cap=2**24).bits
        for reverse in (False, True):
            with monkeypatch.context() as m:
                m.setattr(detectors, "_ML_FRONTIER", 256 if cfg is FIG5 and snr in (-20.0, "y = 0") else 8)
                if reverse:  # the split's sort is the one argsort an ML call makes
                    m.setattr(np, "argsort", lambda key: argsort(key)[::-1])
                got = ml_detect(y, taps, cfg, cap=2**24).bits
            assert np.array_equal(got, want), (snr, reverse, np.flatnonzero((got != want).any(axis=1)))


def test_interleaved_ml_calls_match_separate_calls():
    # each call has its own workspace: alternating frames of two configs
    # gives each frame the bits of its own config's batch call
    rng = np.random.default_rng(33)
    cfgs = ML_ORACLE_CONFIGS[::2]
    links = [run_links(rng, cfg, 6.0, 5)[2:4] for cfg in cfgs]
    separate = [ml_detect(y, taps, cfg).bits for cfg, (taps, y) in zip(cfgs, links)]
    for i in range(5):
        for cfg, (taps, y), want in zip(cfgs, links, separate):
            got = ml_detect(y[i : i + 1], taps[i : i + 1], cfg).bits
            assert np.array_equal(got[0], want[i])


def test_per_slot_candidate_vectors_nt2_bpsk():
    # the n_t |A| one-active-antenna vectors for n_t=2, BPSK, unnormalized,
    # as choices 0..3 of the one used slot, slot 0, with slot 1 unused
    # (choice 4): (1,0), (-1,0), (0,1), (0,-1)
    cfg = StimConfig(2, 1, 2, 1, 1, build_alphabet("bpsk", normalize=False))
    _, antennas, symbols = _candidate_fields(np.stack([np.arange(4), np.full(4, 4)], axis=1), cfg)
    vectors = np.zeros((4, cfg.n_t), dtype=complex)
    vectors[np.arange(4), antennas[:, 0]] = symbols[:, 0]
    assert np.array_equal(vectors, np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=complex))


# ---------------------------------------------------------------------------
# MMSE stage
# ---------------------------------------------------------------------------


def test_mmse_zero_forcing_limit():
    # mmse_stage takes H to be block-circulant: with sigma2 = 0 it inverts it
    rng = np.random.default_rng(5)
    cfg = StimConfig(2, 2, 6, 5, 3, QAM4)
    taps = draw_channel(tap_normals(rng, cfg))
    h = build_block_circulant(taps, cfg.n_slots)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    x_hat, _ = mmse_stage((h @ x)[None], taps[None], 0.0)
    assert np.abs(x_hat[0] - x).max() < 1e-5


def test_mmse_single_antenna_indices():
    rng = np.random.default_rng(6)
    cfg = StimConfig(1, 2, 4, 3, 2, QAM4)
    _, _, taps, y, s2 = run_links(rng, cfg, 10.0)
    _, idx = mmse_stage(y, taps, s2)
    assert np.array_equal(idx, np.zeros((1, 4), dtype=int))


def test_mmse_antenna_accuracy_high_snr():
    rng = np.random.default_rng(7)
    _, slots, taps, y, s2 = run_links(rng, FIG5, 30.0, 200)
    _, idx = mmse_stage(y, taps, s2)
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
        _, _, taps, y, s2 = run_links(rng, cfg, snr)
        x_hat, idx = mmse_stage(y, taps, s2)
        x_ref, idx_ref = dense_mmse_stage(y[0], dense_h(taps, 0, cfg), s2, cfg.n_t)
        assert np.abs(x_hat[0] - x_ref).max() < 1e-9
        assert np.array_equal(idx[0], idx_ref)


# (shape, alphabet, SNR points; None is sigma^2 = 0): the configs above,
# then the edge configs of the message passing
MP_ORACLE_CASES = [pytest.param(shape, QAM4, (4.0, 8.0, 60.0), id=f"shape{i}")
                   for i, shape in enumerate(ORACLE_CONFIGS)] + [
    # k = N: the count pmf has width d = 0
    pytest.param((2, 4, 8, 8, 2), QAM4, (4.0, 60.0), id="k_eq_n"),
    # L = N: every slot meets every observation, no edge is off the band
    pytest.param((2, 2, 4, 3, 4), QAM4, (4.0, 60.0), id="l_eq_n"),
    # n_t = 1 with qam16: 16 candidates per slot, with 2 rx antennas and with 1
    pytest.param((1, 2, 8, 6, 2), QAM16, (8.0, 60.0), id="nt1_qam16"),
    pytest.param((1, 1, 8, 6, 2), QAM16, (8.0, 60.0), id="nt1_nr1_qam16"),
    # qam8: 16 candidates and 9 composite values in 2SSD
    pytest.param((2, 2, 8, 6, 2), QAM8, (8.0, 60.0), id="qam8"),
    # nine rx antennas with four taps, and one rx antenna with four taps
    pytest.param((2, 9, 8, 7, 4), QAM4, (4.0, 60.0), id="nr9_l4"),
    pytest.param((1, 1, 16, 12, 4), QAM8, (8.0, 60.0), id="nr1_l4_qam8"),
    pytest.param((2, 4, 8, 7, 2), QAM4, (None,), id="sigma2_zero"),
]


@pytest.mark.parametrize("shape,alphabet,snrs", MP_ORACLE_CASES)
def test_banded_mp_matches_dense(shape, alphabet, snrs):
    rng = np.random.default_rng(21)
    cfg = StimConfig(*shape, alphabet)
    for snr in snrs:
        _, _, taps, y, s2 = run_links(rng, cfg, snr, 2)
        res2, res3 = ssd2_detect(y, taps, s2, cfg), ssd3_detect(y, taps, s2, cfg)
        for i in range(2):
            h = dense_h(taps, i, cfg)
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
    _, _, taps, y, s2 = run_links(rng, cfg, snr, 25)
    res = ssd3_detect(y, taps, s2, cfg, mp)
    for i in range(25):
        ref = dense_ssd3_detect(y[i], dense_h(taps, i, cfg), s2, cfg, mp)
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
    # one rx antenna, four taps: each tap sum adds four complex terms
    ("2ssd", (2, 1, 8, 6, 4), MpParams(max_iterations=40, damping=0.9), 20.0),
    # N - k = 3: wide levels below the first, whose nodes may be cut
    ("ml", (2, 2, 5, 2, 2), MpParams(), 0.0),
]


@pytest.mark.parametrize("name,shape,mp,snr", MIXED_BATCHES)
def test_batch_matches_single_frames(name, shape, mp, snr):
    rng = np.random.default_rng(27)
    cfg = StimConfig(*shape, QAM4)
    _, _, taps, y, s2 = run_links(rng, cfg, snr, 12)
    batch = detect(name, y, taps, s2, cfg, mp)
    singles = [detect(name, y[i : i + 1], taps[i : i + 1], s2, cfg, mp) for i in range(12)]
    for i, one in enumerate(singles):
        bits, sap, antennas, symbols, diag = frame_of(batch, i)
        for got, want in ((bits, one.bits), (sap, one.sap), (antennas, one.antennas),
                          (symbols, one.symbols)):
            assert np.array_equal(got, want)
        assert diag.keys() == one.diagnostics.keys()
        for key, want in one.diagnostics.items():
            if key not in ("iterations_run", "candidates"):  # counts of the whole call
                assert np.array_equal(diag[key], want), key
    if name == "ml":  # the mean of the frames' own counts, rounded
        counts = [one.diagnostics["candidates"] for one in singles]
        assert batch.diagnostics["candidates"] == (sum(counts) + 6) // 12
    if name in ("2ssd", "3ssd"):
        counts = [int(one.diagnostics["frame_iterations"][0]) for one in singles]
        assert 0 < counts.count(mp.max_iterations) < len(counts), counts  # a mixed batch
        assert batch.diagnostics["iterations_run"] == max(counts)
        assert all(one.diagnostics["iterations_run"] == c for one, c in zip(singles, counts))
    if name == "mmse":
        x_hat, idx = mmse_stage(y, taps, s2)
        for i in range(12):
            x_one, idx_one = mmse_stage(y[i : i + 1], taps[i : i + 1], s2)
            assert np.array_equal(x_hat[i : i + 1], x_one) and np.array_equal(idx[i : i + 1], idx_one)


def test_chunk_repair_matches_per_frame_repair_sap(monkeypatch):
    # N = 6, k = 5: patterns of rank 4 and 5 are not encodable; the used
    # slots of saps score above the others
    saps = np.array([[1, 2, 3, 4, 5], [0, 1, 2, 3, 4], [0, 2, 3, 4, 5], [0, 1, 2, 4, 5]] * 3)
    rng = np.random.default_rng(29)
    scores = rng.random((12, 6))
    scores[np.arange(12)[:, None], saps] += 1.0
    ant_idx = rng.integers(0, 2, (12, 6))
    calls = []

    def counted(sap, cfg, slot_scores=None):
        calls.append(sap)
        return codec.repair_sap(sap, cfg, slot_scores)

    monkeypatch.setattr(detectors, "repair_sap", counted)
    fixed, antennas, flags = _pick_slots(scores, ant_idx, FIG4)
    assert len(calls) == 6  # only the out-of-range patterns
    for i in range(12):
        want, flag = codec.repair_sap(saps[i], FIG4, scores[i])
        assert np.array_equal(fixed[i], want)
        assert np.array_equal(antennas[i], ant_idx[i, want])
        assert flags[i] == flag == (i % 2 == 0)


def test_batch_rejects_channels_that_do_not_match_its_frames():
    rng = np.random.default_rng(28)
    _, _, taps, y, s2 = run_links(rng, FIG5, 10.0)
    with pytest.raises(ValueError, match="2 channels for 3 frames"):
        detect("mmse", np.repeat(y, 3, axis=0), np.repeat(taps, 2, axis=0), s2, FIG5)


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
@pytest.mark.parametrize("name", ["mmse", "2ssd", "3ssd"])
def test_noiseless_paper_scale(name, n_slots, k):
    rng = np.random.default_rng(24)
    cfg = StimConfig(2, 4, n_slots, k, 4, QAM4)
    s2 = snr_to_sigma2(60.0, cfg.l_taps)
    bits, _, taps, y, _ = run_links(rng, cfg, 60.0, 3)
    assert np.array_equal(detect(name, y, taps, s2, cfg).bits, bits)


@pytest.mark.parametrize("shape,frames", [((2, 4, 128, 114, 4), 1), ((2, 4, 8, 7, 2), 32)],
                         ids=["n128", "fig5_chunk"])
def test_ssd3_call_allocates_little(shape, frames):
    # the per-call workspace stays well inside the 5 % peak-RSS bound (~2 MB)
    rng = np.random.default_rng(30)
    cfg = StimConfig(*shape, QAM4)
    _, _, taps, y, s2 = run_links(rng, cfg, 8.0, frames)
    ssd3_detect(y, taps, s2, cfg)  # the cached tables are built once
    tracemalloc.start()
    try:
        ssd3_detect(y, taps, s2, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2**20, f"{peak / 2**20:.2f} MiB"


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
    _, _, taps, y, s2 = run_links(rng, cfg, 9.0, 5)
    res = ssd2_detect(y, taps, s2, cfg, MpParams(max_iterations=3, damping=damp))
    for i in range(5):
        q_ref = reference_ssd2_posteriors(y[i], dense_h(taps, i, cfg), s2, cfg, 3, damp)
        assert np.abs(res.diagnostics["slot_posteriors"][i] - q_ref).max() < 1e-9


def test_ssd2_posteriors_are_pmfs():
    rng = np.random.default_rng(11)
    _, _, taps, y, s2 = run_links(rng, FIG5, 6.0, 10)
    q = ssd2_detect(y, taps, s2, FIG5).diagnostics["slot_posteriors"]
    assert np.all(q >= 0)
    assert np.abs(q.sum(axis=-1) - 1.0).max() < 1e-9


def test_ssd2_noiseless_consistency():
    rng = np.random.default_rng(12)
    bits, _, taps, y, s2 = run_links(rng, FIG5, 60.0, 25)
    assert np.array_equal(ssd2_detect(y, taps, s2, FIG5).bits, bits)


def test_ssd2_internal_consistency():
    from stimsim.codec import decode_frame

    rng = np.random.default_rng(13)
    _, _, taps, y, s2 = run_links(rng, FIG5, 5.0, 10)
    res = ssd2_detect(y, taps, s2, FIG5)
    assert np.array_equal(decode_frame(res.sap, res.antennas, res.symbols, FIG5), res.bits)


# ---------------------------------------------------------------------------
# 3SSD
# ---------------------------------------------------------------------------


def test_ssd3_noiseless_consistency():
    rng = np.random.default_rng(14)
    bits, _, taps, y, s2 = run_links(rng, FIG5, 60.0, 25)
    assert np.array_equal(ssd3_detect(y, taps, s2, FIG5).bits, bits)


def test_ssd3_single_slot_matched_filter():
    # with k=1 there is no interference: the decision must match the
    # nearest-candidate rule over the n_t |A| per-slot vectors
    rng = np.random.default_rng(15)
    cfg = StimConfig(2, 8, 2, 1, 2, QAM4)
    pts = cfg.alphabet.points
    _, _, taps, y, s2 = run_links(rng, cfg, 6.0, 25)
    res = ssd3_detect(y, taps, s2, cfg)
    for i in range(25):
        slot = int(res.sap[i, 0])
        g = dense_h(taps, i, cfg)[:, slot * 2 : slot * 2 + 2]
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
    bits, _, taps, y, s2 = run_links(rng, FIG5, 8.0, 800)
    e2 = int((ssd2_detect(y, taps, s2, FIG5).bits != bits).sum())
    e3 = int((ssd3_detect(y, taps, s2, FIG5).bits != bits).sum())
    bits_seen = bits.size
    p2, p3 = e2 / bits_seen, e3 / bits_seen
    margin = 2 * np.sqrt((p2 * (1 - p2) + p3 * (1 - p3)) / bits_seen)
    assert p3 <= p2 + margin


def test_ml_not_worse_than_ssd3():
    rng = np.random.default_rng(17)
    bits, _, taps, y, s2 = run_links(rng, FIG4, 8.0, 1200)
    em = int((ml_detect(y, taps, FIG4).bits != bits).sum())
    e3 = int((ssd3_detect(y, taps, s2, FIG4).bits != bits).sum())
    bits_seen = bits.size
    pm, p3 = em / bits_seen, e3 / bits_seen
    margin = 2 * np.sqrt((pm * (1 - pm) + p3 * (1 - p3)) / bits_seen)
    assert pm <= p3 + margin


# ---------------------------------------------------------------------------
# MMSE receiver and dispatch
# ---------------------------------------------------------------------------


def test_mmse_detect_high_snr():
    rng = np.random.default_rng(18)
    bits, _, taps, y, s2 = run_links(rng, FIG5, 40.0, 50)
    assert np.array_equal(mmse_detect(y, taps, s2, FIG5).bits, bits)


def test_detect_dispatch():
    rng = np.random.default_rng(19)
    bits, _, taps, y, s2 = run_links(rng, FIG4, 30.0)
    for name in ("ml", "mmse", "2ssd", "3ssd"):
        res = detect(name, y, taps, s2, FIG4)
        assert res.bits.shape == bits.shape
    with pytest.raises(ValueError):
        detect("zf", y, taps, s2, FIG4)


def test_detectors_reject_taps_that_do_not_fit_the_config():
    # one tap more than cfg.l_taps: no detector may use some of them silently
    rng = np.random.default_rng(25)
    _, _, taps, y, s2 = run_links(rng, FIG5, 10.0)
    longer = np.concatenate([taps, taps[:, :1]], axis=1)
    for name in DETECTORS:
        with pytest.raises(ValueError, match=re.escape("(1, 3, 4, 2)") + ".*" + re.escape("(B, 2, 4, 2)")):
            detect(name, y, longer, s2, FIG5)


def test_detectors_reject_y_that_does_not_fit_the_config():
    rng = np.random.default_rng(26)
    _, _, taps, y, s2 = run_links(rng, FIG5, 10.0)
    for name in DETECTORS:
        with pytest.raises(ValueError, match=re.escape("(1, 31)") + ".*" + re.escape("(B, 32)")):
            detect(name, y[:, :-1], taps, s2, FIG5)


def test_detectors_reject_an_unbatched_frame():
    rng = np.random.default_rng(26)
    _, _, taps, y, s2 = run_links(rng, FIG5, 10.0)
    for name in DETECTORS:
        with pytest.raises(ValueError, match=re.escape("taps (B, 2, 4, 2) and y (B, 32)")):
            detect(name, y[0], taps[0], s2, FIG5)


def test_mmse_stage_rejects_input_that_is_not_a_batch():
    rng = np.random.default_rng(34)
    _, _, taps, y, s2 = run_links(rng, FIG5, 10.0, 2)
    shapes = re.escape("y (B, N n_r) and taps (B, L, n_r, n_t)")
    # one frame, one frame with one channel, and N n_r = 30 with n_r = 4
    for bad_y, bad_taps in [(y[0], taps), (y[0], taps[0]), (y[:, :30], taps)]:
        with pytest.raises(ValueError, match=shapes):
            mmse_stage(bad_y, bad_taps, s2)
    with pytest.raises(ValueError, match="2 channels for 1 frames"):
        mmse_stage(y[:1], taps, s2)


def test_damping_validation():
    with pytest.raises(ValueError):
        MpParams(damping=0.0)
    with pytest.raises(ValueError):
        MpParams(max_iterations=0)
