"""Property tests over random small configs: the codec bijection, slot
pattern repair and noiseless ML decoding."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stimsim.alphabet import SUPPORTED_KINDS, build_alphabet
from oracles import draw_links
from stimsim.channel import transmit
from stimsim.codec import (
    StimConfig,
    bit_partition,
    decode_frame,
    encode_frame,
    repair_sap,
    sap_to_rank,
    slot_fields,
)
from stimsim.detectors import ml_detect

# the same examples in every run, and no example database
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def configs(draw, max_slots=10, n_ts=(1, 2, 4), kinds=SUPPORTED_KINDS):
    n = draw(st.integers(1, max_slots))
    return StimConfig(
        n_t=draw(st.sampled_from(n_ts)),
        n_r=draw(st.integers(1, 3)),
        n_slots=n,
        k=draw(st.integers(1, n)),
        l_taps=draw(st.integers(1, n)),
        alphabet=build_alphabet(draw(st.sampled_from(kinds)), normalize=draw(st.booleans())),
    )


@PROPERTY
@given(st.data())
def test_decode_inverts_encode(data):
    cfg = data.draw(configs())
    total = bit_partition(cfg).total
    frames = data.draw(st.integers(1, 4))
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=frames * total,
                                       max_size=frames * total)), dtype=np.int8)
    bits = bits.reshape(frames, total)
    assert np.array_equal(decode_frame(*slot_fields(encode_frame(bits, cfg), cfg.k), cfg), bits)


@PROPERTY
@given(st.data())
def test_repair_gives_an_encodable_pattern_and_keeps_it(data):
    cfg = data.draw(configs(max_slots=16))
    n, k = cfg.n_slots, cfg.k
    sap = np.sort(data.draw(st.permutations(range(n)))[:k])
    scores = data.draw(st.none() | st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    limit = 1 << bit_partition(cfg).slot_bits
    fixed, repaired = repair_sap(sap, cfg, scores)
    assert fixed.shape == (k,) and np.all(np.diff(fixed) > 0) and 0 <= fixed[0] and fixed[-1] < n
    assert sap_to_rank(fixed, n) < limit
    assert repaired == (sap_to_rank(sap, n) >= limit)
    again, flag = repair_sap(fixed, cfg, scores)
    assert not flag and np.array_equal(again, fixed)


@PROPERTY
@given(configs(max_slots=4, n_ts=(1, 2), kinds=("bpsk", "qam4", "qam8")), st.integers(0, 2**32 - 1))
def test_noiseless_ml_decodes_without_error(cfg, seed):
    total = bit_partition(cfg).total
    assume(total <= 12)
    bits, taps, normals = draw_links(np.random.default_rng(seed), cfg, 2)
    y = transmit(encode_frame(bits, cfg), taps, 0.0, normals)
    assert np.array_equal(ml_detect(y, taps, cfg).bits, bits)
