"""Link-level simulator for space-time index modulation in cyclic-prefixed
single-carrier systems over frequency-selective Rayleigh fading."""

__version__ = "0.1.0"

from .alphabet import Alphabet, build_alphabet
from .channel import draw_channel, snr_to_sigma2, transmit
from .codec import (
    BitPartition,
    StimConfig,
    bit_partition,
    decode_frame,
    encode_frame,
    rank_to_sap,
    sap_to_rank,
)
from .detectors import (
    DetectionResult,
    MpParams,
    detect,
    ml_detect,
    mmse_detect,
    mmse_stage,
    ssd2_detect,
    ssd3_detect,
)
from .harness import BerRecord, SweepSpec, run_ber_point, run_sweep
from .ofdm import OfdmConfig, ofdm_detect, ofdm_modulate, ofdm_transmit
from .rates import (
    KBounds,
    RateParams,
    k_bounds,
    ofdm_rate,
    optimal_n,
    rate_improvement,
    stim_rate,
)
