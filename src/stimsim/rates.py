"""Closed-form rate expressions and their optimizers.

Two STIM rate forms coexist: the operational form floors the slot-index
term (whole bits are transmitted), while the analytic form keeps
log2 C(N, k) unfloored and is the one the k/N optimizers work with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .alphabet import ConfigError


@dataclass(frozen=True)
class RateParams:
    n_slots: int
    l_taps: int
    n_t: int
    alphabet_size: int

    def __post_init__(self):
        if self.n_t < 1 or self.n_t & (self.n_t - 1):
            raise ConfigError(f"n_t must be a power of two, got {self.n_t}")
        if self.alphabet_size < 2 or self.alphabet_size & (self.alphabet_size - 1):
            raise ConfigError("alphabet size must be a power of two >= 2")
        if self.n_slots < 1 or self.l_taps < 1:
            raise ConfigError("n_slots and l_taps must be >= 1")

    @property
    def m_bits(self) -> int:
        return self.alphabet_size.bit_length() - 1

    @property
    def antenna_bits_per_slot(self) -> int:
        return self.n_t.bit_length() - 1

    @property
    def c_const(self) -> int:
        """2^(A+M); equals n_t * |alphabet| for power-of-two n_t."""
        return 1 << (self.antenna_bits_per_slot + self.m_bits)


@dataclass(frozen=True)
class KBounds:
    k_l: float
    k_u: float
    k_m: float
    k_star: int


def log2_comb(n: int, k: int) -> float:
    # exact big-int binomial; log2 accepts arbitrary-precision ints
    return math.log2(math.comb(n, k))


def stim_rate(params: RateParams, k: int, analytic: bool = False) -> float:
    """STIM rate in bpcu at the given number of used slots.

    The default floors the slot-index term; ``analytic=True`` keeps it
    unfloored (the form the k-optimizer maximizes).
    """
    n, l = params.n_slots, params.l_taps
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= N, got k={k}")
    slot_term = log2_comb(n, k)
    if not analytic:
        slot_term = math.floor(slot_term)
    return (k * params.antenna_bits_per_slot + slot_term + k * params.m_bits) / (n + l - 1)


def ofdm_rate(n_slots: int, l_taps: int, alphabet_size: int) -> float:
    """OFDM rate in bpcu: every subcarrier carries one modulation symbol."""
    return n_slots * math.log2(alphabet_size) / (n_slots + l_taps - 1)


def rate_improvement(params: RateParams, k: int, analytic: bool = False) -> float:
    """Percent rate gain of STIM over OFDM at equal N, L and alphabet."""
    r_stim = stim_rate(params, k, analytic=analytic)
    r_ofdm = ofdm_rate(params.n_slots, params.l_taps, params.alphabet_size)
    return (r_stim - r_ofdm) / r_ofdm * 100.0


def k_bounds(params: RateParams) -> KBounds:
    """Bracket and select the rate-maximizing number of used slots.

    The analytic rate is concave in k and its maximizer lies in
    [k_l, k_u] = [(CN-1)/(1+C), C(N+1)/(1+C)], a unit-width interval.
    k_star is the integer argmax of the analytic rate over that interval,
    ties going to the larger k.
    """
    n = params.n_slots
    c = params.c_const
    k_u = c * (n + 1) / (1 + c)
    k_l = (c * n - 1) / (1 + c)
    k_m = k_u - 0.5
    lo = max(1, math.floor(k_l))
    hi = min(n, math.ceil(k_u))
    best_k, best_r = lo, -math.inf
    for k in range(lo, hi + 1):
        r = stim_rate(params, k, analytic=True)
        if r >= best_r:
            best_k, best_r = k, r
    return KBounds(k_l=k_l, k_u=k_u, k_m=k_m, k_star=best_k)


def optimal_n(params: RateParams) -> int:
    """Slot count maximizing the rate improvement over OFDM: ceil(C * 2^1.4427).

    The optimum solves log2 N = A + M + 1/ln 2, that is N = C 2^(1/ln 2)
    with C = 2^(A+M); 1/ln 2 is taken as the paper's 1.4427.
    """
    return math.ceil(params.c_const * 2.0**1.4427)


def rate_curve(params: RateParams, k_range=None) -> list[tuple[int, float]]:
    """Tabulate the operational STIM rate over k for CSV emission."""
    if k_range is None:
        k_range = range(1, params.n_slots + 1)
    return [(k, stim_rate(params, k)) for k in k_range]


def improvement_curve(params: RateParams, n_range) -> list[tuple[int, float]]:
    """Tabulate percent rate improvement over N with k = N-1."""
    out = []
    for n in n_range:
        p = RateParams(n, params.l_taps, params.n_t, params.alphabet_size)
        out.append((n, rate_improvement(p, n - 1, analytic=True)))
    return out
