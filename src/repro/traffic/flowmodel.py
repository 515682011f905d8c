"""The per-prefix flow rate process.

Each prefix-flow's bandwidth series is the product of five components,
chosen so that the synthetic link reproduces the statistical facts the
paper's results rest on:

``x_i(t) = base_i · diurnal(t)^w_i · session_i(t) · noise_i(t) · burst_i(t)``

- ``base_i`` — heavy-tailed (bounded Pareto) base rate: the elephants
  and mice skew. A small tail index (≈1.1) puts ~80 % of the bytes in
  the top few percent of flows.
- ``diurnal(t)^w_i`` — the link's time-of-day profile, with a per-flow
  sensitivity exponent ``w_i`` (some customers are strongly diurnal,
  others flat).
- ``session_i(t)`` — an on/off process with heavy-tailed mean session
  lengths and diurnal-modulated re-activation, so the active flow count
  swells during working hours.
- ``noise_i(t)`` — mean-one lognormal multiplicative volatility with
  AR(1) temporal correlation: flows near any threshold wander across it
  on the 5-minute timescale, which is precisely what makes the
  single-feature classifier volatile.
- ``burst_i(t)`` — rare short burst episodes (1–3 slots) with
  heavy-tailed magnitude: the low-volume flows "bursting beyond the
  threshold for small periods of time" that the latent-heat feature is
  designed to filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import WorkloadError
from repro.traffic.distributions import BoundedPareto, Pareto
from repro.traffic.diurnal import DiurnalProfile


@dataclass(frozen=True)
class FlowModelConfig:
    """Parameters of the flow-population rate process."""

    num_flows: int = 8000
    #: Base-rate distribution (bits/second).
    rate_alpha: float = 1.12
    rate_min_bps: float = 1.0e3
    rate_max_bps: float = 1.0e7
    #: Lognormal volatility: per-flow sigma drawn uniformly in this range.
    noise_sigma_range: tuple[float, float] = (0.35, 0.70)
    #: AR(1) correlation of the log-noise across consecutive slots.
    noise_rho: float = 0.85
    #: Per-flow diurnal sensitivity exponent range.
    diurnal_exponent_range: tuple[float, float] = (0.4, 1.6)
    #: Session process: mean on-duration distribution (slots) and the
    #: occupancy range (fraction of time active, small → large flows).
    session_mean_slots_alpha: float = 1.4
    session_mean_slots_min: float = 3.0
    session_mean_slots_cap: float = 400.0
    #: Multiplier on mean session length for the largest flows
    #: (quadratic in rank): big aggregates stay up for hours.
    session_rank_boost: float = 9.0
    occupancy_range: tuple[float, float] = (0.30, 0.97)
    #: Per-flow sensitivity of session arrivals/departures to the
    #: diurnal profile: activation speeds up and deactivation slows
    #: down during the busy hours, so the *active population* swells
    #: through the working day as it does on real links.
    session_diurnal_exponent_range: tuple[float, float] = (0.5, 1.5)
    #: Burst episodes: per-slot start probability, magnitude, duration.
    #: The magnitude cap keeps a bursting mouse within the realm of a
    #: big flow rather than letting it swallow the link.
    burst_start_probability: float = 0.004
    burst_magnitude_alpha: float = 1.1
    burst_magnitude_min: float = 5.0
    burst_magnitude_cap: float = 120.0
    burst_max_slots: int = 3

    def validate(self) -> None:
        if self.num_flows <= 0:
            raise WorkloadError("num_flows must be positive")
        if not 0 < self.rate_min_bps < self.rate_max_bps:
            raise WorkloadError("need 0 < rate_min_bps < rate_max_bps")
        low, high = self.noise_sigma_range
        if not 0 <= low <= high:
            raise WorkloadError("bad noise_sigma_range")
        if not 0 <= self.noise_rho < 1:
            raise WorkloadError("noise_rho must be in [0, 1)")
        low, high = self.occupancy_range
        if not 0 < low <= high <= 1:
            raise WorkloadError("occupancy_range must lie in (0, 1]")
        if self.session_rank_boost < 0:
            raise WorkloadError("session_rank_boost must be non-negative")
        sde_low, sde_high = self.session_diurnal_exponent_range
        if not 0 <= sde_low <= sde_high:
            raise WorkloadError("bad session_diurnal_exponent_range")
        if not 0 <= self.burst_start_probability < 0.5:
            raise WorkloadError("burst_start_probability out of range")
        if self.burst_max_slots < 1:
            raise WorkloadError("burst_max_slots must be >= 1")


@dataclass
class FlowPopulation:
    """Sampled static attributes of every flow in the population."""

    base_rates: np.ndarray
    noise_sigmas: np.ndarray
    diurnal_exponents: np.ndarray
    occupancies: np.ndarray
    mean_on_slots: np.ndarray
    session_diurnal_exponents: np.ndarray
    config: FlowModelConfig = field(repr=False)

    @classmethod
    def sample(cls, config: FlowModelConfig,
               rng: np.random.Generator) -> "FlowPopulation":
        """Draw the static per-flow attributes."""
        config.validate()
        n = config.num_flows
        base = BoundedPareto(
            config.rate_alpha, config.rate_min_bps, config.rate_max_bps
        ).sample(rng, n)
        sigma_low, sigma_high = config.noise_sigma_range
        sigmas = rng.uniform(sigma_low, sigma_high, n)
        exp_low, exp_high = config.diurnal_exponent_range
        exponents = rng.uniform(exp_low, exp_high, n)
        # Larger flows are disproportionately long-lived: occupancy and
        # mean session length both grow with the flow's rank in the
        # base-rate order (an aggregate of many users behind a big
        # prefix rarely goes fully silent, and stays up for hours).
        rank_fraction = np.argsort(np.argsort(base)) / max(1, n - 1)
        occ_low, occ_high = config.occupancy_range
        occupancies = occ_low + (occ_high - occ_low) * rank_fraction
        mean_on = Pareto(
            config.session_mean_slots_alpha, config.session_mean_slots_min
        ).sample(rng, n)
        mean_on *= 1.0 + config.session_rank_boost * rank_fraction ** 2
        mean_on = np.minimum(mean_on, config.session_mean_slots_cap)
        sde_low, sde_high = config.session_diurnal_exponent_range
        session_exponents = rng.uniform(sde_low, sde_high, n)
        return cls(base, sigmas, exponents, occupancies, mean_on,
                   session_exponents, config)

    @property
    def num_flows(self) -> int:
        return self.base_rates.size


def generate_rate_matrix_values(population: FlowPopulation,
                                diurnal: DiurnalProfile,
                                seconds_of_day: np.ndarray,
                                rng: np.random.Generator) -> np.ndarray:
    """Simulate the rate process; returns ``(num_flows, num_slots)`` bps.

    ``seconds_of_day`` holds each slot's start offset within the day
    (values may exceed 86400 for multi-day runs; the profile wraps).
    """
    config = population.config
    n = population.num_flows
    num_slots = seconds_of_day.size
    if num_slots == 0:
        raise WorkloadError("need at least one slot")

    profile_values = diurnal.at(seconds_of_day)  # (num_slots,)
    diurnal_factor = profile_values[None, :] ** population.diurnal_exponents[:, None]

    noise = _ar1_lognormal_noise(population.noise_sigmas, config.noise_rho,
                                 num_slots, rng)
    sessions = _session_states(population, profile_values, rng)
    bursts = _burst_factors(config, n, num_slots, rng)

    rates = (population.base_rates[:, None]
             * diurnal_factor * sessions * noise * bursts)
    return rates


def _ar1_lognormal_noise(sigmas: np.ndarray, rho: float, num_slots: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Mean-one lognormal noise with AR(1) log-domain correlation.

    The stationary log-variance is ``sigma**2`` per flow; the mean
    correction ``exp(-sigma**2 / 2)`` keeps E[noise] = 1 so volatility
    does not inflate the link load.
    """
    n = sigmas.size
    log_noise = np.empty((n, num_slots))
    log_noise[:, 0] = rng.normal(0.0, 1.0, n) * sigmas
    innovation_scale = sigmas * np.sqrt(1.0 - rho ** 2)
    for t in range(1, num_slots):
        log_noise[:, t] = (rho * log_noise[:, t - 1]
                           + rng.normal(0.0, 1.0, n) * innovation_scale)
    return np.exp(log_noise - sigmas[:, None] ** 2 / 2.0)


def _session_states(population: FlowPopulation, profile_values: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Simulate the on/off session process as 0/1 states per slot.

    Off→on hazard is scaled by the diurnal profile, so the *number* of
    active flows swells during the busy hours — the effect behind the
    west-coast link's daytime elephant burst in Fig. 1(a).
    """
    n = population.num_flows
    num_slots = profile_values.size
    occupancy = population.occupancies
    off_hazard = 1.0 / np.maximum(population.mean_on_slots, 1.0)
    # Choose the on-hazard so stationary occupancy matches the target:
    # occupancy = on_hazard / (on_hazard + off_hazard).
    on_hazard = off_hazard * occupancy / np.maximum(1e-9, 1.0 - occupancy)
    on_hazard = np.minimum(on_hazard, 1.0)

    exponent = population.session_diurnal_exponents
    states = np.empty((n, num_slots))
    initial_swing = profile_values[0] ** exponent
    initial_occupancy = np.clip(occupancy * initial_swing, 0.02, 1.0)
    states[:, 0] = (rng.random(n) < initial_occupancy).astype(float)
    for t in range(1, num_slots):
        previous = states[:, t - 1] > 0
        swing = profile_values[t] ** exponent
        # Sessions arrive faster and die slower during the busy hours,
        # so stationary occupancy rises roughly with swing squared.
        departure = np.clip(off_hazard / np.maximum(swing, 1e-6), 0.0, 1.0)
        activation = np.minimum(on_hazard * swing, 1.0)
        stay_on = rng.random(n) >= departure
        turn_on = rng.random(n) < activation
        states[:, t] = np.where(previous, stay_on, turn_on).astype(float)
    return states


def _burst_factors(config: FlowModelConfig, n: int, num_slots: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Multiplicative burst factors (1.0 outside burst episodes)."""
    factors = np.ones((n, num_slots))
    if config.burst_start_probability == 0:
        return factors
    magnitude_dist = Pareto(config.burst_magnitude_alpha,
                            config.burst_magnitude_min)
    remaining = np.zeros(n, dtype=int)
    magnitude = np.ones(n)
    for t in range(num_slots):
        idle = remaining == 0
        starts = idle & (rng.random(n) < config.burst_start_probability)
        count = int(starts.sum())
        if count:
            drawn = magnitude_dist.sample(rng, count)
            magnitude[starts] = np.minimum(drawn, config.burst_magnitude_cap)
            remaining[starts] = rng.integers(1, config.burst_max_slots + 1,
                                             count)
        active = remaining > 0
        factors[active, t] = magnitude[active]
        remaining[active] -= 1
    return factors
