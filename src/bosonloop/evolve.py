"""Evolution engines for the interferometer with optical feedback.

Three mutually verifying routes compute the photon state in the detectable
modes at iteration k:

* `unfold`        -- exact spatiotemporal unrolling (ground truth, lossless);
* `evolve_pdm`    -- partial-density-matrix iteration on the looped modes;
* `evolve_kraus`  -- quantum-channel iteration with Kraus operators.

Mode convention: the first M-L modes are external (injected and detected
each iteration), the trailing L modes are looped.  The loop state is tracked
at the feedback line, i.e. before the per-iteration input losses.

One iteration is: input losses on all modes (the looped columns also carry
the feedback-line transmission), the lifted interferometer, output losses;
the external part of the result is detected while the looped part becomes
the next line state.  Detection at iteration k therefore shares its joint
pass with the k-th loop update.
"""

import operator
import warnings
from copy import copy
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice, pairwise

import numpy as np

from .channels import (QuantumChannel, StationaryResult, compose, fixed_point,
                       loop_channel, stationary_state)
from .channels import loss_channel as _loss_channel
from .errors import (ConfigError, ConvergenceError, DegenerateFixedPointError,
                     TruncationError, check_size)
from .fock import FockBasis, enumerate_sector, sector_size, total_size
from .lift import lift, lift_apply_fock
from .matrixkit import Interferometer, haar_random_unitary
from .qstate import (DensityMatrix, ProbabilityDistribution, embed, fock_state_dm,
                     fidelities, overflow_weight, partial_traces,
                     tensor_product_blocks, trace_distance)
from .tensors import _check_spectral_radius

LEAK_TOLERANCE = 1e-9          # per-iteration truncation leak allowed past n_max
UNFOLD_SECTOR_CAP = 100_000
_RETRY_DIM_CAP = 64            # loop-space dimension beyond which retries stop
TRUNCATION_RETRIES = 3         # _grow_n_max rungs a Haar sample may climb
_FIRST_CHUNK = 8               # iterates scored by stabilization_time's first fidelity call
_TRAJECTORY_CHUNK = 64         # most iterates scored by one fidelity call
ITERATE_TOLERANCE = 1e-12      # trace distance between iterates that ends stationary_loop_iterate
ITERATE_CAP = 1_000_000        # most channel steps stationary_loop_iterate takes


def _grow_n_max(n_max: int, looped: int) -> int:
    """Next truncation rung for heavy-tailed samples; None when infeasible."""
    nxt = int(np.ceil(n_max * 1.5))
    if total_size(looped, nxt) > _RETRY_DIM_CAP:
        return None
    return nxt


@dataclass(frozen=True)
class LossSpec:
    """Amplitude transmissions per mode plus the feedback-line power transmission."""

    t_in: np.ndarray | None = None
    t_out: np.ndarray | None = None
    loop_transmission: float = 1.0

    def resolve(self, modes: int) -> "LossSpec":
        t_in = np.ones(modes) if self.t_in is None else np.array(self.t_in, dtype=float)
        t_out = np.ones(modes) if self.t_out is None else np.array(self.t_out, dtype=float)
        t_in.flags.writeable = t_out.flags.writeable = False
        if t_in.shape != (modes,) or t_out.shape != (modes,):
            raise ValueError(f"loss arrays must have one amplitude per mode ({modes})")
        both = np.concatenate((t_in, t_out))
        if not ((both >= 0) & (both <= 1)).all():
            raise ValueError("amplitude transmissions must lie in [0, 1]")
        if not 0.0 <= self.loop_transmission <= 1.0:
            raise ValueError("loop transmission must lie in [0, 1]")
        return LossSpec(t_in, t_out, float(self.loop_transmission))

    @property
    def trivial(self) -> bool:
        return bool((self.t_in == 1.0).all() and (self.t_out == 1.0).all()
                    and self.loop_transmission == 1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """A frozen feedback-loop experiment, checked and resolved when made; every route reads
    its `transfer_matrix()`, `injected_state`, `m_eff` and `_loop_setup`, made on first use."""

    modes: int
    looped: int
    iterations: int
    unitary: np.ndarray | None = None
    haar_seed: int | None = None
    input_occupation: tuple | None = None
    input_state: DensityMatrix | None = None
    n_max: int | None = None
    losses: LossSpec = field(default_factory=LossSpec)
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.looped < self.modes:
            raise ValueError(f"need 0 <= L < M, got L={self.looped}, M={self.modes}")
        object.__setattr__(self, "iterations", operator.index(self.iterations))  # not int(2.5)
        if self.n_max is not None:
            object.__setattr__(self, "n_max", operator.index(self.n_max))
        if self.iterations < 1 or (self.n_max or 0) < 0:
            raise ValueError(f"need iterations >= 1, n_max >= 0: {self.iterations}, {self.n_max}")
        if (self.unitary is None) == (self.haar_seed is None):
            raise ValueError("provide exactly one of `unitary` or `haar_seed`")
        if (self.input_occupation is None) == (self.input_state is None):
            raise ValueError("provide exactly one of `input_occupation` or `input_state`")
        if self.input_occupation is not None:
            occ = tuple(int(x) for x in self.input_occupation)
            if len(occ) != self.n_external or any(x < 0 for x in occ):
                raise ValueError(
                    f"input occupation must be {self.n_external} non-negative counts"
                )
            object.__setattr__(self, "input_occupation", occ)
        elif self.input_state.basis.modes != self.n_external:
            raise ValueError("input density matrix must live on the external modes")
        object.__setattr__(self, "losses", self.losses.resolve(self.modes))
        if self.unitary is not None:
            object.__setattr__(self, "unitary", self._checked(self.unitary))
        object.__setattr__(self, "_lifted_blocks", {})  # U's sector blocks lifted so far

    def _checked(self, u) -> np.ndarray:
        """A read-only copy of `u`, refused unless M x M, and then unless a
        unitary (`Interferometer`)."""
        u = np.array(u, dtype=complex)
        if u.shape != (self.modes, self.modes):
            raise ValueError(f"transfer matrix has shape {u.shape}, expected M = {self.modes}")
        u = Interferometer(u).matrix
        u.flags.writeable = False
        return u

    @property
    def n_external(self) -> int:
        return self.modes - self.looped

    @property
    def n_env(self) -> int:
        """Largest photon number injected per iteration."""
        if self.input_occupation is not None:
            return sum(self.input_occupation)
        return self.input_state.max_populated_sector()

    def resolve_n_max(self) -> int:
        """Configured truncation, else the sound max(k * N_env, 1), with k = 1 without a loop."""
        if self.n_max is not None:
            return self.n_max
        return max((self.iterations if self.looped else 1) * self.n_env, 1)

    def transfer_matrix(self) -> np.ndarray:
        """U, checked and read-only: the given matrix, or the Haar draw made on first call."""
        return self.unitary if self.unitary is not None else self._haar_draw

    @cached_property
    def _haar_draw(self) -> np.ndarray:
        return self._checked(haar_random_unitary(self.modes, self.haar_seed))

    @cached_property
    def injected_state(self) -> DensityMatrix:
        """The input before losses; a Fock input on FockBasis(M - L, max(N_env, 1))."""
        if self.input_state is not None:
            return self.input_state
        n_env = max(self.n_env, 1)
        check_size("the injected state's basis size", total_size(self.n_external, n_env))
        return fock_state_dm(FockBasis(self.n_external, n_env), self.input_occupation)

    @cached_property
    def m_eff(self) -> np.ndarray:
        """The lossy transfer matrix T_out U T_in (`effective_transfer_matrix`)."""
        m_eff = effective_transfer_matrix(self.transfer_matrix(), self.losses, self.looped)
        m_eff.flags.writeable = False
        return m_eff

    @cached_property
    def _loop_setup(self) -> "_LoopSetup":
        """The one lift, set of loss channels and loop channel of this experiment."""
        return _LoopSetup(self)

    def at_n_max(self, n_max: int) -> "ExperimentConfig":
        """This experiment at `n_max`, checked no further, sharing all but `_loop_setup`."""
        self.m_eff, self.injected_state  # made before the copy, so that every rung shares them
        rung = copy(self)
        object.__setattr__(rung, "n_max", operator.index(n_max))
        rung.__dict__.pop("_loop_setup", None)
        return rung


def effective_transfer_matrix(u: np.ndarray, losses: LossSpec, n_looped: int) -> np.ndarray:
    """Lossy single-photon transfer matrix T_out U T_in.

    The looped columns of T_in absorb the feedback-line amplitude
    sqrt(loop_transmission), so the same matrix describes one full iteration
    line-to-line and line-to-detector.
    """
    u = np.asarray(u, dtype=complex)
    modes = u.shape[0]
    spec = losses.resolve(modes)
    t_in = spec.t_in.astype(complex)
    t_in[modes - n_looped:] *= np.sqrt(spec.loop_transmission)  # empty when n_looped = 0
    return (spec.t_out[:, None] * u) * t_in[None, :]


@dataclass
class EvolutionTrace:
    """Outputs of one evolution run; the last iteration's detected
    distribution is `iteration_distributions[-1]`."""

    rho_det: DensityMatrix
    iteration_distributions: list
    loop_states: list | None
    max_leaked_weight: float
    n_max: int


class _LoopSetup:
    """Bases, lifted matrix, input state, loss and loop channels of a config, whose
    lift memo it fills.  It holds no reference to the config: a config <-> setup
    cycle would leave every array of a call to the cyclic garbage collector."""

    def __init__(self, config: ExperimentConfig):
        self.iterations = config.iterations
        self.modes = config.modes
        self.looped = config.looped
        self.n_ext = config.n_external
        self.n_env = config.n_env
        self.n_max = config.resolve_n_max()
        if self.n_max < self.n_env:
            # without a loop every iteration is one pass of the input alone
            bound, name = ((self.iterations * self.n_env, "iterations * N_env")
                           if self.looped else (self.n_env, "N_env"))
            raise TruncationError(
                f"n_max={self.n_max} cannot hold the {self.n_env}-photon input; "
                f"the sound bound is {name} = {bound}",
                required_n_max=bound,
            )
        check_size("the joint Fock space size", total_size(self.modes, self.n_max))
        self.joint = FockBasis(self.modes, self.n_max)
        self.ext = FockBasis(self.n_ext, self.n_max)
        self.loop = FockBasis(self.looped, self.n_max) if self.looped else None
        self.u = config.transfer_matrix()
        self.lifted = lift(self.u, self.joint, config._lifted_blocks)

        spec = config.losses
        rho_ext = embed(config.injected_state, self.ext)
        self.in_ext = _maybe_loss(spec.t_in[: self.n_ext] ** 2, self.ext)
        self.rho_ext_in = self.in_ext.apply(rho_ext) if self.in_ext else rho_ext
        # without looped modes both slices are empty, so no loop channel is made
        t_line = spec.t_in[self.n_ext:] ** 2 * spec.loop_transmission
        self.in_loop = _maybe_loss(t_line, self.loop)
        self.out_loop = _maybe_loss(spec.t_out[self.n_ext:] ** 2, self.loop)
        self.out_ext = _maybe_loss(spec.t_out[: self.n_ext] ** 2, self.ext)

    def vacuum_line(self) -> DensityMatrix:
        return fock_state_dm(self.loop, (0,) * self.looped)

    def step(self, rho_line: DensityMatrix):
        """One iteration: returns (rho_det, next line state, leaked weight)."""
        rho_loop_in = self.in_loop.apply(rho_line) if self.in_loop else rho_line
        leaked = overflow_weight(self.rho_ext_in, rho_loop_in, self.n_max)
        if leaked > LEAK_TOLERANCE:
            required = self.iterations * self.n_env
            reason = f"required n_max is iterations * N_env = {required}"
            if required <= self.n_max:
                # the injected and line states' top populated sectors meet
                a, b = (rho.max_populated_sector() for rho in (self.rho_ext_in, rho_loop_in))
                required = max(a + b, self.n_max + 1)
                reason = (f"the injected and line states populate sectors up to {a} "
                          f"and {b}; required n_max is at least {required}")
            raise TruncationError(
                f"iteration would leak weight {leaked:.3e} past n_max={self.n_max}; {reason}",
                required_n_max=required)
        blocks = tensor_product_blocks(self.rho_ext_in, rho_loop_in, self.joint, leaked)
        rho_det, rho_line_next = partial_traces(
            self.joint, self.lifted.conjugate_blocks(blocks),
            [(0, self.n_ext), (self.n_ext, self.modes)])
        if self.out_ext:
            rho_det = self.out_ext.apply(rho_det)
        if self.out_loop:
            rho_line_next = self.out_loop.apply(rho_line_next)
        return rho_det, rho_line_next, leaked

    @cached_property
    def channel(self) -> QuantumChannel:
        """The line-to-line channel of one iteration, losses included."""
        chan = loop_channel(self.lifted, self.rho_ext_in)
        if self.in_loop:
            chan = compose(chan, self.in_loop)
        if self.out_loop:
            chan = compose(self.out_loop, chan)
        return chan

    def iterates(self):
        """The vacuum line, then one `channel.apply` per further item; a
        step's TruncationError surfaces from the `next()` that asks for it."""
        channel, rho = self.channel, self.vacuum_line()
        while True:
            yield rho
            rho = channel.apply(rho, leak_tolerance=LEAK_TOLERANCE)


def _stationary_setup(config: ExperimentConfig) -> _LoopSetup:
    """The config's setup, for the stationary routes, which refuse a config without
    a loop.  Raises SpectralRadiusError unless rho(M_eff,LL) < 1 - SPECTRAL_RADIUS_MARGIN:
    the loop channel's eigenvalues are products of M_eff,LL's and their conjugates
    (see `stationary_state`), so the stationary state is unique exactly then."""
    if config.looped == 0:
        raise ValueError("a stationary loop state needs at least one looped mode")
    setup = config._loop_setup
    _check_spectral_radius(config.m_eff, config.looped)
    return setup


def _maybe_loss(power_transmissions, basis) -> QuantumChannel | None:
    if (power_transmissions == 1.0).all():
        return None
    return _loss_channel(power_transmissions, basis.modes, basis.n_max)


def _singlepass_trace(config: ExperimentConfig) -> EvolutionTrace:
    """L = 0: every iteration is an independent single-pass run."""
    setup = config._loop_setup
    rho_out = DensityMatrix(setup.joint, setup.lifted.conjugate(setup.rho_ext_in.mat),
                            check=False)
    if setup.out_ext:
        rho_out = setup.out_ext.apply(rho_out)
    return EvolutionTrace(
        rho_det=rho_out,
        iteration_distributions=[rho_out.diagonal_distribution()] * config.iterations,
        loop_states=None, max_leaked_weight=0.0, n_max=setup.n_max,
    )


def _iterate(config: ExperimentConfig, record_loop: bool, kraus: bool) -> EvolutionTrace:
    """k joint passes from the vacuum line; the line state advances by the
    joint pass's own output, or by the one-iteration Kraus channel when `kraus`."""
    if config.looped == 0:
        return _singlepass_trace(config)
    setup = config._loop_setup
    rho_line = setup.vacuum_line()
    loop_states = [rho_line] if record_loop else None
    dists = []
    max_leak = 0.0
    for i in range(config.iterations):
        rho_det, rho_next, leaked = setup.step(rho_line)
        # the Kraus route steps the line only where a later iteration or the record reads it
        if kraus and (record_loop or i + 1 < config.iterations):
            rho_next = setup.channel.apply(rho_line, leak_tolerance=LEAK_TOLERANCE)
        rho_line = rho_next
        max_leak = max(max_leak, leaked)
        dists.append(rho_det.diagonal_distribution())
        if record_loop:
            loop_states.append(rho_line)
    return EvolutionTrace(
        rho_det=rho_det, iteration_distributions=dists, loop_states=loop_states,
        max_leaked_weight=max_leak, n_max=setup.n_max,
    )


def evolve_pdm(config: ExperimentConfig, record_loop: bool = False) -> EvolutionTrace:
    """Partial-density-matrix evolution: k joint passes with per-iteration traces."""
    return _iterate(config, record_loop, kraus=False)


def evolve_kraus(config: ExperimentConfig, record_loop: bool = False) -> EvolutionTrace:
    """Channel-iteration evolution with the same contract as `evolve_pdm`.

    The line state advances through the one-iteration Kraus channel; the
    detection at iteration i reuses the joint pass on the channel's input
    state, so iteration counts line up with the PDM route exactly.
    """
    return _iterate(config, record_loop, kraus=True)


@dataclass
class UnfoldResult:
    """Spatiotemporal unrolling of the loop into one big interferometer."""

    input_occupation: tuple
    joint_distribution: ProbabilityDistribution
    iteration_distributions: list
    rho_det: DensityMatrix


def unfold(config: ExperimentConfig):
    """Time-unrolled transfer matrix and its input occupation.

    Iteration t's external modes become the dedicated detector block t; the
    looped modes thread through all iterations and sit last.  Supports pure
    Fock inputs without losses only (this engine is the exact ground truth).
    """
    m_tot = _check_unfoldable(config)
    u = config.transfer_matrix()
    m_ext, loop, k = config.n_external, config.looped, config.iterations
    u_total = np.eye(m_tot, dtype=complex)
    loop_idx = list(range(m_ext * k, m_tot))
    for t in range(k):
        idx = list(range(t * m_ext, (t + 1) * m_ext)) + loop_idx
        step = np.eye(m_tot, dtype=complex)
        step[np.ix_(idx, idx)] = u
        u_total = step @ u_total
    input_occ = config.input_occupation * k + (0,) * loop
    return u_total, input_occ


def _check_unfoldable(config: ExperimentConfig) -> int:
    """Refuse a config the unfolding cannot take; returns the unfolded mode
    count, checked against the dense cap."""
    if config.input_occupation is None:
        raise ConfigError("unfolding supports pure Fock inputs only")
    if not config.losses.trivial:
        raise ConfigError("unfolding does not model losses")
    m_tot = config.n_external * config.iterations + config.looped
    check_size("the unfolded transfer matrix dimension", m_tot)
    return m_tot


def unfolded_distribution(config: ExperimentConfig) -> UnfoldResult:
    """Exact joint distribution over all detectable spatiotemporal modes.

    The dimension of the k-step transfer matrix, and the size of the
    unfolded photon-number sector, are checked before that matrix is built.
    """
    m_tot = _check_unfoldable(config)
    k = config.iterations
    m_ext = config.n_external
    n_tot = k * config.n_env
    check_size("the unfolded sector size", sector_size(m_tot, n_tot), UNFOLD_SECTOR_CAP)
    u_total, input_occ = unfold(config)
    amps = lift_apply_fock(u_total, input_occ)
    probs = np.abs(amps) ** 2
    sector = enumerate_sector(m_tot, n_tot)

    n_detect_modes = m_ext * k
    detect_basis = FockBasis(n_detect_modes, n_tot)
    joint = np.zeros(detect_basis.size)
    block_bases = FockBasis(m_ext, n_tot)
    blocks = [np.zeros(block_bases.size) for _ in range(k)]
    rho_parts = {}
    for occ, p, amp in zip(sector, probs, amps):
        det = occ[:n_detect_modes]
        joint[detect_basis.index_of(det)] += p
        for t in range(k):
            blocks[t][block_bases.index_of(occ[t * m_ext:(t + 1) * m_ext])] += p
        # reduced state of the last detector block
        rest = occ[: (k - 1) * m_ext] + occ[n_detect_modes:]
        last = occ[(k - 1) * m_ext: n_detect_modes]
        rho_parts.setdefault(rest, []).append((block_bases.index_of(last), amp))
    rho = np.zeros((block_bases.size, block_bases.size), dtype=complex)
    for entries in rho_parts.values():
        idx = np.array([e[0] for e in entries])
        a = np.array([e[1] for e in entries])
        rho[np.ix_(idx, idx)] += np.outer(a, a.conj())
    return UnfoldResult(
        input_occupation=input_occ,
        joint_distribution=ProbabilityDistribution(detect_basis, joint, check=False),
        iteration_distributions=[
            ProbabilityDistribution(block_bases, b, check=False) for b in blocks
        ],
        rho_det=DensityMatrix(block_bases, rho, check=False),
    )


def stationary_loop_state(config: ExperimentConfig) -> StationaryResult:
    """Fixed point of the one-iteration loop channel via the superoperator."""
    return stationary_state(_stationary_setup(config).channel)


def stationary_loop_iterate(config: ExperimentConfig) -> DensityMatrix:
    """Fixed point by channel iteration from the vacuum: the first iterate within
    trace distance ITERATE_TOLERANCE of the one before, within ITERATE_CAP steps."""
    iterates = _stationary_setup(config).iterates()
    for rho, nxt in islice(pairwise(iterates), ITERATE_CAP):
        if trace_distance(nxt, rho) < ITERATE_TOLERANCE:
            return nxt
    raise ConvergenceError(f"channel iteration did not settle below "
                           f"{ITERATE_TOLERANCE:.1e} in {ITERATE_CAP} steps")


def detection_pass(config: ExperimentConfig, rho_line: DensityMatrix):
    """Interfere a loop state with the injected input once; detect the externals.

    Returns (rho_det, next line state).
    """
    setup = config._loop_setup
    line = embed(rho_line, setup.loop)
    rho_det, rho_next, _ = setup.step(line)
    return rho_det, rho_next


def stabilization_time(config: ExperimentConfig, tolerance: float = 1e-6,
                       max_iterations: int = 100_000) -> int:
    """Iterations until the loop state's infidelity to the fixed point drops below
    `tolerance`, starting from the vacuum.

    Uniqueness is checked on M_eff,LL first.  The fixed point comes from the
    bordered solve or, when that gives up, from `stationary_state`, whose
    checks all read the charge-0 block and run before the first step.  The
    state steps as a charge-0 vector along `_LoopSetup.iterates`, scored in
    chunks doubling from _FIRST_CHUNK to _TRAJECTORY_CHUNK.
    Steps past the first converged iterate are overshoot: a TruncationError
    among them is dropped, while one at or before it, and the cap, surface
    after the same steps as a step-by-step loop would take.
    """
    setup = _stationary_setup(config)
    rho_stat = fixed_point(setup.channel)
    if rho_stat is None:
        rho_stat = stationary_state(setup.channel).rho
    iterates = setup.iterates()
    start, size = 0, _FIRST_CHUNK
    while start <= max_iterations:
        chunk, failure = [next(iterates)], None
        while len(chunk) < min(size, max_iterations + 1 - start):
            try:
                chunk.append(next(iterates))
            except TruncationError as err:
                failure = err
                break
        converged = np.flatnonzero(1.0 - fidelities(chunk, rho_stat) < tolerance)
        if converged.size:
            return start + int(converged[0])
        if failure is not None:
            raise failure
        start += len(chunk)
        size = min(2 * size, _TRAJECTORY_CHUNK)
    next(iterates)  # the last step of a step-by-step loop, which may fail
    raise ConvergenceError(
        f"loop state did not stabilize within {max_iterations} iterations"
    )


def _haar_samples(config: ExperimentConfig, samples: int, seed: int, solve) -> list:
    """`solve(sample_config)` on Haar-random transfer matrices, one result per
    sample.

    Per-sample seeds are spawned from the master seed.  A sample with a
    degenerate fixed point, or that fails to converge, gives None.  A sample
    whose loop state is too heavy-tailed for the configured n_max is retried
    at a 1.5x larger truncation up to TRUNCATION_RETRIES times: the required
    bound is state-dependent, and near-decoupled matrices produce nearly
    thermal loop states far wider than the typical Haar draw.  The rungs are
    the sample's `at_n_max` configs, so a retry lifts only the sectors its
    larger truncation adds.  The joint space of the first rung is checked
    against its cap before any sample is drawn.
    """
    check_size("the joint Fock space size", total_size(config.modes, config.resolve_n_max()))

    def one(child):
        sample = replace(config, unitary=haar_random_unitary(config.modes, child), haar_seed=None)
        n_max = config.resolve_n_max()
        for attempt in range(TRUNCATION_RETRIES + 1):
            try:
                return solve(sample.at_n_max(n_max))
            except TruncationError:
                n_max = _grow_n_max(n_max, config.looped)
                if attempt == TRUNCATION_RETRIES or n_max is None:
                    raise
            except (DegenerateFixedPointError, ConvergenceError):
                return None

    return [one(child) for child in np.random.SeedSequence(seed).spawn(samples)]


@dataclass
class StabilizationStudy:
    times: list
    skipped: int


def stabilization_samples(config: ExperimentConfig, samples: int, seed: int,
                          tolerance: float = 1e-6,
                          max_iterations: int = 100_000) -> StabilizationStudy:
    """Stabilization times over Haar-random transfer matrices.

    Samples with a degenerate fixed point (or that fail to converge) are
    skipped and counted; heavy-tailed samples climb the truncation ladder of
    `_haar_samples`.
    """
    results = _haar_samples(config, samples, seed,
                            lambda cfg: stabilization_time(cfg, tolerance, max_iterations))
    times = [t for t in results if t is not None]
    return StabilizationStudy(times=times, skipped=len(results) - len(times))


@dataclass
class AverageStationaryResult:
    rho: DensityMatrix
    samples_used: int
    skipped: int


def average_stationary(config: ExperimentConfig, samples: int,
                       seed: int) -> AverageStationaryResult:
    """Mean stationary state over Haar-random transfer matrices.

    Raw element-wise averaging is only physically meaningful when the
    per-sample states share a basis structure without coherences, which holds
    for a single looped mode and Fock inputs; several looped modes are
    refused.  Heavy-tailed samples are retried at growing truncations (as
    in `stabilization_samples`) and everything is averaged on the largest
    basis encountered, zero-padding the rest.
    """
    if config.looped > 1:
        raise ValueError("raw averaging over matrices is only meaningful for one looped mode")
    results = _haar_samples(config, samples, seed,
                            lambda cfg: stationary_loop_state(cfg).rho)
    states = [r for r in results if r is not None]
    skipped = len(results) - len(states)
    if not states:
        raise DegenerateFixedPointError("every sample had a degenerate fixed point")
    if skipped:
        warnings.warn(f"skipped {skipped} samples with degenerate fixed points")
    basis = max((s.basis for s in states), key=lambda b: b.n_max)
    mean = np.zeros((basis.size, basis.size), dtype=complex)
    for s in states:
        mean += embed(s, basis).mat
    mean /= len(states)
    return AverageStationaryResult(
        rho=DensityMatrix(basis, mean),
        samples_used=len(states),
        skipped=skipped,
    )
