"""Exception types shared across the package, and the dense-size cap and its check."""

DENSE_DIM_CAP = 4096   # largest square dimension of a dense array the package builds


class BosonLoopError(Exception):
    """Base class for all package-specific errors."""


class OutOfBasisError(BosonLoopError):
    """An occupation vector is not representable in the given truncated basis."""


class TruncationError(BosonLoopError):
    """Photon-number weight would leak past the truncation bound n_max."""

    def __init__(self, message, required_n_max=None):
        super().__init__(message)
        self.required_n_max = required_n_max


class DegenerateFixedPointError(BosonLoopError):
    """The channel has no unique stationary state (degenerate unit eigenvalue)."""


class SpectralRadiusError(DegenerateFixedPointError):
    """The lossy loop-to-loop block has spectral radius >= 1, so the loop
    channel has no unique stationary state and the stationary tensor
    systems are singular."""


class ReconstructionError(BosonLoopError):
    """Density-matrix or distribution reconstruction cannot proceed."""

    def __init__(self, message, missing_moment=None):
        super().__init__(message)
        self.missing_moment = missing_moment


class ConvergenceError(BosonLoopError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class OutputError(BosonLoopError):
    """The output files could not be written."""


class ConfigError(BosonLoopError, ValueError):
    """Invalid experiment configuration, or a request the configuration cannot serve."""


class SizeCapError(BosonLoopError, ValueError):
    """A dense array the request needs is larger than the package's cap for it."""

    def __init__(self, message, cap=None, required=None):
        super().__init__(message)
        self.cap = cap
        self.required = required


def check_size(what: str, required: int, cap: int = DENSE_DIM_CAP) -> None:
    """Raise SizeCapError "<what> is <required>, above the cap <cap>" when
    `required` exceeds `cap`; callers check before they allocate."""
    if required > cap:
        raise SizeCapError(f"{what} is {required}, above the cap {cap}",
                           cap=cap, required=required)
