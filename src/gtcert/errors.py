"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all gtcert errors."""


class NotSquareError(Error):
    """Input array is not a square 2-d matrix."""


class HermiticityViolation(Error):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class UnitarityViolation(Error):
    """Matrix fails the U*U = I check at construction tolerance."""


class DimensionMismatch(Error):
    """Operands have incompatible dimensions."""


class ConvergenceFailure(Error):
    """The eigensolver did not converge."""


class NonFiniteInput(Error):
    """An argument or a sampled draw holds a NaN or an infinity."""


class NonFiniteResult(Error):
    """A value computed from finite ones is NaN or infinite: A + B, U* A U, an eigenvalue, a lhs, rhs or slack."""


class MatrixParseError(Error):
    """A matrix file is malformed."""


class CampaignTrialError(Error):
    """A campaign trial raised; carries the trial seed, which `replay(config, trial_seed)` re-runs.

    Only `run_campaign` and `replay` raise it, with the trial's own error as
    `cause`: the error that `replay` raises for that trial.  A campaign names
    its lowest trial that raises on its own; `trial_index` is None only for `replay`.
    """

    def __init__(self, trial_index, trial_seed: int, cause: BaseException):
        self.trial_index = trial_index
        self.trial_seed = trial_seed
        self.cause = cause
        where = "replayed trial" if trial_index is None else f"trial {trial_index}"
        super().__init__(f"{where} (trial_seed={trial_seed}) failed: {cause!r}")
