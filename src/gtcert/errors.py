"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all gtcert errors.

    `row` is the index of the offending matrix or vector when the error comes
    from a stacked (T, ...) evaluation, so a campaign can name the trial; it
    is 0 for unstacked arguments.
    """

    row = 0


def at_row(error: Error, row: int) -> Error:
    """`error`, marked as raised for row `row` of a stacked evaluation."""
    error.row = row
    return error


def require_rows(ok, error_type, message: str) -> None:
    """Raise error_type(message) for the first False entry of the row mask `ok`."""
    if not ok.all():
        raise at_row(error_type(message), int(ok.argmin()))


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
    """Input holds a NaN or an infinity."""


class NonFiniteResult(Error):
    """A check computed a NaN or infinite lhs, rhs or slack."""


class MatrixParseError(Error):
    """A matrix file is malformed."""


class CampaignTrialError(Error):
    """A campaign trial raised; carries the trial seed for replay.

    `trial_index` is None when the failing check ran outside a campaign.
    """

    def __init__(self, trial_index, trial_seed: int, cause: BaseException):
        self.trial_index = trial_index
        self.trial_seed = trial_seed
        self.cause = cause
        where = "check" if trial_index is None else f"trial {trial_index}"
        super().__init__(f"{where} (trial_seed={trial_seed}) failed: {cause!r}")
