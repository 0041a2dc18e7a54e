"""Exception hierarchy for collapse-box."""


class CollapseBoxError(Exception):
    """Base class for all collapse-box errors."""


# --- distributions / behaviors ---

class EmptyAlphabet(CollapseBoxError):
    pass


class NegativeWeight(CollapseBoxError):
    pass


class NotNormalized(CollapseBoxError):
    pass


class AlphabetMismatch(CollapseBoxError):
    pass


class WrongScenarioShape(CollapseBoxError):
    pass


class ScenarioTooLarge(CollapseBoxError):
    pass


# --- collapse families ---

class InvalidSpec(CollapseBoxError):
    pass


def required(d, key: str, where: str):
    """d[key] of a JSON object; a missing key (or no object) is an InvalidSpec naming it."""
    if not isinstance(d, dict) or key not in d:
        raise InvalidSpec(f"{where} has no {key!r}")
    return d[key]


class BoundaryViolation(CollapseBoxError):
    pass


class EmptyGrid(CollapseBoxError):
    pass


class TimeBeforeTrigger(CollapseBoxError):
    pass


class TimeOutsideWindow(CollapseBoxError):
    pass


# --- scenarios ---

class NegativeElapsed(CollapseBoxError):
    pass


class QuadratureFailure(CollapseBoxError):
    pass


# --- quadrature ---

class MaxDepthExceeded(CollapseBoxError):
    """Adaptive subdivision hit the depth cap.

    Carries the best value and achieved error estimate so callers can
    decide whether the partial result is usable.
    """

    def __init__(self, message, value, error_estimate, evaluations):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.evaluations = evaluations
