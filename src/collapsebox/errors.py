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


class MissingDependency(CollapseBoxError):
    """An optional package that one function needs is not installed."""


# --- collapse families ---

class InvalidSpec(CollapseBoxError):
    pass


class BoundaryViolation(CollapseBoxError):
    pass


class EmptyGrid(CollapseBoxError):
    pass


class TimeBeforeTrigger(CollapseBoxError):
    pass


# --- quadrature ---

class QuadratureFailure(CollapseBoxError):
    pass
