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


def required(d, key: str, where: str, conv=None):
    """d[key] of a JSON object, read by `conv` if one is given. A missing key
    (or no object), or a value `conv` cannot read, is an InvalidSpec naming it."""
    if not isinstance(d, dict) or key not in d:
        raise InvalidSpec(f"{where} has no {key!r}")
    if conv is None:
        return d[key]
    try:
        return conv(d[key])
    except (TypeError, ValueError):
        raise InvalidSpec(f"{where} {key!r} is malformed: {d[key]!r}") from None


class BoundaryViolation(CollapseBoxError):
    pass


class EmptyGrid(CollapseBoxError):
    pass


class TimeBeforeTrigger(CollapseBoxError):
    pass


class TimeOutsideWindow(CollapseBoxError):
    pass


# --- quadrature ---

class QuadratureFailure(CollapseBoxError):
    pass
