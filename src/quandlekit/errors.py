"""Exception types shared across the package.

Every error that signals bad input or a violated precondition derives from
QuandleKitError, so callers (and the CLI) can catch one base class.  The
`require_*` helpers at the end are the type checks the JSON readers share:
they raise ParseError, so a malformed document never reaches code that
would fail on it with a traceback.
"""


class QuandleKitError(ValueError):
    """Base class for all errors raised by this package."""


class CapExceeded(QuandleKitError):
    """Input is too large for the configured desk-scale cap."""


class ParseError(QuandleKitError):
    """A textual spec or JSON document could not be parsed."""


class UnsupportedSpec(QuandleKitError):
    """The group spec names a constructor outside the built-in catalog."""


class NotASubgroup(QuandleKitError):
    """A set required to be a group is not closed under composition.

    `stabilizer` names two fixing elements whose product does not fix;
    `PermGroup.from_elements` names a member times one of its greedy
    generators that falls outside the set, or a member whose powers reach
    the missing identity."""


class NotAHomomorphism(QuandleKitError):
    """A map that was required to be a homomorphism is not one."""


class NotAbelian(QuandleKitError):
    """An abelian group was required."""


class NotAutomorphism(QuandleKitError):
    """A permutation that was required to preserve a structure does not."""


class Axiom1Violation(QuandleKitError):
    """Table has x * x != x; carries the witness element."""

    def __init__(self, x):
        super().__init__(f"idempotence fails at element {x}")
        self.x = x


class Axiom2Violation(QuandleKitError):
    """Some column of the table is not a permutation; carries the column."""

    def __init__(self, y):
        super().__init__(f"right translation by {y} is not a bijection")
        self.y = y


class Axiom3Violation(QuandleKitError):
    """Self-distributivity fails; carries the witness triple."""

    def __init__(self, x, y, z):
        super().__init__(f"(x*y)*z != (x*z)*(y*z) at ({x}, {y}, {z})")
        self.triple = (x, y, z)


class DiagonalViolation(QuandleKitError):
    """A cocycle table has a non-identity entry on the diagonal."""

    def __init__(self, x):
        super().__init__(f"cocycle is not normalized at ({x}, {x})")
        self.x = x


class CocycleViolation(QuandleKitError):
    """The cocycle condition fails; carries the witness triple."""

    def __init__(self, x, y, z):
        super().__init__(f"cocycle condition fails at ({x}, {y}, {z})")
        self.triple = (x, y, z)


class NotInStabilizer(QuandleKitError):
    """The given pair does not fix the cocycle, so it induces no automorphism."""


class CosetLimitExceeded(QuandleKitError):
    """Coset enumeration hit the coset cap without completing.

    Hitting the cap says nothing about the index being infinite; retry with
    a larger cap if the presentation is expected to have small index.
    """


class HypothesisViolated(QuandleKitError):
    """Input does not satisfy the hypothesis a report or check requires."""


class SigmaNotHom(QuandleKitError):
    """The first gluing map of a union spec is not a quandle homomorphism."""


class TauNotHom(QuandleKitError):
    """The second gluing map of a union spec is not a quandle homomorphism."""


class Condition1Violated(QuandleKitError):
    """Mixed compatibility condition (1) of a union spec fails."""

    def __init__(self, x, y, z):
        super().__init__(f"union condition (1) fails at ({x}, {y}, {z})")
        self.triple = (x, y, z)


class Condition2Violated(QuandleKitError):
    """Mixed compatibility condition (2) of a union spec fails."""

    def __init__(self, x, y, z):
        super().__init__(f"union condition (2) fails at ({x}, {y}, {z})")
        self.triple = (x, y, z)


class FixedPointHypothesisViolated(QuandleKitError):
    """A compatible assignment does not fix the required point."""

    def __init__(self, x):
        super().__init__(f"assignment at {x} does not fix {x}")
        self.x = x


class NotInvolutory(QuandleKitError):
    """An involutory quandle was required."""


def require_field(doc, key: str, what: str):
    """doc[key], where doc must be a JSON object that has the key."""
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    if key not in doc:
        raise ParseError(f"{what} needs a {key!r} field")
    return doc[key]


def require_int(value, what: str) -> int:
    """value itself if it is an int (a JSON bool is not)."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be an array")
    return value


def require_ints(value, what: str):
    """value itself if it is a list or tuple of ints (JSON bools are not)."""
    if not isinstance(value, (list, tuple)) or any(type(v) is not int for v in value):
        raise ParseError(f"{what} must be an array of integers")
    return value
