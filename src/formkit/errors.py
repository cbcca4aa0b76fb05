"""Exception hierarchy.

Mathematical refusals (a decomposition or certificate that legitimately does
not exist) are distinct from validation problems with the input data; the CLI
maps the former to exit code 2 and the latter to exit code 1.
"""


class FormkitError(Exception):
    """Base class for all library errors."""


class MathematicalRefusal(FormkitError):
    """A requested construction does not exist for the given forms."""


class NotHermitian(FormkitError):
    pass


class NotPSD(FormkitError):
    pass


class NotInClassM(MathematicalRefusal):
    pass


class NotAbsolutelyContinuous(MathematicalRefusal):
    pass


class NotSectorial(MathematicalRefusal):
    pass


class NoConvergence(MathematicalRefusal):
    """The doubling loop did not settle; reported, never silently resolved."""


class WitnessResidualTooLarge(FormkitError):
    """Internal inconsistency: a constructed split failed its own witness."""


class PreconditionFails(FormkitError):
    pass


class IncompatibleNorm(MathematicalRefusal):
    pass


class NotSolvable(MathematicalRefusal):
    pass


class TheoremViolation(FormkitError):
    """Internal inconsistency: a proven implication failed numerically."""


class ParseError(FormkitError):
    pass


class ValidationError(FormkitError):
    pass
