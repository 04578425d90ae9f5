"""The three kinds of failure the CLI reports, one exit code each.

``ConfigError`` (exit 2) is a config file or a setting that cannot run:
an unknown key, a bad value, or a spec no generator can meet.
``InputError`` (exit 4) is an input file that is missing, does not
parse, or disagrees with the other inputs.  ``NumericError`` (exit 3) is
a problem the solver cannot solve or an iterate that left the finite
numbers, and its subclasses below name the kind.  Each is a
``ValueError``.  Any other exception is a bug.
"""


class ConfigError(ValueError):
    """A config file or setting that cannot run."""


class InputError(ValueError):
    """An input file that is missing, malformed or inconsistent."""


class NumericError(ValueError):
    """A degenerate problem or a diverging iterate."""


class RegularityError(NumericError):
    """Fewer than two views, or dimensions too small for a regular system."""


class EmptyViewError(NumericError):
    """A view with zero spectral norm cannot drive a gradient step."""


class StepSizeError(NumericError, RuntimeError):
    """The sub-solver objective increased; the gradient step is mis-tuned."""


class RankDeficiencyError(NumericError):
    """Raised when a polar factorization input has rank < K."""
