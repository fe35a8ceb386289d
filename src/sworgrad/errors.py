"""Exception types raised by the package."""


class SworgradError(Exception):
    """Base class for all package-specific errors."""


class InvalidLogits(SworgradError):
    """Logits or log-probabilities are non-finite or empty."""


class InvalidIndices(SworgradError, ValueError):
    """Sample indices lie outside the domain, repeat inside a set, or do not
    fit the sample they exclude from."""


class InvalidStreamKey(SworgradError, ValueError):
    """A seed or stream key is negative, or a key does not fit one 32-bit
    word of the batched stream path."""


class InvalidConfig(SworgradError, ValueError):
    """A benchmark or check config value is out of range or of the wrong
    kind: fewer than two replications of a variance sweep, a negative step
    count of an optimize run, fewer than one case of an identity-check
    report, a fraction or a bool where a config wants an integer, or a
    non-finite eta or step size."""


class InvalidRestriction(SworgradError):
    """The queried element lies inside the excluded set."""


class DegenerateRestriction(SworgradError):
    """The excluded set carries (numerically) all probability mass."""


class NoParameterization(SworgradError):
    """The distribution has no logits, so parameter gradients are undefined."""


class DomainTooLarge(SworgradError):
    """A flattened or enumerated domain exceeds the configured cap, or a
    beam-searched one has more outcomes than int64 joint indices hold."""


class InvalidSampleSize(SworgradError):
    """Requested sample size is outside [1, domain size]."""


class TooManyPermutations(SworgradError):
    """Set too large for the factorial-cost permutation sum."""


class TooManySubsets(SworgradError):
    """Set too large for the 2^k inclusion-exclusion sum."""


class InvalidSplit(SworgradError):
    """Sum-and-sample split m must satisfy 1 <= m < k."""


class NeedTwoSamples(SworgradError):
    """Baseline estimators need at least two samples."""


class BaselineSizeMismatch(SworgradError):
    """Baseline sample list must match the primary sample list in length."""


class InconsistentThreshold(SworgradError):
    """Threshold is not below every retained perturbed log-probability."""


class NoPathwiseGradient(SworgradError):
    """Objective provides no parameter gradient for the pathwise term."""


class SpaceTooLarge(SworgradError):
    """Sample space too large to enumerate exactly."""
