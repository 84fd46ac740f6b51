"""Exception hierarchy for the :mod:`repro` package."""


class ReproError(Exception):
    """Base class for all errors raised by the package."""


class EstimatorDerivationError(ReproError):
    """Raised when an estimator derivation fails.

    Algorithm 1 of the paper declares *failure* when the constraints have no
    solution (a data vector whose unprocessed outcomes have probability zero
    while the contribution of the processed outcomes does not match the
    target expectation).  The generic derivation engines raise this exception
    in that situation, and also when a numerical optimisation backend does
    not converge.
    """


class UnsupportedConfigurationError(ReproError):
    """Raised when an estimator is asked for a configuration the paper
    (and therefore this reproduction) does not define.

    Example: the closed-form ``max^(L)`` estimator for weight-oblivious
    Poisson sampling is only available for two entries with heterogeneous
    inclusion probabilities, or for any number of entries with a uniform
    inclusion probability (Theorem 4.2).
    """


class InvalidOutcomeError(ReproError):
    """Raised when an outcome does not match the sampling scheme of an
    estimator (wrong dimension, missing seeds, values outside the domain)."""


class InvalidParameterError(ReproError, ValueError):
    """Raised when a constructor or function argument is out of range."""


class RowDecodeError(InvalidParameterError):
    """Raised by the row decoders of :mod:`repro.service.store` on a bad
    update row: ``position`` names it (``CSV line 3``, ``rows[2]``),
    ``line`` is its 1-based text line if any, ``reason`` says why."""

    def __init__(self, position: str, reason: str, line: int | None = None) -> None:
        super().__init__(f"{position}: {reason}")
        self.position = position
        self.reason = reason
        self.line = line


class SketchCodecError(ReproError, ValueError):
    """Raised by :mod:`repro.service.codec` when bytes cannot be decoded
    (wrong magic, unsupported format version, truncated or trailing data,
    corrupt payloads) or when state cannot be represented on the wire
    (custom rank families, unsupported key types)."""


class WalCorruptionError(SketchCodecError):
    """Raised by :mod:`repro.wal` when a write-ahead-log segment fails
    validation in a way that cannot be a torn tail write: a checksum or
    framing error in the middle of a segment, a log-sequence-number gap,
    or a record that decodes to garbage despite a valid checksum.  The
    message always names the segment file and byte offset.  Torn tails
    (an interrupted final append) are *not* errors — recovery truncates
    them — so this exception firing means the log must not be trusted and
    recovery stops loudly instead of serving partial data."""


class ConfidenceUnavailableError(ReproError, ValueError):
    """Raised when a query asks for ``cv``/``ci90`` confidence reporting
    but no variance estimator applies to its shape.

    The paper's variance formulas cover distinct counts (HT and L
    variants) and single-instance subset sums (rank conditioning on
    bottom-k, Horvitz-Thompson on Poisson).  Dominance and L1 distance
    have no analyzable plug-in variance here, so — mirroring the
    independence-assumption rejection in :mod:`repro.streaming.query` —
    they are refused loudly instead of reporting a made-up interval."""


class UnknownStoreError(ReproError, KeyError):
    """Raised by :class:`repro.service.SketchStore` when a named engine is
    not registered in the store."""


class EngineBusyError(RuntimeError):
    """Raised by a non-waiting read of :class:`repro.service.SketchStore`
    (``wait=False``) when another thread holds the engine's lock.

    Internal control flow, not a client error: the HTTP server catches
    it and reruns the query on its query lane, which waits for the lock.
    It derives from :class:`RuntimeError`, not :class:`ReproError`, so
    one that escaped would be a loud ``500``, never a ``400``."""
