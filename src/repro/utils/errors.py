"""Exception hierarchy for the COMET reproduction.

All library-specific exceptions derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish parsing problems from perturbation or model failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ParseError(ReproError):
    """Raised when an assembly string cannot be parsed as Intel-syntax x86."""

    def __init__(self, text: str, reason: str) -> None:
        self.text = text
        self.reason = reason
        super().__init__(f"cannot parse {text!r}: {reason}")


class ValidationError(ReproError):
    """Raised when an instruction or basic block violates ISA constraints."""


class UnknownOpcodeError(ReproError):
    """Raised when an opcode is not present in the opcode database."""

    def __init__(self, mnemonic: str) -> None:
        self.mnemonic = mnemonic
        super().__init__(f"unknown opcode: {mnemonic!r}")


class UnknownRegisterError(ReproError):
    """Raised when a register name is not present in the register file."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unknown register: {name!r}")


class PerturbationError(ReproError):
    """Raised when the perturbation algorithm cannot produce a valid block."""


class ModelError(ReproError):
    """Raised when a cost model cannot produce a prediction for a block."""


class BackendError(ReproError):
    """Raised when an execution backend cannot run the requested workload."""


class CheckpointError(ReproError):
    """Raised when a checkpointed ``explain_many`` run is not resumable: it
    was not driven by an integer seed.  A checkpoint file that cannot be
    read or written raises :class:`CacheError`, like any result-cache store."""


class CacheError(ReproError):
    """Raised when a persistent result-cache store cannot be opened, read or
    written — a wrong-format file, a corrupt entry whose checksum fails, or a
    failed append.  A corrupt store is *refused* with this type, never
    silently served."""


class ServiceError(ReproError):
    """Raised when the explanation service cannot accept or serve a request."""


class QueueFullError(ServiceError):
    """Raised when a non-blocking submit hits the service's bounded queue."""


class ServiceClosedError(ServiceError):
    """Raised when a request reaches a service that has been shut down."""


class ServiceTimeoutError(ServiceError):
    """Raised when a client-side wait (``result(timeout=...)``) expires.

    Distinct from the server-side deadline family below: the request may
    still be queued or running — only *this caller's patience* ran out, and
    the result stays collectable.
    """


class RequestCancelledError(ServiceError):
    """Raised inside a request whose :class:`~repro.utils.cancellation.CancelToken`
    was cancelled (client abandoned it); the service reports the request as
    cancelled and frees its dispatcher and session key."""


class DeadlineExceededError(ServiceError):
    """Raised when a request's server-side deadline expires — either while
    still queued (failed fast, no session touched) or cooperatively between
    KL-LUCB rounds while running."""
