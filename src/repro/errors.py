"""Exception hierarchy shared by every repro subsystem."""


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A machine, cache, scene or distribution parameter is invalid."""


class SimulationError(ReproError):
    """A timing model reached an inconsistent state."""


class TraceFormatError(ReproError):
    """A triangle trace file is malformed."""


class ServiceError(ReproError):
    """The experiment job service failed (HTTP transport, bad response,
    or a job that can no longer make progress)."""


class UnknownJobError(ServiceError):
    """A job id the service has never seen (HTTP 404, not a fault)."""


class BackpressureError(ServiceError):
    """The job queue is at its configured depth limit; the submission
    was rejected and should be retried later (HTTP 429)."""


class StaleLeaseError(ServiceError):
    """A lease id that is unknown, expired, or already released; the
    worker holding it must abandon the attempt (HTTP 410)."""

    #: Same branch point as a ``ServiceClient`` error's HTTP status, so
    #: a worker reacts alike in-process and over HTTP.
    status = 410
