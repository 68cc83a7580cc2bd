"""Exception hierarchy shared across the reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish simulator-level faults (bugs in the model) from
*modelled* faults (behaviour the paper's OS is supposed to contain, such as a
capability violation raised against a misbehaving accelerator).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The simulation engine was used incorrectly (model bug)."""


class ConfigError(ReproError):
    """Invalid configuration passed to a component constructor."""


class CapabilityError(ReproError):
    """A capability check failed (modelled security fault)."""


class CapabilityRevoked(CapabilityError):
    """The referenced capability has been revoked."""


class AccessDenied(CapabilityError):
    """The capability exists but does not carry the required rights."""


class SegmentFault(ReproError):
    """A memory access fell outside every mapped segment (modelled fault)."""


class AllocationError(ReproError):
    """A memory allocator could not satisfy a request."""


class RouteError(ReproError):
    """A NoC packet was addressed to an unreachable node."""


class ProtocolError(ReproError):
    """A message violated the Apiary message-format contract."""


class ServiceError(ReproError):
    """An Apiary service rejected a request."""


class ServiceUnavailable(ServiceError):
    """The named service is not registered or its tile is failed/drained."""


class DeadlineExceeded(ServiceUnavailable):
    """An RPC deadline expired before a response arrived.

    Subclasses :class:`ServiceUnavailable` so callers that treat timeouts as
    plain unavailability keep working; retry loops catch this specifically
    to stop retrying once the caller's overall deadline is spent.
    """


class TileFault(ReproError):
    """An accelerator on a tile raised a modelled hardware fault."""


class ReconfigError(ReproError):
    """Partial reconfiguration of a tile slot failed."""


class BitstreamRejected(ReconfigError):
    """Design-rule checking rejected a bitstream (e.g. power-virus screen)."""


class ResourceExhausted(ReproError):
    """The FPGA device does not have enough logic/BRAM/DSP resources."""


class SchedulerError(ReproError):
    """Base class for tile-scheduler and autoscaler failures."""


class AdmissionRejected(SchedulerError):
    """The admission controller refused a job at submit time."""


class QuotaExceeded(AdmissionRejected):
    """A tenant is over its running-tile or queued-job quota."""


class PlacementFailed(SchedulerError):
    """No tile satisfies a job's resource/DRC/locality constraints."""
