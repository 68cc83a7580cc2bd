"""Fault-injection campaigns against the simulated FPGA.

``injector`` plans and applies deterministic, seeded faults (a fail-stop
tile crash, a NoC router stall); ``campaign`` sweeps fault rates against a
checksum workload and reports availability with and without the kernel's
recovery subsystem.
"""

from repro.chaos.campaign import (
    Campaign,
    CampaignPoint,
    ChecksumService,
    SurvivalClient,
    checksum,
)
from repro.chaos.injector import (
    DEFAULT_FAULT_PARAMS,
    FaultEvent,
    FaultKind,
    FaultPlan,
    Injector,
)

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "Injector",
    "DEFAULT_FAULT_PARAMS",
    "Campaign",
    "CampaignPoint",
    "ChecksumService",
    "SurvivalClient",
    "checksum",
]
