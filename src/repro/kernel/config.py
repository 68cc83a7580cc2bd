"""Typed system configuration — how an ApiarySystem is described.

:class:`~repro.kernel.system.ApiarySystem` takes one frozen, validated
:class:`SystemConfig`; its settings are grouped by *what part of the
machine* they tune:

* :class:`NocConfig` — tile grid and router parameters;
* :class:`MemConfig` — whether/where the memory service runs and the DRAM
  device behind it;
* :class:`NetConfig` — the datacenter attachment: MAC kind/address and the
  network-service tile (the fabric itself stays a runtime argument, like
  the engine — it is a shared *object*, not a per-system setting);
* :class:`FaultConfig` — fault-handling policy and monitor enforcement.

``ApiarySystem(SystemConfig(...))`` is the only constructor spelling.  All
config objects are frozen dataclasses, so the cluster layer derives
per-FPGA variations with :func:`dataclasses.replace`::

    cfg = SystemConfig.figure1()
    per_fpga = replace(cfg, seed=cfg.seed + i,
                       net=replace(cfg.net, mac_addr=f"fpga{i}"))
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError
from repro.kernel.fault import FaultPolicy
from repro.mem.dram import DDR4_TIMING, DramTiming

__all__ = [
    "NocConfig",
    "MemConfig",
    "NetConfig",
    "FaultConfig",
    "SystemConfig",
]


@dataclass(frozen=True)
class NocConfig:
    """Tile grid and router parameters."""

    width: int = 4
    height: int = 4
    buffer_depth: int = 4
    flit_bytes: int = 16
    #: per-tile injection rate limit in flits/cycle (None = unlimited),
    #: behind a bucket of ``monitor.RATE_LIMIT_BURST`` flits
    rate_limit_flits: Optional[float] = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigError(
                f"grid must be at least 1x1, got {self.width}x{self.height}"
            )
        if self.buffer_depth < 1:
            raise ConfigError(f"buffer_depth must be >= 1, got {self.buffer_depth}")
        if self.flit_bytes < 1:
            raise ConfigError(f"flit_bytes must be >= 1, got {self.flit_bytes}")
        if self.rate_limit_flits is not None and self.rate_limit_flits <= 0:
            raise ConfigError("rate_limit_flits must be positive or None")

    @property
    def tiles(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class MemConfig:
    """The memory service and the DRAM device behind it."""

    enabled: bool = True
    tile: int = 0
    dram_channels: int = 2
    dram_timing: DramTiming = DDR4_TIMING

    def __post_init__(self) -> None:
        if self.tile < 0:
            raise ConfigError(f"mem tile must be >= 0, got {self.tile}")
        if self.dram_channels < 1:
            raise ConfigError("dram_channels must be >= 1")


@dataclass(frozen=True)
class NetConfig:
    """Datacenter attachment: which MAC core, what address, which tile.

    The network service only loads when the system is handed a fabric at
    construction time — a board with no cable plugged in ignores this
    section apart from validation.
    """

    mac_kind: str = "100g"
    mac_addr: str = "fpga0"
    tile: int = 1

    def __post_init__(self) -> None:
        if self.mac_kind not in ("10g", "100g"):
            raise ConfigError(f"unknown MAC kind {self.mac_kind!r}")
        if not self.mac_addr:
            raise ConfigError("mac_addr must be non-empty")
        if self.tile < 0:
            raise ConfigError(f"net tile must be >= 0, got {self.tile}")


@dataclass(frozen=True)
class FaultConfig:
    """Fault containment policy and monitor enforcement."""

    policy: FaultPolicy = FaultPolicy.FAIL_STOP
    #: monitor checks on/off (off = the A2 "no OS" ablation)
    enforce: bool = True


@dataclass(frozen=True)
class SystemConfig:
    """Everything an :class:`ApiarySystem` needs besides runtime objects.

    Runtime *objects* — the engine, the shared Ethernet fabric, a span
    recorder, a design-rule checker — stay constructor arguments: they are
    shared live state, not settings, and two systems legitimately pass the
    same instance.
    """

    part_name: str = "VU29P"
    seed: int = 0
    noc: NocConfig = field(default_factory=NocConfig)
    mem: MemConfig = field(default_factory=MemConfig)
    net: NetConfig = field(default_factory=NetConfig)
    fault: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        tiles = self.noc.tiles
        if self.mem.enabled and self.mem.tile >= tiles:
            raise ConfigError(
                f"mem tile {self.mem.tile} outside the {tiles}-tile grid"
            )

    def validate_attached(self) -> None:
        """Extra checks that only apply when a fabric is plugged in.

        Called by :class:`ApiarySystem` when it is constructed with a
        fabric — an unattached board never loads the network service, so
        its ``net`` section is inert and may point anywhere.
        """
        tiles = self.noc.tiles
        if self.net.tile >= tiles:
            raise ConfigError(
                f"net tile {self.net.tile} outside the {tiles}-tile grid"
            )
        if self.mem.enabled and self.mem.tile == self.net.tile:
            raise ConfigError(
                f"mem and net services both placed on tile {self.mem.tile}"
            )

    # -- presets ----------------------------------------------------------

    @classmethod
    def figure1(cls) -> "SystemConfig":
        """The configuration Figure 1 of the paper draws.

        A 3x2 grid with the memory service on tile 0, the network service
        on tile 1, and four slots left for the two applications.
        """
        return cls(noc=NocConfig(width=3, height=2),
                   mem=MemConfig(tile=0), net=NetConfig(tile=1))

    # -- derivation helpers ------------------------------------------------

    def with_mac(self, mac_addr: str) -> "SystemConfig":
        """This config with a different fabric address (cluster members)."""
        return replace(self, net=replace(self.net, mac_addr=mac_addr))
