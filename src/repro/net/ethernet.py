"""Ethernet MAC IP-core models — deliberately *non-uniform* interfaces.

Section 2: "the interface and reset process for Xilinx's 10 Gbit Ethernet
IP core and 100 Gbit Ethernet IP core are different, so additional
infrastructure is needed to support both."  We reproduce that pain
faithfully: :class:`TenGigMac` and :class:`HundredGigMac` expose different
method names, different reset/bring-up protocols, and different transmit
disciplines — so that the portability experiment (D10) can show the same
application code running unchanged over either, *only* because Apiary's
network service wraps them behind one API (:class:`MacAdapter` implementations
live with the service in :mod:`repro.kernel.services`).

Common behaviour both share: serialization delay at line rate, one frame on
the wire at a time, rx delivery callbacks.  Neither runs a process: a frame
being serialized is one timed engine entry (``_tx_loop``), scheduled by the
call that hands an idle core a frame or by the frame before it.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Callable, Deque, Optional, Tuple

from repro.errors import ProtocolError
from repro.hw.clock import FABRIC_CLOCK
from repro.net.frame import EthernetFabric, EthernetFrame
from repro.sim import Engine, Event

__all__ = ["TenGigMac", "HundredGigMac"]


@lru_cache(maxsize=None)
def _wire_cycles(nbytes: int, gbps: int) -> int:
    """Cycles to serialize an ``nbytes`` frame at ``gbps``, worked out
    once per frame size (a few dozen sizes recur all run)."""
    return FABRIC_CLOCK.cycles_for_bytes(nbytes, gbps)


class TenGigMac:
    """A 10G MAC in the style of the classic XAUI-era cores.

    Bring-up protocol (three distinct steps, order enforced):
      1. ``assert_reset()``
      2. ``release_reset()`` — then wait :attr:`RESET_CYCLES` cycles
      3. ``enable_tx_rx()``

    Transmit: ``send_frame(frame)`` returns an event that succeeds when the
    frame has fully serialized.  One frame at a time; callers queue.
    """

    GBPS = 10
    RESET_CYCLES = 1000

    def __init__(self, engine: Engine, fabric: EthernetFabric, mac_addr: str):
        self.engine = engine
        self.fabric = fabric
        self.mac_addr = mac_addr
        self._state = "powered"  # powered -> reset -> waiting -> ready
        self._reset_done_at = -1
        self._rx_callback: Optional[Callable[[EthernetFrame], None]] = None
        #: the frame being serialized (the head) and those behind it
        self._tx_queue: Deque[Tuple[EthernetFrame, Event]] = deque()
        self.frames_sent = 0
        self.frames_received = 0
        fabric.attach(mac_addr, self._rx)

    # -- the 10G-specific bring-up dance ------------------------------------

    def assert_reset(self) -> None:
        self._state = "reset"

    def release_reset(self) -> None:
        if self._state != "reset":
            raise ProtocolError("10G MAC: release_reset before assert_reset")
        self._state = "waiting"
        self._reset_done_at = self.engine.now + self.RESET_CYCLES

    def enable_tx_rx(self) -> None:
        if self._state != "waiting":
            raise ProtocolError("10G MAC: enable before reset release")
        if self.engine.now < self._reset_done_at:
            raise ProtocolError(
                f"10G MAC: enable at {self.engine.now}, reset settles at "
                f"{self._reset_done_at}"
            )
        self._state = "ready"

    @property
    def ready(self) -> bool:
        return self._state == "ready"

    # -- datapath ---------------------------------------------------------------

    def set_rx_callback(self, cb: Callable[[EthernetFrame], None]) -> None:
        self._rx_callback = cb

    def send_frame(self, frame: EthernetFrame) -> Event:
        if not self.ready:
            raise ProtocolError("10G MAC: send before bring-up complete")
        done = self.engine.event("mac10g.send")
        self._tx_queue.append((frame, done))
        if len(self._tx_queue) == 1:
            self._serialize(frame)
        return done

    def _serialize(self, frame: EthernetFrame) -> None:
        self.engine.schedule(_wire_cycles(frame.nbytes, self.GBPS),
                             self._tx_loop)

    def _tx_loop(self, _arg=None) -> None:
        """The head frame has left the core: it is on the fabric, the
        sender is told, the next one starts."""
        frame, done = self._tx_queue.popleft()
        self.fabric.transmit(frame)
        self.frames_sent += 1
        done.succeed(frame)
        if self._tx_queue:
            self._serialize(self._tx_queue[0][0])

    def _rx(self, frame: EthernetFrame) -> None:
        if not self.ready or self._rx_callback is None:
            return  # frames before bring-up are dropped on the floor
        self.frames_received += 1
        self._rx_callback(frame)


class HundredGigMac:
    """A 100G MAC in the style of the CMAC hard blocks.

    Bring-up is a *register* protocol, nothing like the 10G one:
      1. ``write_reg("cfg_tx_enable", 1)`` and ``write_reg("cfg_rx_enable", 1)``
      2. poll ``read_reg("stat_aligned")`` until it reads 1 (alignment takes
         :attr:`ALIGN_CYCLES` cycles from the first enable write)

    Transmit: segmented interface — ``tx_push(frame)`` is non-blocking and
    returns ``False`` when the short on-core FIFO is full (caller retries),
    instead of the 10G core's blocking event.
    """

    GBPS = 100
    ALIGN_CYCLES = 2500
    TX_FIFO_FRAMES = 4

    def __init__(self, engine: Engine, fabric: EthernetFabric, mac_addr: str):
        self.engine = engine
        self.fabric = fabric
        self.mac_addr = mac_addr
        self._regs = {"cfg_tx_enable": 0, "cfg_rx_enable": 0, "stat_aligned": 0}
        self._align_at = -1
        self._rx_handler: Optional[Callable[[EthernetFrame], None]] = None
        self._fifo: Deque[EthernetFrame] = deque()
        #: the frame being serialized; one pushed into an idle core keeps
        #: its FIFO slot until the end of that cycle
        self._tx_frame: Optional[EthernetFrame] = None
        self._slot_held_at = -1
        self.frames_sent = 0
        self.frames_received = 0
        fabric.attach(mac_addr, self._rx)

    # -- the 100G-specific register protocol -------------------------------------

    def write_reg(self, name: str, value: int) -> None:
        if name not in self._regs or name.startswith("stat_"):
            raise ProtocolError(f"100G MAC: bad register write {name!r}")
        self._regs[name] = value
        if (
            self._regs["cfg_tx_enable"]
            and self._regs["cfg_rx_enable"]
            and self._align_at < 0
        ):
            self._align_at = self.engine.now + self.ALIGN_CYCLES

    def read_reg(self, name: str) -> int:
        if name == "stat_aligned":
            aligned = 0 <= self._align_at <= self.engine.now
            self._regs["stat_aligned"] = int(aligned)
        if name not in self._regs:
            raise ProtocolError(f"100G MAC: bad register read {name!r}")
        return self._regs[name]

    @property
    def ready(self) -> bool:
        """Aligned: what ``stat_aligned`` reads (the datapath checks the
        same condition inline, once per frame)."""
        return 0 <= self._align_at <= self.engine.now

    # -- datapath -------------------------------------------------------------------

    def on_rx(self, handler: Callable[[EthernetFrame], None]) -> None:
        self._rx_handler = handler

    def tx_push(self, frame: EthernetFrame) -> bool:
        """Non-blocking enqueue; ``False`` = FIFO full, retry later."""
        now = self.engine.now
        if not 0 <= self._align_at <= now:
            raise ProtocolError("100G MAC: tx before alignment")
        if len(self._fifo) + (self._slot_held_at == now) \
                >= self.TX_FIFO_FRAMES:
            return False
        if self._tx_frame is None:
            # serialization starts now (inline: one call per frame pushed)
            self._slot_held_at = now
            self._tx_frame = frame
            self.engine.schedule(_wire_cycles(frame.nbytes, self.GBPS),
                                 self._tx_loop)
        else:
            self._fifo.append(frame)
        return True

    @property
    def tx_fifo_space(self) -> int:
        return (self.TX_FIFO_FRAMES - len(self._fifo)
                - (self._slot_held_at == self.engine.now))

    def _tx_loop(self, _arg=None) -> None:
        """The frame has left the core: it is on the fabric, the FIFO's
        head (if any) starts."""
        self.fabric.transmit(self._tx_frame)
        self.frames_sent += 1
        if self._fifo:
            frame = self._tx_frame = self._fifo.popleft()
            self.engine.schedule(_wire_cycles(frame.nbytes, self.GBPS),
                                 self._tx_loop)
        else:
            self._tx_frame = None

    def _rx(self, frame: EthernetFrame) -> None:
        if not 0 <= self._align_at <= self.engine.now \
                or self._rx_handler is None:
            return
        self.frames_received += 1
        self._rx_handler(frame)
