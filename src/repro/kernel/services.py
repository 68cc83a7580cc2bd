"""Apiary OS services: memory and networking.

Figure 1 shows OS services occupying tile slots just like user accelerators
("The accelerator slot can be used either by an OS service such as
networking or a user accelerator"), so both services here are
:class:`~repro.accel.base.Accelerator` subclasses speaking the same shell
API — new services can be added without touching the kernel, the
microkernel property the paper wants.

* :class:`MemoryService` — segment allocation with capability minting,
  capability-granting for composition, and read/write access to the DRAM
  model (Section 4.6).
* :class:`NetworkService` — the portable network endpoint: binds ports for
  tiles, runs the reliable transport, and hides the 10G/100G MAC interface
  divergence behind :class:`MacAdapter` (Sections 2 and 4.3; experiment
  D10).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional

from repro.accel.base import Accelerator
from repro.cap.capability import Rights
from repro.cap.captable import CapabilityStore
from repro.errors import (
    AccessDenied,
    AllocationError,
    CapabilityError,
    ConfigError,
    ProtocolError,
    SegmentFault,
)
from repro.hw.resources import ResourceVector
from repro.kernel.message import MemAccess, Message
from repro.mem.allocator import FirstFitAllocator
from repro.mem.dram import Dram
from repro.mem.segment import SegmentTable
from repro.net.ethernet import HundredGigMac, TenGigMac
from repro.net.frame import EthernetFrame
from repro.net.transport import BOARD_TIMEOUT, BOARD_WINDOW, ReliableMux

__all__ = [
    "HEARTBEAT_PORT",
    "MemoryService",
    "NetworkService",
    "MacAdapter",
    "TenGigAdapter",
    "HundredGigAdapter",
]

#: what a ``mem.alloc`` capability grants its holder: read, write, and the
#: right to derive a grant for a peer
ALLOC_RIGHTS = Rights.rw() | Rights.GRANT


class MemoryService(Accelerator):
    """The memory tile: allocator + segment table + capability minting.

    Request API (all via shell messages to this service's endpoint):

    ``mem.alloc {size, label}``  -> ``{cap, sid, size}``
    ``mem.free {sid}`` + cap     -> ack (revokes the whole cap subtree)
    ``mem.read MemAccess`` + cap -> data (payload_bytes = nbytes)
    ``mem.write MemAccess`` + cap-> ack
    ``mem.grant {to, rights}`` + cap -> ``{cap}`` for the grantee

    Reads/writes were already validated by the *sender's* monitor SPU; the
    service re-validates (defense in depth) and then pays DRAM time.
    """

    COST = ResourceVector(logic_cells=30_000, bram_kb=512, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 24_000, "bram": 128, "fifo": 8}

    def __init__(self, name: str, dram: Dram, caps: CapabilityStore,
                 segments: SegmentTable):
        super().__init__(name)
        self.dram = dram
        self.caps = caps
        self.segments = segments
        self.allocator = FirstFitAllocator(dram.capacity_bytes)
        self._backing: Dict[int, bytearray] = {}  # sid -> stored bytes
        self._extent_of: Dict[int, int] = {}      # sid -> base
        self.requests_served = 0

    def main(self, shell):
        shell.serve(self._on_request)
        yield from ()  # a process generator; the service lives in callbacks

    def _on_request(self, msg: Message) -> None:
        """A read or write runs as one process (DRAM banks overlap); any
        other op runs now and replies one heap entry, its latency, later."""
        shell = self.shell
        self.requests_served += 1
        handler = self._HANDLERS.get(msg.op)
        if handler is None:
            shell.reply(msg, payload=f"unknown op {msg.op!r}", error=True)
            return
        span = shell.span_open(msg, f"service:{msg.op}", op=msg.op)
        incarnation = shell.incarnation

        def answer(out) -> None:
            if shell.incarnation != incarnation:
                return
            if not isinstance(out, BaseException):
                shell.span_close(span)
                shell.reply(msg, payload=out[0], payload_bytes=out[1])
            elif isinstance(out, self._REFUSALS):
                shell.span_close(span, error=type(out).__name__)
                shell.reply(msg, payload=f"{type(out).__name__}: {out}",
                            error=True)
            else:
                raise out

        if msg.op in ("mem.read", "mem.write"):
            access = shell.engine.process(handler(self, msg))
            access.done.add_callback(lambda done: answer(done.value))
            return
        try:
            latency, *out = handler(self, msg)
        except self._REFUSALS as err:
            return answer(err)
        shell.engine.schedule(latency, lambda _: answer(out))

    # -- handlers: (latency, payload, bytes); read/write: (payload, bytes) --

    def _alloc(self, msg: Message):
        size = int(msg.payload["size"])
        label = msg.payload.get("label", "")
        base, rounded = self.allocator.allocate(size)
        seg = self.segments.create(base=base, size=rounded, owner=msg.src,
                                   label=label)
        try:
            cap = self.caps.mint(msg.src, ALLOC_RIGHTS,
                                 segment_id=seg.sid)
        except CapabilityError:  # the caller's table is full: undo
            self.segments.free(seg.sid)
            self.allocator.free(base)
            raise
        self._backing[seg.sid] = bytearray()
        self._extent_of[seg.sid] = base
        return 4, {"cap": cap, "sid": seg.sid, "size": rounded}, 16

    def _free(self, msg: Message):
        sid = int(msg.payload["sid"])
        if msg.cap is None:
            raise AccessDenied("mem.free needs the segment capability")
        cap = self.caps.lookup(msg.src, msg.cap, Rights.READ)
        if cap.segment_id != sid:
            raise AccessDenied(f"capability does not cover segment {sid}")
        self.caps.revoke(cap.cid)
        self.segments.free(sid)
        self.allocator.free(self._extent_of.pop(sid))
        self._backing.pop(sid, None)
        return 4, "freed", 0

    def _locate(self, msg: Message, is_write: bool):
        if msg.cap is None:
            raise AccessDenied(f"{msg.op} needs a memory capability")
        if not isinstance(msg.payload, MemAccess):
            raise ProtocolError(f"{msg.op} payload must be a MemAccess")
        needed = Rights.WRITE if is_write else Rights.READ
        cap = self.caps.lookup(msg.src, msg.cap, needed)
        if cap.segment_id is None:
            raise AccessDenied("not a memory capability")
        seg = self.segments.get(cap.segment_id)
        physical = seg.translate(msg.payload.offset, msg.payload.nbytes)
        return seg, physical

    def _write(self, msg: Message):
        seg, physical = self._locate(msg, is_write=True)
        access: MemAccess = msg.payload
        yield from self.dram.access(physical, access.nbytes, is_write=True,
                                    trace_id=msg.trace_id,
                                    parent_span=msg.span_id)
        store = self._backing[seg.sid]
        end = access.offset + access.nbytes
        if len(store) < end:
            store.extend(b"\x00" * (end - len(store)))
        data = access.data
        if isinstance(data, (bytes, bytearray)):
            store[access.offset:end] = data[: access.nbytes].ljust(
                access.nbytes, b"\x00"
            )
        return "written", 0

    def _read(self, msg: Message):
        seg, physical = self._locate(msg, is_write=False)
        access: MemAccess = msg.payload
        yield from self.dram.access(physical, access.nbytes, is_write=False,
                                    trace_id=msg.trace_id,
                                    parent_span=msg.span_id)
        store = self._backing[seg.sid]
        end = access.offset + access.nbytes
        data = bytes(store[access.offset:end]).ljust(access.nbytes, b"\x00")
        return data, access.nbytes

    def _grant(self, msg: Message):
        if msg.cap is None:
            raise AccessDenied("mem.grant needs the parent capability")
        to_tile = msg.payload["to"]
        rights = msg.payload["rights"]
        child = self.caps.derive(msg.src, msg.cap, to_tile, rights)
        return 2, {"cap": child}, 8

    _HANDLERS = {"mem.alloc": _alloc, "mem.free": _free, "mem.read": _read,
                 "mem.write": _write, "mem.grant": _grant}
    #: what a request can be refused with: each becomes an error reply
    _REFUSALS = (AllocationError, CapabilityError, SegmentFault,
                 ProtocolError, ConfigError)


# -- MAC adapters: one OS-side driver per divergent vendor interface -------------


class MacAdapter:
    """The uniform MAC interface the network service programs against.

    This is the "additional infrastructure" of Section 2, written once in
    the OS instead of once per application.
    """

    gbps: int = 0
    mac_addr: str = ""

    def bring_up(self):
        """Process generator: perform the core-specific reset/bring-up."""
        raise NotImplementedError

    #: cycles to wait before offering a refused frame again
    RETRY_CYCLES = 10

    def transmit(self, frame: EthernetFrame) -> bool:
        """Hand one frame to the core; ``False`` = it is full, offer the
        frame again ``RETRY_CYCLES`` later."""
        raise NotImplementedError

    def on_rx(self, callback) -> None:
        raise NotImplementedError


class TenGigAdapter(MacAdapter):
    """Drives the three-step reset protocol of the 10G core."""

    def __init__(self, mac: TenGigMac):
        self.mac = mac
        self.gbps = mac.GBPS
        self.mac_addr = mac.mac_addr

    def bring_up(self):
        self.mac.assert_reset()
        self.mac.release_reset()
        yield TenGigMac.RESET_CYCLES
        self.mac.enable_tx_rx()

    def transmit(self, frame: EthernetFrame) -> bool:
        self.mac.send_frame(frame)  # the core queues without bound
        return True

    def on_rx(self, callback) -> None:
        self.mac.set_rx_callback(callback)


class HundredGigAdapter(MacAdapter):
    """Drives the register/alignment protocol of the 100G core."""

    POLL_CYCLES = 100

    def __init__(self, mac: HundredGigMac):
        self.mac = mac
        self.gbps = mac.GBPS
        self.mac_addr = mac.mac_addr
        #: ``tx_push`` already is the uniform ``transmit`` (``False`` = the
        #: FIFO is full), so it is bound as is: no adapter frame per frame
        self.transmit = mac.tx_push

    def bring_up(self):
        self.mac.write_reg("cfg_tx_enable", 1)
        self.mac.write_reg("cfg_rx_enable", 1)
        while self.mac.read_reg("stat_aligned") == 0:
            yield self.POLL_CYCLES

    def on_rx(self, callback) -> None:
        self.mac.on_rx(callback)


#: the board heartbeat's port: the network tile drops what arrives there,
#: and the transport ACK it sends on receipt is the answer — no response,
#: no NoC message.  No tile can bind it.
HEARTBEAT_PORT = 0


class NetworkService(Accelerator):
    """The networking tile: ports, reliable transport, MAC driving.

    Request API:

    ``net.bind {port}``                       -> ack; rx for that port is
        forwarded to the binder as ``net.rx`` events.
    ``net.send {dst_mac, port, data, nbytes}``-> ack when ACKed by the peer
        transport.
    ``net.post {dst_mac, port, data, nbytes}``-> nothing: an event, sent
        like ``net.send`` and never answered.

    One :class:`ReliableMux` holds a connection per peer MAC, multiplexing
    all ports — mirroring how hardware stacks share one connection table.
    """

    COST = ResourceVector(logic_cells=45_000, bram_kb=384, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 36_000, "bram": 96, "fifo": 16}

    def __init__(self, name: str, adapter: MacAdapter):
        super().__init__(name)
        self.adapter = adapter
        self._ports: Dict[int, str] = {}  # port -> tile endpoint
        self.mux: Optional[ReliableMux] = None  # built at bring-up
        self._engine = None
        self.frames_forwarded = 0
        self.rx_unbound = 0

    def main(self, shell):
        self._engine = shell.engine
        self.mux = ReliableMux(
            shell.engine, self._tx_frame, self.adapter.mac_addr,
            self._on_payload, window=BOARD_WINDOW, timeout=BOARD_TIMEOUT,
            name=self.name)
        yield from self.adapter.bring_up()
        self.adapter.on_rx(self.mux.deliver_frame)
        shell.serve(self._on_request)

    def _on_request(self, msg: Message) -> None:
        """A bind is answered at once, a send once the peer ACKs it, a post
        never."""
        shell = self.shell
        span = shell.span_open(msg, f"service:{msg.op}", op=msg.op)
        if msg.op == "net.bind":
            port = int(msg.payload["port"])
            if port == HEARTBEAT_PORT or \
                    self._ports.get(port, msg.src) != msg.src:
                shell.span_close(span, error="PortTaken")
                shell.reply(msg, payload=f"port {port} taken", error=True)
                return
            self._ports[port] = msg.src
            shell.span_close(span)
            shell.reply(msg, payload="bound")
        elif msg.op in ("net.send", "net.post"):
            body = msg.payload
            on_acked = None
            if msg.op == "net.send":
                incarnation = shell.incarnation

                def sent(_arg) -> None:
                    if shell.incarnation == incarnation:
                        shell.span_close(span)
                        shell.reply(msg, payload="sent")

                # answered one ring hop after the ACK
                on_acked = partial(self._engine.schedule, 0, sent)
            self.mux.peer(body["dst_mac"]).send(
                {"port": body["port"], "data": body["data"],
                 "src_mac": self.adapter.mac_addr},
                payload_bytes=int(body["nbytes"]), on_acked=on_acked,
            )
            if on_acked is None:
                shell.span_close(span)
        else:
            shell.span_close(span, error="UnknownOp")
            shell.reply(msg, payload=f"unknown op {msg.op!r}", error=True)

    def _tx_frame(self, frame: EthernetFrame) -> None:
        """Transport -> MAC: straight into the core when it takes the
        frame; a process polls only for one a full core refused."""
        if not self.adapter.transmit(frame):
            self._engine.process(self._tx_retry(frame),
                                 name=f"{self.name}.tx")

    def _tx_retry(self, frame: EthernetFrame):
        while not self.adapter.transmit(frame):
            yield self.adapter.RETRY_CYCLES

    def _on_payload(self, peer_mac: str, payload: Dict[str, Any]) -> None:
        """Deliver a transport payload to the tile bound to its port as a
        ``net.rx`` post; the monitor's FIFO egress queue keeps each
        peer's payloads in order on the NoC.  A heartbeat is dropped: its
        transport ACK was the answer."""
        port = payload.get("port")
        if port == HEARTBEAT_PORT:
            return
        dst = self._ports.get(port)
        if dst is None:
            self.rx_unbound += 1
            return
        self.frames_forwarded += 1
        self.shell.post(dst, "net.rx", payload=payload)
