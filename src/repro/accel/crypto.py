"""Block-cipher accelerator — a generic composable stage.

Encryption is the other classic "common function" used when composing
pipelines (compress-then-encrypt before shipping to storage).  The model
charges per-16B-block cost and keeps per-session key schedules as state.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.accel.base import Accelerator
from repro.hw.resources import ResourceVector

__all__ = ["CryptoAccel", "CRYPTO_CYCLES_PER_BLOCK"]

#: One AES-128 round-pipelined block per cycle at steady state; count setup.
CRYPTO_CYCLES_PER_BLOCK = 1
KEY_SCHEDULE_CYCLES = 44


class CryptoAccel(Accelerator):
    """Encrypts/decrypts payloads per session.

    Ops:
    * ``crypto.open {session}`` — derive a key schedule (setup cost).
    * ``crypto.encrypt {session, bytes}`` / ``crypto.decrypt`` — per-block
      cost; unknown sessions are rejected (state is real here).
    * ``compress.out`` — pipeline input: encrypt with the default session
      (the last stage of a pipeline: nothing is forwarded).
    """

    COST = ResourceVector(logic_cells=40_000, bram_kb=64, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 34_000, "bram": 16}
    TOGGLE_RATE = 0.35

    def __init__(self, name: str):
        super().__init__(name)
        self._sessions: Dict[Any, Dict[str, Any]] = {}
        self.blocks_processed = 0

    def main(self, shell):
        self._sessions["default"] = {"ops": 0}
        while True:
            msg = yield shell.recv()
            body = msg.payload if isinstance(msg.payload, dict) else {}
            if msg.op == "crypto.open":
                yield from self._work(KEY_SCHEDULE_CYCLES)
                self._sessions[body.get("session")] = {"ops": 0}
                yield shell.reply(msg, payload={"opened": True})
            elif msg.op in ("crypto.encrypt", "crypto.decrypt"):
                session = body.get("session", "default")
                if session not in self._sessions:
                    yield shell.reply(msg, payload=f"no session {session!r}",
                                      error=True)
                    continue
                yield from self._process(shell, msg, body, session)
            elif msg.op == "compress.out":
                yield from self._process(shell, msg, body, "default")
            else:
                yield shell.reply(msg, payload=f"unknown op {msg.op!r}",
                                  error=True)

    def _process(self, shell, msg, body, session):
        nbytes = int(body.get("bytes", msg.payload_bytes))
        blocks = max(1, (nbytes + 15) // 16)
        yield from self._work(blocks * CRYPTO_CYCLES_PER_BLOCK)
        self.blocks_processed += blocks
        self._sessions[session]["ops"] += 1
        result = dict(body)
        result["bytes"] = nbytes  # ciphertext size == plaintext (block mode)
        yield shell.reply(msg, payload=result, payload_bytes=32)
