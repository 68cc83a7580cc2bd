"""The video-processing pipeline application (Section 2's running example).

Deployment helpers for:

* the encode→compress(→crypto) composition pipeline, including the
  third-party compressor with OS-managed memory (D9);
* the replicated encoder with an internal load balancer, the paper's
  "replicated accelerator with internal load balancing for higher
  bandwidth" (Section 4.1) and the D8 scale-out experiment.
"""

from __future__ import annotations

from typing import Dict, List

from repro.accel.base import Accelerator
from repro.accel.compress import Compressor
from repro.accel.crypto import CryptoAccel
from repro.accel.video import VideoEncoder
from repro.hw.resources import ResourceVector

__all__ = ["LoadBalancer", "deploy_pipeline", "deploy_replicated_encoder"]

#: the pipeline's name: its stages are ``{PIPELINE}.enc`` / ``.zip`` /
#: ``.aes`` behind endpoints ``app.{PIPELINE}.<stage>``
PIPELINE = "pipe"


class LoadBalancer(Accelerator):
    """Round-robin request distributor over replica endpoints.

    Forwards each incoming request to the next replica and relays the
    replica's response back to the original caller.  Requests fan out
    concurrently (one in flight per arrival, not one at a time), so the
    replicas genuinely run in parallel.
    """

    COST = ResourceVector(logic_cells=12_000, bram_kb=64, dsp_slices=0)
    PRIMITIVES = {"lut_logic": 10_000, "fifo": 4}

    def __init__(self, name: str, replicas: List[str]):
        super().__init__(name)
        self.replicas = list(replicas)
        self._next = 0
        self.forwarded = 0
        self.replica_counts: Dict[str, int] = {r: 0 for r in replicas}

    def main(self, shell):
        while True:
            msg = yield shell.recv()
            replica = self.replicas[self._next % len(self.replicas)]
            self._next += 1
            self.forwarded += 1
            self.replica_counts[replica] += 1
            shell.spawn(f"fwd{msg.mid}", self._forward(shell, msg, replica))

    def _forward(self, shell, msg, replica):
        resp = yield shell.call(replica, msg.op, payload=msg.payload,
                                payload_bytes=msg.payload_bytes)
        yield shell.reply(msg, payload=resp.payload,
                          payload_bytes=resp.payload_bytes)


def deploy_pipeline(system, nodes: List[int], with_crypto: bool = False,
                    third_party_compressor: bool = True):
    """Deploy encode -> compress [-> crypto] across ``nodes``.

    Returns ``(stages, started_events)``.  Grants exactly the SEND
    capabilities the pipeline edges need — nothing more (least privilege).
    """
    needed = 3 if with_crypto else 2
    if len(nodes) < needed:
        raise ValueError(f"pipeline needs {needed} nodes, got {len(nodes)}")
    enc_ep = f"app.{PIPELINE}.enc"
    zip_ep = f"app.{PIPELINE}.zip"
    aes_ep = f"app.{PIPELINE}.aes"

    compressor = Compressor(f"{PIPELINE}.zip",
                            downstream=aes_ep if with_crypto else None,
                            use_dram_dictionary=third_party_compressor)
    encoder = VideoEncoder(f"{PIPELINE}.enc", downstream=zip_ep)
    stages = [(nodes[0], encoder, enc_ep), (nodes[1], compressor, zip_ep)]
    if with_crypto:
        stages.append((nodes[2], CryptoAccel(f"{PIPELINE}.aes"), aes_ep))

    started = []
    for node, accel, endpoint in stages:
        started.append(system.start_app(node, accel, endpoint=endpoint))
    # pipeline edges
    system.mgmt.grant_send(f"tile{nodes[0]}", zip_ep)
    if with_crypto:
        system.mgmt.grant_send(f"tile{nodes[1]}", aes_ep)
    return [s[1] for s in stages], started


def deploy_replicated_encoder(system, lb_node: int, replica_nodes: List[int],
                              name_prefix: str = "enc"):
    """Deploy N encoder replicas behind a load balancer.

    Returns ``(balancer, replicas, started_events)``.  The balancer's
    endpoint is ``app.{name_prefix}.lb``.
    """
    replica_eps = [f"app.{name_prefix}.r{i}" for i in range(len(replica_nodes))]
    replicas = [VideoEncoder(f"{name_prefix}.r{i}")
                for i in range(len(replica_nodes))]
    started = []
    for node, accel, endpoint in zip(replica_nodes, replicas, replica_eps):
        started.append(system.start_app(node, accel, endpoint=endpoint))
    balancer = LoadBalancer(f"{name_prefix}.lb", replicas=replica_eps)
    started.append(system.start_app(lb_node, balancer,
                                    endpoint=f"app.{name_prefix}.lb"))
    for endpoint in replica_eps:
        system.mgmt.grant_send(f"tile{lb_node}", endpoint)
    return balancer, replicas, started
