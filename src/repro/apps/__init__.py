"""Application layer: deployable multi-accelerator applications.

The Section 2 workloads assembled from library accelerators: the video
pipeline (with composition and scale-out variants), the KV service
deployable across all systems under test, and the two demo handlers (echo,
per-shard kv) every cluster scenario deploys.
"""

from repro.apps.kv_service import KV_PORT, deploy_kv_on_apiary, make_kv_handler
from repro.apps.service import (
    PortedService,
    echo_handler_factory,
    kv_handler_factory,
)
from repro.apps.video_pipeline import (
    LoadBalancer,
    deploy_pipeline,
    deploy_replicated_encoder,
)

__all__ = [
    "PortedService",
    "echo_handler_factory",
    "kv_handler_factory",
    "make_kv_handler",
    "deploy_kv_on_apiary",
    "KV_PORT",
    "LoadBalancer",
    "deploy_pipeline",
    "deploy_replicated_encoder",
]
