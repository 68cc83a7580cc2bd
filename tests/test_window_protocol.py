"""The window protocol's own contract: per-board ids, board ops, dead workers.

``tests/test_pdes.py`` pins sequential ≡ parallel end to end; these tests
pin the pieces that identity now rests on — message ids are a property of
the board (not of the process), a board answers exactly six ops, and a
worker that dies or hangs surfaces as a typed error naming the board.
"""

import os
import signal

import pytest

from repro.cluster import backend as backend_module
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig, ObsConfig
from repro.errors import SimulationError
from repro.loadgen import ScenarioRunner

WINDOWED = ("sequential", "parallel")


def _sealed(backend, n_fpgas=2):
    cluster = Cluster(ClusterConfig(n_fpgas=n_fpgas, backend=backend))
    cluster.boot()
    cluster.seal()
    return cluster


class TestPerBoardMessageIds:
    def test_traced_shared_rerun_is_span_identical(self, scale_small):
        runs = []
        for _ in range(2):
            runner = ScenarioRunner(
                scale_small, config=ClusterConfig(obs=ObsConfig(tracing=True)))
            runner.run()
            runs.append(runner.diagnostics["spans"].dump())
        assert runs[0] and runs[0] == runs[1]

    def test_boards_allocate_independently(self):
        names = []
        for _ in range(2):  # the second cluster is not the process's first
            cluster = Cluster()
            for system in cluster.systems:
                shell = system.tiles[2].shell
                names.append([shell.call("svc.mem", "mem.free",
                                         payload={"sid": 0}).name
                              for _ in range(2)])
        assert names == [["tile2.call#1", "tile2.call#2"]] * 4


class TestBoardOps:
    @pytest.mark.parametrize("backend", WINDOWED)
    def test_only_the_six_ops_are_reachable(self, backend):
        cluster = _sealed(backend)
        try:
            # not an op, a public non-op method, a private helper
            for name in ("reboot", "dispatch", "_drain_faults"):
                with pytest.raises(
                        SimulationError,
                        match=rf"board 1.*unknown board op '{name}'"):
                    cluster._backend.boards[1].call(name)
            # the board (and its worker) survives a refused op
            cluster.run(until=cluster.now + 1_000)
        finally:
            cluster.shutdown()


class TestLostWorker:
    def test_killed_worker_is_a_typed_error(self):
        cluster = _sealed("parallel")
        survivor, victim = (b._worker for b in cluster._backend.boards)
        try:
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises(SimulationError,
                               match=r"board 1: worker .* op 'window'"):
                cluster.run(until=cluster.now + 1_000)
        finally:
            cluster.shutdown()
        assert not survivor.is_alive()
        assert not victim.is_alive()

    def test_hung_worker_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(backend_module, "REPLY_TIMEOUT_S", 0.2)
        cluster = _sealed("parallel")
        hung = cluster._backend.boards[0]._worker
        try:
            os.kill(hung.pid, signal.SIGSTOP)
            with pytest.raises(SimulationError,
                               match=r"board 0: worker sent no reply"):
                cluster.run(until=cluster.now + 1_000)
        finally:
            os.kill(hung.pid, signal.SIGCONT)
            cluster.shutdown()
        assert not hung.is_alive()


class TestFailedExchange:
    def test_first_board_failure_is_sticky(self):
        cluster = Cluster(ClusterConfig(backend="parallel"))
        cluster.boot()

        def boom():
            yield 100
            raise RuntimeError("boom")

        cluster.systems[0].engine.process(boom(), name="boom")
        cluster.seal()
        backend = cluster._backend
        workers = [b._worker for b in backend.boards]
        try:
            with pytest.raises(SimulationError,
                               match=r"board 0 op 'window' failed") as first:
                cluster.run(until=cluster.now + 1_000)
            # board 1's window reply was never read: without the memory a
            # collect would silently return that stale reply instead
            for later in (lambda: cluster.run(until=cluster.now + 1_000),
                          lambda: cluster.run_until(
                              [cluster.engine.event("never")]),
                          cluster.stats_snapshots,
                          lambda: backend._collect(1),
                          lambda: cluster.partition_fpga(1),
                          lambda: cluster.kill_fpga(1)):
                with pytest.raises(SimulationError) as again:
                    later()
                assert again.value is first.value
        finally:
            cluster.shutdown()
        assert not any(w.is_alive() for w in workers)
