"""The layer tagger: Process / bound method / partial / closure."""

import functools

from perf.trace import Tracer, kind_of, layer_of, owner_code, tracing

from repro.noc import Mesh2D, Network
from repro.noc.topology import Port
from repro.sim import Engine


def _compiled(filename, source, name):
    namespace = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def test_process_callbacks_belong_to_the_generator_they_drive():
    tracer = Tracer()
    with tracing(tracer):
        engine = Engine()
        network = Network(engine, Mesh2D(2, 2))
        tracer.begin()
        network.interface(0).send(3, payload_bytes=96)
        engine.run(until=60)
        tracer.end()
    summary = tracer.summary()
    # Process._resume and the timer hops are written in sim/engine.py,
    # but they drive router and NI generators: none is booked to sim
    assert summary["noc.events"] > 0 and summary["sim.events"] == 0
    assert summary["noc.router_run.events"] > 0
    assert summary["noc.ni_injector.events"] > 0
    assert summary["noc.ni_ejector.events"] > 0
    assert summary["noc.link_callbacks.events"] > 0
    hot = sum(summary[f"noc.{kind}.events"] for kind in
              ("router_run", "ni_injector", "ni_ejector", "link_callbacks"))
    assert hot == summary["noc.events"]


def test_bound_methods_and_partials_belong_to_their_module():
    engine = Engine()
    network = Network(engine, Mesh2D(2, 2))
    accept = network.router(0).accept_flit
    assert layer_of(owner_code(accept)) == "noc"
    wrapped = functools.partial(functools.partial(accept, Port.LOCAL))
    assert owner_code(wrapped) is owner_code(accept)
    assert kind_of(owner_code(wrapped)) == "noc.link_callbacks"
    timeout = engine.timeout(3)
    assert layer_of(owner_code(timeout.succeed)) == "sim"
    assert kind_of(owner_code(timeout.succeed)) is None


def test_closures_belong_to_the_file_that_wrote_them():
    make = _compiled(
        "/x/src/repro/net/frame.py",
        "def transmit():\n    def arrive(_arg):\n        pass\n"
        "    return arrive\n", "transmit")
    arrive = make()
    assert layer_of(owner_code(arrive)) == "net"
    assert kind_of(owner_code(arrive)) == "net.fabric_arrive"
    policy = _compiled("/x/src/repro/policy.py",
                       "def retry(_arg):\n    pass\n", "retry")
    assert layer_of(owner_code(policy)) == "policy"
    replic = _compiled("/x/src/repro/replic/chain.py",
                       "def ack(_arg):\n    pass\n", "ack")
    assert layer_of(owner_code(replic)) == "other"
    assert layer_of(owner_code(lambda _arg: None)) == "loadgen"
    assert layer_of(owner_code(print)) == "other"


def test_tracing_counts_every_event_and_restores_the_engine():
    original = Engine.schedule
    tracer = Tracer()
    with tracing(tracer):
        engine = Engine()

        def ticker():
            for _ in range(4):
                yield 2

        engine.process(ticker())
        tracer.begin()
        engine.schedule(1, lambda _arg: None)
        engine.run(until=20)
        tracer.end()
    assert Engine.schedule is original
    summary = tracer.summary()
    # the generator is written in this file: the benchmark's own load
    assert summary["loadgen.events"] == sum(
        summary[f"{layer}.events"] for layer in
        ("sim", "noc", "kernel", "net", "cluster", "loadgen", "obs",
         "policy", "other"))
    # 1 start + 4 x (timer hop + resume hop) + the lambda
    assert summary["loadgen.events"] == 10
    assert summary["sim.schedules_heap"] == 5
    assert summary["sim.schedules_ring"] == 4
    assert summary["sim.loop_s"] >= 0.0
    assert summary["cluster.backend.engine_s"] >= summary["loadgen.self_s"]
