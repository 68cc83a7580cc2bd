"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st


@st.composite
def small_scenarios(draw):
    """Small random scenario dicts with a chaos plan: on- and off-barrier
    actions, kills, partitions with and without a heal."""
    n_fpgas = draw(st.integers(2, 3))
    duration = 500 * draw(st.integers(40, 120))
    if draw(st.booleans()):
        service = {"name": "svc", "kind": "kv",
                   "shards": draw(st.integers(1, 3)),
                   "replicas": draw(st.integers(1, 2)),
                   "work_cycles": draw(st.sampled_from([500, 2_000]))}
    else:
        service = {"name": "svc", "kind": "echo",
                   "instances": draw(st.integers(1, 3)),
                   "work_cycles": draw(st.sampled_from([500, 2_000]))}
    tenants = [
        {"name": f"t{i}", "service": "svc",
         "read_fraction": draw(st.sampled_from([0.0, 0.5, 1.0])),
         "arrival": {"process": "poisson", "rate_per_kcycle":
                     draw(st.sampled_from([0.05, 0.3, 1.0]))}}
        for i in range(draw(st.integers(1, 2)))]
    drawn = []
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, duration - 1_001))
        if draw(st.booleans()):
            at -= at % 500  # exactly on a barrier
        board = draw(st.integers(0, n_fpgas - 1))
        action = draw(st.sampled_from(["kill", "partition"]))
        drawn.append({"at": at, "action": action, "board": board})
        if action == "partition" and draw(st.booleans()):
            drawn.append({"at": draw(st.integers(at, duration - 1)),
                          "action": "heal", "board": board})
    # keep what lands, in the order the runner applies it: nothing after
    # a board's kill, no second partition, no heal without one
    chaos, killed, cut = [], set(), set()
    for act in sorted(drawn, key=lambda a: (a["at"], a["board"])):
        board = act["board"]
        if board in killed:
            continue
        if act["action"] == "kill":
            killed.add(board)
        elif act["action"] == "partition":
            if board in cut:
                continue
            cut.add(board)
        elif board in cut:
            cut.remove(board)
        else:
            continue
        chaos.append(act)
    return {
        "name": "random", "seed": draw(st.integers(0, 999)),
        "duration": duration, "n_fpgas": n_fpgas,
        "start_at": 1_500_000, "drain": 60_000,
        "services": [service], "tenants": tenants, "chaos": chaos,
        "slos": [{"name": "availability", "service": "svc",
                  "objective": 0.5}],
    }
