"""``tools/funcs.py``: the function-entry recorder lists exactly the
functions no run entered — including past a fork and past a caller that
unhooks the profiler (pytest-benchmark does, around every pedantic body);
``params`` lists exactly the defaulted parameters no call passes and the
defaulted dataclass fields nothing sets; ``imports`` lists exactly the
module-level imports their module never reads."""

import os
import subprocess
import sys
import textwrap

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "funcs.py")

MODULE = textwrap.dedent("""\
    import os
    import sys


    def in_child():
        return 1


    def after_unhook():
        return 2


    def never():
        return 3


    if __name__ == "__main__":
        pid = os.fork()
        if pid == 0:
            in_child()
            os._exit(0)
        os.waitpid(pid, 0)
        sys.setprofile(None)
        after_unhook()
""")


def test_only_the_never_called_function_is_listed(tmp_path):
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    (src / "mod.py").write_text(MODULE)

    def tool(*args):
        return subprocess.run([sys.executable, TOOL, *args], check=True,
                              capture_output=True, text=True).stdout

    tool("run", "--src", str(src), str(out), "--", str(src / "mod.py"))
    assert len(os.listdir(out)) == 2  # one file per pid
    listed = tool("report", "--src", str(src), str(out)).splitlines()
    assert [line.rsplit(": ", 1)[1] for line in listed[:-1]] == ["never"]
    assert listed[-1] == "1 function(s) never entered"


PARAMS_SRC = textwrap.dedent("""\
    class Base:
        def __init__(self, size=1, seed=2):
            pass


    class Child(Base):
        def grow(self, by=1, twice=False):
            pass


    def inner(mode="a"):
        pass


    def outer(mode="a", *, loud=False):
        inner(mode=mode)


    def front():
        outer(loud=True)
""")

PARAMS_CALLS = textwrap.dedent("""\
    from mod import Child, outer


    def use(opts):
        Child(size=3).grow(2)
        Child().grow(**opts)
        outer()
""")


def test_params_lists_every_default_no_call_passes(tmp_path):
    """Keyword and positional passes, a subclass constructing its base,
    and forwarding: ``outer`` hands ``inner`` its own ``mode``, which no
    call passes, so both stay listed; a ``**kwargs`` call is flagged."""
    src, calls = tmp_path / "src", tmp_path / "calls"
    src.mkdir()
    calls.mkdir()
    (src / "mod.py").write_text(PARAMS_SRC)
    (calls / "use.py").write_text(PARAMS_CALLS)
    lines = subprocess.run(
        [sys.executable, TOOL, "params", "--src", str(src), str(src),
         str(calls)], check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    listed = [line.rsplit(": ", 1)[1] for line in lines[:-2]
              if not line.startswith(" ")]
    assert listed == ["Base.__init__(seed)", "Child.grow(twice)",
                      "inner(mode)", "outer(mode)"]
    flagged = [line for line in lines if line.startswith("    ? ")]
    assert len(flagged) == 1 and flagged[0].endswith("use.py:6: *args/**kwargs")
    assert lines[-2:] == [
        "7 defaulted parameter(s) on non-nested functions; 4 passed by no "
        "call (1 with a site to check by hand)",
        "0 defaulted dataclass field(s); 0 set by no call, replace(...) or "
        "store (0 with a site to check by hand)"]


FIELDS_SRC = textwrap.dedent("""\
    from dataclasses import dataclass, field, replace


    @dataclass(frozen=True)
    class Config:
        name: str
        width: int = 4
        depth: int = 2
        hops: int = 1
        tags: tuple = field(default_factory=tuple)
        cache: dict = field(default_factory=dict, init=False)


    @dataclass
    class Counters:
        seen: int = 0
        hops: int = 0


    def bump(counters):
        counters.seen += 1
        counters.hops = 3
""")

FIELDS_CALLS = textwrap.dedent("""\
    from dataclasses import replace

    from mod import Config


    def use(cfg):
        Config("a", 8)
        return replace(cfg, tags=("x",))
""")


def test_params_lists_every_dataclass_field_nothing_sets(tmp_path):
    """A positional or keyword constructor argument and a ``replace(...)``
    keyword set a field; a store sets a mutable dataclass's field but not
    a frozen one's, and an ``init=False`` field is no setting at all."""
    src, calls = tmp_path / "src", tmp_path / "calls"
    src.mkdir()
    calls.mkdir()
    (src / "mod.py").write_text(FIELDS_SRC)
    (calls / "use.py").write_text(FIELDS_CALLS)
    lines = subprocess.run(
        [sys.executable, TOOL, "params", "--src", str(src), str(src),
         str(calls)], check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    fields = lines[lines.index(next(line for line in lines
                                    if "defaulted parameter" in line)) + 1:]
    assert [line.split(": ", 1)[1] for line in fields[:-1]] == [
        "Config.depth", "Config.hops"]
    assert fields[0].endswith("mod.py:8: Config.depth")
    assert fields[-1] == ("6 defaulted dataclass field(s); 2 set by no call, "
                          "replace(...) or store (0 with a site to check by "
                          "hand)")


IMPORTS_SRC = textwrap.dedent("""\
    from __future__ import annotations

    import os
    import os.path as osp
    from typing import Dict, List, Optional

    from pkg import Exported, Hinted, Unused

    __all__ = ["Exported"]


    def size(path: "Optional[Hinted]") -> Dict:
        return {path: os.sep}
""")


def test_imports_lists_every_module_level_import_never_read(tmp_path):
    """Names read in code, in ``__all__`` and in a string annotation count
    as used; ``__future__`` imports never count; the tool exits 1 when it
    lists any import and 0 when none is left."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(IMPORTS_SRC)
    run = subprocess.run([sys.executable, TOOL, "imports", "--src", str(src)],
                         capture_output=True, text=True)
    lines = run.stdout.splitlines()
    assert run.returncode == 1
    assert [line.split(": ", 1)[1] for line in lines[:-1]] == [
        "osp", "List", "Unused"]
    assert lines[0].endswith("mod.py:4: osp")
    assert lines[-1] == "3 unused import(s) in 1 module(s)"
    (src / "mod.py").write_text(IMPORTS_SRC.replace(
        "import os.path as osp\n", "").replace(", List", "").replace(
        ", Unused", ""))
    run = subprocess.run([sys.executable, TOOL, "imports", "--src", str(src)],
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "0 unused import(s) in 0 "
                                               "module(s)\n")


def test_calls_counts_defs_under_repro_by_layer_and_events():
    """``count_calls`` books every entry into a ``def`` under ``repro/``
    to its layer — a generator resume is an entry too — and every other
    frame to its kind: a generator expression under ``repro/``, a
    dataclass's generated ``__init__``, the standard library, the caller's
    own code.  ``Event`` objects are counted as they are built (a
    process's ``done`` is one)."""
    import textwrap

    from repro.cluster.directory import ServiceSpec
    from repro.sim import Engine
    from tools.funcs import FRAME_KINDS, count_calls

    def waiter(done):
        yield done

    def run():
        engine = Engine()
        done = engine.event()
        engine.schedule(5, done.succeed)
        engine.process(waiter(done))
        engine.run()
        # a generated __init__, then a def whose genexpr is entered once
        ServiceSpec("svc", sharded=False).instance("svc#0")
        textwrap.dedent("x")  # one frame of the standard library

    layers, frames, events = count_calls(run)
    assert events == 2
    assert {layer: n for layer, n in layers.items() if n} == {
        "sim": 21, "cluster": 1}
    assert tuple(frames) == FRAME_KINDS
    # ``run`` once, ``waiter`` started and resumed
    assert frames == {"<...>": 1, "generated": 1, "stdlib": 1, "other": 3}
