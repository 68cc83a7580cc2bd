"""``tools/funcs.py``: the function-entry recorder lists exactly the
functions no run entered — including past a fork and past a caller that
unhooks the profiler (pytest-benchmark does, around every pedantic body);
``params`` lists exactly the defaulted parameters no call passes."""

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
    listed = [line.rsplit(": ", 1)[1] for line in lines[:-1]
              if not line.startswith(" ")]
    assert listed == ["Base.__init__(seed)", "Child.grow(twice)",
                      "inner(mode)", "outer(mode)"]
    flagged = [line for line in lines if line.startswith("    ? ")]
    assert len(flagged) == 1 and flagged[0].endswith("use.py:6: *args/**kwargs")
    assert lines[-1] == ("7 defaulted parameter(s) on non-nested functions; "
                         "4 passed by no call (1 with a site to check by "
                         "hand)")
