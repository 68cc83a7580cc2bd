"""``tools/funcs.py``: the function-entry recorder lists exactly the
functions no run entered — including past a fork and past a caller that
unhooks the profiler (pytest-benchmark does, around every pedantic body)."""

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
