"""Function-entry recorder: which functions under ``src/`` does no run enter?

    python tools/funcs.py run [--src DIR] OUT -- ARGS...   # python ARGS...
    python tools/funcs.py report [--src DIR] OUT           # never entered

``run`` executes ``ARGS`` the way ``python ARGS`` would (a script path, or
``-m module ...``) under a profile hook, and appends every code object
under ``--src`` (default ``src``) the first time it is entered to
``OUT/<pid>.txt``.  Each line is written as it is found and a forked child
reopens its own file, so forked boards that leave through ``os._exit``
lose nothing.  ``report`` lists every ``def`` under ``--src`` that no file
in ``OUT`` names.  Run it once per run set (tier-1, benchmarks, examples,
``perf.worker`` per workload and mode) into the same ``OUT``.
"""

import argparse
import ast
import os
import runpy
import sys


def _record(out, src):
    seen, fh = set(), [None]

    def reopen():
        fh[0] = open(os.path.join(out, f"{os.getpid()}.txt"), "a", buffering=1)

    def hook(frame, event, _arg):
        try:  # a hook that raises is uninstalled without a word
            code = frame.f_code
            if event == "call" and code not in seen:
                seen.add(code)
                path = os.path.realpath(code.co_filename)
                if path.startswith(src + os.sep):
                    fh[0].write(f"{path}:{code.co_firstlineno}\n")
        except Exception:
            pass

    os.makedirs(out, exist_ok=True)
    reopen()
    os.register_at_fork(after_in_child=reopen)
    sys.setprofile(hook)
    # pytest-benchmark unhooks the profiler around every pedantic body
    sys.setprofile = lambda _fn: None


def _defs(src):
    for root, _dirs, files in os.walk(src):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        first = min([node.lineno] + [d.lineno for d in
                                                     node.decorator_list])
                        yield path, first, node.name


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("run", "report"))
    parser.add_argument("out")
    parser.add_argument("--src", default="src")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    src = os.path.realpath(opts.src)
    if opts.command == "run":
        args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
        _record(opts.out, src)
        # sys.path[0] as ``python ARGS`` would set it
        if args[0] == "-m":
            sys.argv = args[1:]
            sys.path.insert(0, os.getcwd())
            runpy.run_module(args[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = args
            sys.path.insert(0, os.path.dirname(os.path.abspath(args[0])))
            runpy.run_path(args[0], run_name="__main__")
        return 0
    entered = set()
    for name in os.listdir(opts.out):
        with open(os.path.join(opts.out, name)) as fh:
            entered.update(line.strip() for line in fh)
    dead = [(p, n, f) for p, n, f in _defs(src) if f"{p}:{n}" not in entered]
    for path, line, name in dead:
        print(f"{os.path.relpath(path)}:{line}: {name}")
    print(f"{len(dead)} function(s) never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
