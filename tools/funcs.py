"""Function-entry recorder: which functions under ``src/`` does no run enter?

    python tools/funcs.py run [--src DIR] OUT -- ARGS...   # python ARGS...
    python tools/funcs.py report [--src DIR] OUT           # never entered
    python tools/funcs.py params [--src DIR] [ROOT...]     # never passed
    python tools/funcs.py imports [--src DIR]              # never read
    python tools/funcs.py calls [--workload W] [--seed S]  # host calls

``run`` executes ``ARGS`` the way ``python ARGS`` would (a script path, or
``-m module ...``) under a profile hook, and appends every code object
under ``--src`` (default ``src``) the first time it is entered to
``OUT/<pid>.txt``.  Each line is written as it is found and a forked child
reopens its own file, so forked boards that leave through ``os._exit``
lose nothing.  ``report`` lists every ``def`` under ``--src`` that no file
in ``OUT`` names.  Run it once per run set (tier-1, benchmarks, examples,
``perf.worker`` per workload and mode) into the same ``OUT``.

``params`` is static: it lists each defaulted parameter of a non-nested
``def`` under ``--src`` that no call under the ``ROOT``s (default ``src
tests benchmarks examples perf tools``) passes, by keyword or by position.
Calls match by name alone (``f(...)``, ``x.f(...)``; a class name, a
subclass name, ``cls(...)`` or ``super().__init__(...)`` for an
``__init__``), so a shared method name can hide a candidate but never
invent one.  An argument that only forwards the caller's own defaulted
parameter (``f(x=x)``) passes ``x`` exactly when the caller's ``x`` is
passed.  A call of a matching name through ``*args`` / ``**kwargs``, a
``partial(f, ...)`` and a bare reference to the function (a callback) are
listed under the parameter for a check by hand.  A ``@dataclass``'s
defaulted fields are the parameters of its generated ``__init__`` (by
position among its init fields), and a ``replace(...)`` keyword sets the
field of that name on every dataclass that has one, as does a store to an
attribute of that name on a mutable dataclass (``x.field = ...``: state,
not a setting); ``params`` lists the fields nothing sets in a section of
their own.

``imports`` lists each module-level import under ``--src`` whose name the
module never reads (a name in ``__all__`` or in a string annotation is
read), and exits 1 when it lists any.

``calls`` runs one repetition of a ``perf.workloads`` workload (default
``kv_hot``, seed 1; building the cluster included, drawing the inputs
not) under a profile hook and prints how many times it entered a ``def``
under ``repro/``, per layer as ``perf.trace`` names them, and how many
``Event`` objects it built.  Beside those it counts every other Python
frame the repetition entered, by kind: code named ``<...>`` under
``repro/`` (lambdas, generator expressions and, before Python 3.12,
comprehensions), generated code (``<string>``: a dataclass's
``__init__``), the standard library, and any other file; then the total
and the interpreter version.  The per-layer ``def`` counts agree across
interpreters; the frame total does not (3.12 inlines list
comprehensions), so it is recorded, never pinned.  It re-executes itself
with ``PYTHONHASHSEED=0``, as the benchmark runs its workers, so the
counts are exact.
"""

import argparse
import ast
import os
import runpy
import sys
import sysconfig


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


def _parse(root):
    for dirpath, _dirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    yield path, ast.parse(fh.read())


def _defs(src):
    for path, tree in _parse(src):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in
                                             node.decorator_list])
                yield path, first, node.name


ROOTS = ("src", "tests", "benchmarks", "examples", "perf", "tools")


def _callee(node):
    """The last name of a called or referenced expression, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dataclass_fields(node):
    """``(params, lines, frozen)`` for a ``@dataclass`` class node, else
    ``None``: its defaulted init fields as ``(name, position)``, their
    lines, and whether instances are frozen."""
    decorators = [d for d in node.decorator_list
                  if _callee(d.func if isinstance(d, ast.Call) else d)
                  == "dataclass"]
    if not decorators:
        return None
    frozen = any(k.arg == "frozen" and isinstance(k.value, ast.Constant)
                 and k.value.value is True
                 for d in decorators if isinstance(d, ast.Call)
                 for k in d.keywords)
    params, lines, position = [], {}, 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and stmt.simple
                and _callee(getattr(stmt.annotation, "value",
                                    stmt.annotation)) != "ClassVar"):
            continue
        value, kws = stmt.value, {}
        if isinstance(value, ast.Call) and _callee(value.func) == "field":
            kws = {k.arg: k.value for k in value.keywords}
            if (isinstance(kws.get("init"), ast.Constant)
                    and kws["init"].value is False):
                continue
            value = kws.get("default", kws.get("default_factory"))
        if value is not None:
            params.append((stmt.target.id, position))
            lines[stmt.target.id] = stmt.lineno
        position += 1
    return params, lines, frozen


def _params(src):
    """The class bases by name, ``(key, qualname, name, cls, bound,
    params)`` per defaulted non-nested def, the same per dataclass with a
    defaulted field (``name`` is ``None``), its fields' lines by ``(key,
    field)`` and the keys of the mutable dataclasses: ``key`` is ``(path,
    line)``, ``params`` holds ``(name, position or None)`` with the
    position counted after the bound ``self`` / ``cls``."""
    bases, defs, fields, lines, mutable = {}, [], [], {}, set()

    def visit(node, cls, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases[child.name] = {_callee(b) for b in child.bases}
                found = _dataclass_fields(child)
                if found and found[0]:
                    key = (path, child.lineno)
                    fields.append((key, child.name, None, child.name, 0,
                                   found[0]))
                    lines.update(((key, f), n) for f, n in found[1].items())
                    if not found[2]:
                        mutable.add(key)
                visit(child, child.name, path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                static = any(_callee(d) == "staticmethod"
                             for d in child.decorator_list)
                bound = int(cls is not None and not static)
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                params = [(a.arg, i - bound)
                          for i, a in enumerate(positional) if i >= first]
                params += [(a.arg, None) for a, d in
                           zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None]
                if params:
                    qual = f"{cls}.{child.name}" if cls else child.name
                    defs.append(((path, child.lineno), qual, child.name, cls,
                                 bound, params))
            else:
                visit(child, cls, path)

    for path, tree in _parse(src):
        visit(tree, None, os.path.realpath(path))
    return bases, defs, fields, lines, mutable


def _calls(roots, defaulted):
    """Every call and bare function reference under ``roots``, by name,
    and every attribute name stored to (``x.name = ...``).

    A call is ``(where, owner, how, positional, keywords)``: each argument
    is ``None``, or ``(key, name)`` when it forwards a defaulted parameter
    (``defaulted[key]``) of the non-nested def the call sits in."""
    calls, refs, stores = {}, {}, set()

    def source(arg, here):
        if here and isinstance(arg, ast.Name) and arg.id in defaulted[here]:
            return here, arg.id
        return None

    def visit(node, cls, path, here):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, path, here)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (path, child.lineno)
                visit(child, cls, path,
                      here or (key if key in defaulted else None))
                continue
            if not isinstance(child, ast.Call):
                if (isinstance(child, ast.Attribute)
                        and isinstance(child.ctx, ast.Store)):
                    stores.add(child.attr)
                visit(child, cls, path, here)
                continue
            func, args, kws = child.func, child.args, child.keywords
            name, how = _callee(func), None
            if name == "partial" and args:
                name, func, args, how = _callee(args[0]), args[0], args[1:], \
                    "partial"
            if name == "cls" and cls:
                name = cls
            if (name == "__init__" and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Call)
                    and _callee(func.value.func) == "super"):
                name = ("super", cls)
            if how is None and (any(isinstance(a, ast.Starred) for a in args)
                                or any(k.arg is None for k in kws)):
                how = "*args/**kwargs"
            owner = (func.value.id if isinstance(func, ast.Attribute)
                     and isinstance(func.value, ast.Name) else None)
            calls.setdefault(name, []).append((
                f"{path}:{child.lineno}", owner, how,
                [source(a, here) for a in args
                 if not isinstance(a, ast.Starred)],
                {k.arg: source(k.value, here) for k in kws}))
            for arg in child.args + [k.value for k in kws]:
                if isinstance(arg, (ast.Name, ast.Attribute)):
                    refs.setdefault(_callee(arg), []).append(
                        f"{path}:{arg.lineno}")
            visit(child, cls, path, here)

    for root in roots:
        for path, tree in _parse(root):
            visit(tree, None, os.path.realpath(path), None)
    return calls, refs, stores


def params(src, roots):
    """Print every defaulted parameter no call passes and every defaulted
    dataclass field that no call, ``replace(...)`` or attribute store sets,
    then the counts."""
    bases, defs, fields, lines, mutable = _params(src)
    calls, refs, stores = _calls(roots, {key: {p for p, _ in plist}
                                         for key, *_, plist in defs})
    subclasses = {}
    for name in bases:
        seen, todo = {name}, [name]
        while todo:
            parent = todo.pop()
            for child, parents in bases.items():
                if parent in parents and child not in seen:
                    seen.add(child)
                    todo.append(child)
        subclasses[name] = seen
    sites = {}
    for key, _qual, name, cls, bound, _plist in defs + fields:
        if name is None:  # a dataclass: its constructor and replace(...)
            names = subclasses.get(cls, {cls})
            found = [(c, 0) for n in names for c in calls.get(n, ())]
            found += [(c, None) for c in calls.get("replace", ())]
        elif name == "__init__":
            names = subclasses.get(cls, {cls})
            found = [(c, 0) for n in names for c in calls.get(n, ())]
            found += [(c, 0) for n, cs in calls.items() for c in cs
                      if isinstance(n, tuple) and cls in bases.get(n[1], ())]
            found += [(c, 1) for c in calls.get("__init__", ()) if c[1] == cls]
        else:
            names = {name}
            found = [(c, bound if c[1] in bases else 0)
                     for c in calls.get(name, ())]
        sites[key] = names, found

    def passes(call, shift, pname, pos):
        _where, _owner, _how, positional, keywords = call
        if pname in keywords:
            return True, keywords[pname]
        if (shift is not None and pos is not None
                and len(positional) - shift > pos):
            return True, positional[pos + shift]
        return False, None

    # a mutable dataclass's field that code stores to (``x.field = ...``)
    # is state, not a setting
    passed = {(key, pname) for key, *_, plist in fields if key in mutable
              for pname, _pos in plist if pname in stores}
    changed = True
    while changed:
        changed = False
        for key, *_, plist in defs + fields:
            for pname, pos in plist:
                if (key, pname) in passed:
                    continue
                for call, shift in sites[key][1]:
                    hit, via = passes(call, shift, pname, pos)
                    if hit and call[2] is None and (via is None
                                                    or via in passed):
                        passed.add((key, pname))
                        changed = True
                        break

    def report(entries):
        total = listed = to_check = 0
        for key, qual, name, _cls, _bound, plist in entries:
            total += len(plist)
            names, found = sites[key]
            for pname, pos in plist:
                if (key, pname) in passed:
                    continue
                listed += 1
                check = [f"{call[0]}: {call[2]}" for call, _shift in found
                         if call[2]]
                check += [f"{where}: reference" for n in names
                          for where in refs.get(n, ())]
                to_check += bool(check)
                if name is None:
                    print(f"{os.path.relpath(key[0])}:{lines[key, pname]}: "
                          f"{qual}.{pname}")
                else:
                    print(f"{os.path.relpath(key[0])}:{key[1]}: "
                          f"{qual}({pname})")
                for item in check:
                    print(f"    ? {os.path.relpath(item)}")
        return total, listed, to_check

    print("%d defaulted parameter(s) on non-nested functions; %d passed by "
          "no call (%d with a site to check by hand)" % report(defs))
    print("%d defaulted dataclass field(s); %d set by no call, replace(...) "
          "or store (%d with a site to check by hand)" % report(fields))


def _read_names(tree):
    """Every name ``tree`` reads: loads, ``__all__`` entries and the names
    in string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(_callee(t) == "__all__" for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(e.value for e in node.value.elts
                         if isinstance(e, ast.Constant))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                str):
                    try:  # a Literal["..."] string need not be an expression
                        names |= _read_names(ast.parse(sub.value,
                                                       mode="eval"))
                    except SyntaxError:
                        pass
    return names


def imports(src):
    """Print every module-level import no code of its module reads;
    return how many."""
    unused, modules = 0, set()
    for path, tree in _parse(src):
        read = _read_names(tree)
        # an ``if TYPE_CHECKING:`` block's imports are module-level too
        body = [s for stmt in tree.body
                for s in (stmt.body + stmt.orelse if isinstance(stmt, ast.If)
                          else [stmt])]
        for stmt in body:
            if (not isinstance(stmt, (ast.Import, ast.ImportFrom))
                    or getattr(stmt, "module", None) == "__future__"):
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in read:
                    unused += 1
                    modules.add(path)
                    print(f"{os.path.relpath(path)}:{stmt.lineno}: {bound}")
    print(f"{unused} unused import(s) in {len(modules)} module(s)")
    return unused


#: the kinds of frame ``count_calls`` books outside the ``def``s under
#: ``repro/``, in the order ``calls`` prints them
FRAME_KINDS = ("<...>", "generated", "stdlib", "other")


def _frame_kind(code, inside, stdlib, site):
    """The kind of a frame that is not a ``def`` under ``repro/``."""
    path = code.co_filename
    if inside in path:
        return "<...>"
    if path.startswith("<frozen "):
        return "stdlib"
    if path.startswith("<"):
        return "generated"
    if path.startswith(stdlib) and not path.startswith(site):
        return "stdlib"
    return "other"


def count_calls(run):
    """Run ``run()`` under a profile hook; return how many times it
    entered a ``def`` under ``repro/``, by layer as ``perf.trace`` names
    them, how many other Python frames it entered, by kind
    (:data:`FRAME_KINDS`), and how many ``Event`` objects it built."""
    from perf.trace import LAYERS, layer_of
    from repro.sim import Event

    counts = {}

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    layers = dict.fromkeys(LAYERS, 0)
    kinds = dict.fromkeys(FRAME_KINDS, 0)
    inside = f"{os.sep}repro{os.sep}"
    paths = sysconfig.get_paths()
    stdlib = os.path.join(paths["stdlib"], "")
    site = tuple(os.path.join(paths[key], "")
                 for key in ("purelib", "platlib"))
    for code, n in counts.items():
        if inside in code.co_filename and not code.co_name.startswith("<"):
            layers[layer_of(code)] += n
        else:
            kinds[_frame_kind(code, inside, stdlib, site)] += n
    return layers, kinds, counts.get(Event.__init__.__code__, 0)


def calls(workload, seed):
    """Print the exact per-layer call counts, the other frames by kind
    and the ``Event`` count of one repetition of ``workload`` at
    ``seed``."""
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from perf.harness import run_repetition
    from perf.workloads import WORKLOADS

    spec = WORKLOADS[workload]
    inputs = spec.build(seed)
    digest = []
    layers, kinds, events = count_calls(lambda: digest.append(
        run_repetition(spec, inputs, sliced=False)["digest"]))
    print(f"{workload} seed {seed}: report {digest[0][:16]} "
          f"(Python {sys.version.split()[0]})")
    for layer, n in layers.items():
        print(f"  {layer:<9} {n:>9,}")
    defs = sum(layers.values())
    print(f"  {'total':<9} {defs:>9,} calls into repro/")
    what = {"<...>": "frames of repro/ code named <...>",
            "generated": "frames of generated code (<string>)",
            "stdlib": "frames of the standard library",
            "other": "frames of any other file"}
    for kind, n in kinds.items():
        print(f"  {kind:<9} {n:>9,} {what[kind]}")
    print(f"  {'frames':<9} {defs + sum(kinds.values()):>9,} Python frames "
          f"in all")
    print(f"  {'Event':<9} {events:>9,} objects built")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    command = commands.add_parser("calls")
    command.add_argument("--workload", default="kv_hot")
    command.add_argument("--seed", type=int, default=1)
    for name in ("run", "report", "params", "imports"):
        command = commands.add_parser(name)
        command.add_argument("--src", default="src")
        if name == "params":
            command.add_argument("roots", nargs="*", default=list(ROOTS))
        elif name != "imports":
            command.add_argument("out")
        if name == "run":
            command.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    if opts.command == "calls":
        if os.environ.get("PYTHONHASHSEED") != "0":
            os.execve(sys.executable,
                      [sys.executable, os.path.abspath(__file__),
                       *(sys.argv[1:] if argv is None else argv)],
                      dict(os.environ, PYTHONHASHSEED="0"))
        calls(opts.workload, opts.seed)
        return 0
    src = os.path.realpath(opts.src)
    if opts.command == "params":
        params(src, opts.roots)
        return 0
    if opts.command == "imports":
        return int(imports(src) > 0)
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
