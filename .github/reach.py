"""List the diffeoflow functions that the ``cli_outputs.py`` commands never call.

    python3 .github/reach.py SRC_DIR

Runs every command of ``.github/cli_outputs.py`` in this process, through
``diffeoflow.cli.main`` and in a temporary working directory, under
``sys.setprofile``. It then prints each module-level function and method
defined in ``SRC_DIR/diffeoflow`` whose code never ran, with its line count,
and the totals, in two groups: the functions pinned by name in the
``TARGETS`` table of ``perfbench/tracer.py`` (read as a literal, not
imported), which only a benchmark change can remove, and the unpinned rest.
A function that runs only as a closure of another counts with its parent.
The script uses the standard library only and exits 0 whatever the commands
return: it reports, it gates nothing.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import sys
import tempfile
from pathlib import Path


def _functions(package) -> dict:
    """``{code object: (qualified name, line count)}`` of the package's functions."""
    out = {}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name == "__main__":  # importing it would run the CLI
            continue
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        owners = [module] + [c for c in vars(module).values()
                             if inspect.isclass(c) and c.__module__ == module.__name__]
        for owner in owners:
            for value in vars(owner).values():
                if isinstance(value, (staticmethod, classmethod)):
                    value = value.__func__
                elif isinstance(value, property):
                    value = value.fget
                if not (inspect.isfunction(value) and value.__module__ == module.__name__):
                    continue
                try:
                    lines = len(inspect.getsourcelines(value)[0])
                except OSError:  # generated, e.g. a dataclass __init__
                    continue
                out[value.__code__] = (f"{info.name}.{value.__qualname__}", lines)
    return out


def _pinned(tracer: Path) -> set:
    """``module.attribute`` names of the ``TARGETS`` table in ``tracer``."""
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {f"{module}.{path}" for _, module, path, _ in ast.literal_eval(node.value)}
    return set()


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import diffeoflow
    from cli_outputs import COMMANDS
    from diffeoflow import cli

    functions = _functions(diffeoflow)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, args in COMMANDS:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    sys.setprofile(profile)
                    try:
                        code = cli.main([*args, "--out", f"{name}/out"])
                    finally:
                        sys.setprofile(None)
                print(f"{name}: exit {code}")
        finally:
            os.chdir(here)
    never = sorted(v for k, v in functions.items() if k not in called)
    print(f"never called: {len(never)} of {len(functions)} functions, "
          f"{sum(n for _, n in never)} lines")
    pinned = _pinned(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
    for title, group in (("pinned by perfbench/tracer.py TARGETS",
                          [v for v in never if v[0] in pinned]),
                         ("unpinned", [v for v in never if v[0] not in pinned])):
        print(f"  {title}: {len(group)} functions, {sum(n for _, n in group)} lines")
        for qualname, lines in group:
            print(f"    {qualname} ({lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
