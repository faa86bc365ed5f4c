"""Count the functions in src/pyreid that no CLI command enters.

Runs `pyreid.cli.main` in this process for gen-data (desk data), train
(desk, --no-triplet, and --profile paper --pyramid-mask 000001), eval
--mask 000001, a one-mask one-seed ablate and export-curves, with a profile
hook on this thread and on every thread started meanwhile, so that work on
the conv and ranking helper threads counts too. It then prints the number
and the qualified names of the named functions (`def`s, methods and nested
`def`s; not lambdas or comprehensions) defined in src/pyreid that were never
entered, and exits 1 if that set differs from the list in README.md, which
gives each function's reason for staying. At least two worker threads are
used whatever the CPU count, so the list does not depend on the machine.

Usage: python tests/unreached.py   (stdlib only; imports pyreid from src/)
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

entered: set = set()


def _profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


def _key(code) -> tuple:
    return (os.path.realpath(code.co_filename), code.co_firstlineno,
            getattr(code, "co_qualname", code.co_name))


def _defined_functions(path: Path):
    """Code objects of the named functions defined in one source file."""
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        for const in code.co_consts:
            if inspect.iscode(const):
                todo.append(const)
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    yield const


def _documented() -> set:
    """The `module.qualname` that opens each bullet of the README's list,
    which follows the paragraph naming this script."""
    section = (ROOT / "README.md").read_text().split("`python tests/unreached.py`", 1)[1]
    return {line.split("`")[1] for line in section.split("\n#", 1)[0].splitlines()
            if line.startswith("- `")}


def main() -> int:
    # profiling starts before the import, so class bodies count as entered
    sys.setprofile(_profile)
    threading.setprofile(_profile)
    try:
        from pyreid import autograd, cli

        autograd._WORKERS = max(autograd._WORKERS, 2)
        with tempfile.TemporaryDirectory() as tmp:
            data, desk = f"{tmp}/data", f"{tmp}/desk"
            commands = [
                ["gen-data", "--num-ids", "40", "--imgs-per-id", "10", "--severity", "0.3",
                 "--seed", "0", "--out", data],
                ["train", "--dataset", data, "--epochs", "2", "--out", desk],
                ["train", "--dataset", data, "--epochs", "2", "--no-triplet", "--seed", "1",
                 "--out", f"{tmp}/no_triplet"],
                ["train", "--dataset", data, "--epochs", "1", "--profile", "paper",
                 "--pyramid-mask", "000001", "--seed", "5", "--out", f"{tmp}/paper_global"],
                ["eval", "--checkpoint", f"{desk}/checkpoint.pyrt", "--dataset", data,
                 "--mask", "000001", "--out", f"{tmp}/eval"],
                ["ablate", "--dataset", data, "--masks", "101001", "--seeds", "4",
                 "--epochs", "1", "--out", f"{tmp}/ablate"],
                ["export-curves", "--trace", f"{desk}/trace.csv", "--out", f"{tmp}/curves"],
            ]
            for argv in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(argv)
                if status != 0:
                    print(f"error: pyreid {argv[0]} exited {status}", file=sys.stderr)
                    return 1
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    seen = {_key(code) for code in entered}
    package = Path(cli.__file__).resolve().parent
    unreached = [f"{path.stem}.{getattr(code, 'co_qualname', code.co_name)}"
                 for path in sorted(package.glob("*.py"))
                 for code in sorted(_defined_functions(path), key=lambda c: c.co_firstlineno)
                 if _key(code) not in seen]
    print(f"{len(unreached)} src/pyreid functions no command enters:", *unreached)
    documented = _documented()
    if set(unreached) != documented:
        print(f"error: README.md's list is out of date; not listed: "
              f"{sorted(set(unreached) - documented)}, listed but entered: "
              f"{sorted(documented - set(unreached))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
