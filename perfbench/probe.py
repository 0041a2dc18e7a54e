"""Fresh-interpreter probe of set-up cost: import the package, load scenarios.

Run with the package sources on PYTHONPATH:

    PYTHONPATH=src python3 perfbench/probe.py SCENARIO.json [...]

Prints one JSON line: the time of ``import collapsebox``, the number of
modules that import loaded, and the time of the import plus
``collapsebox.cli.load_scenario`` (with family validation) on each file.
"""

import sys
import time


def main(paths) -> None:
    before = len(sys.modules)
    start = time.perf_counter()
    import collapsebox
    imported = time.perf_counter()
    modules = len(sys.modules) - before
    from collapsebox.cli import load_scenario

    for path in paths:
        load_scenario(path, validate=True)
    done = time.perf_counter()

    import json

    print(json.dumps({"import_s": imported - start, "setup_s": done - start,
                      "modules": modules, "file": collapsebox.__file__}))


if __name__ == "__main__":
    main(sys.argv[1:])
