"""The modules a cold `import fktor.cli` loads.

    python3 tools/import_counts.py

Starts `python -S -c "import fktor.cli"` in a fresh process, with
PYTHONPATH set to the `src` of the checkout that holds this file, and a
bare `python -S` beside it.  Prints, one per line and sorted, the modules
in `sys.modules` after the import that the bare interpreter does not hold,
then a `total <count>` line.  `-S` leaves out `site`, so what this Python's
site-packages import at start-up does not show.  The list depends only on
the code and the interpreter, so two runs of one checkout print the same
lines, and the lines of two checkouts compare what their imports load.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHOW = "import sys; print('\\n'.join(sorted(sys.modules)))"


def loaded(code: str) -> set:
    """The module names in sys.modules at the end of `python -S -c code`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def main():
    added = sorted(loaded("import fktor.cli; " + SHOW) - loaded(SHOW))
    for name in added:
        print(name)
    print("total", len(added))


if __name__ == "__main__":
    main()
