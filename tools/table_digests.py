"""Digests of freshly built NT*(X) Hom tables, one line per build.

    python3 tools/table_digests.py > digests.txt

Builds every builtin space at every word bound from 1 to its
DEFAULT_MAX_LEN + 1, then every connected four-point and five-point T0
space at bound 10, and prints `<space> <bound> <digest>` for each: the
sha256 of the sorted `table_to_json`, or the error the build raised.  Two
checkouts whose outputs are equal build the same tables and refuse the
same bounds with the same messages.  Each build's wall time goes to stderr.
The package and the space enumerator of the tests are imported from the
checkout that holds this file.
"""

import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conftest import connected_t0_spaces  # noqa: E402
from fktor.finspace import BUILTIN_NAMES, builtin_space  # noqa: E402
from fktor.ntcat import (DEFAULT_MAX_LEN, CategoryError, SpaceCategory,  # noqa: E402
                         _presentation, hom_closure, table_to_json)
from fktor.zexact import ZExactError  # noqa: E402


def digest(pres, designator, bound) -> str:
    try:
        table = hom_closure(pres, max_len=bound)
    except (CategoryError, ZExactError) as e:  # the message is the result
        return f"{type(e).__name__}: {e}"
    sc = SpaceCategory(pres.space, pres, table, designator)
    text = json.dumps(table_to_json(sc), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def builds():
    for name in BUILTIN_NAMES:
        for bound in range(1, DEFAULT_MAX_LEN[name] + 2):
            yield name, builtin_space(name), bound
    for n in (4, 5):
        for X in connected_t0_spaces(n):
            yield X.name, X, 10


def main():
    presentations = {}
    for name, X, bound in builds():
        start = time.perf_counter()
        if name not in presentations:
            presentations[name] = _presentation(X)
        print(name, bound, digest(*presentations[name], bound), flush=True)
        print(f"{name} {bound}: {time.perf_counter() - start:.2f} s",
              file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
