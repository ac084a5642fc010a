"""Worker that computes reference results (see ``check.References``).

Reads a pickled list of ``(spec, path)`` pairs from stdin, computes each
spec's canonical reference with ``check.compute_reference`` and writes it
as JSON to its path.  Prints a pickled ``{index: traceback}`` of the
pairs that failed to stdout.

Started by ``check.References.compute_missing`` with the environment
``run.py`` prepared; not meant to be run by hand.
"""

import json
import os
import pickle
import sys
import traceback

import check

if __name__ == "__main__":
    errors = {}
    for index, (spec, path) in enumerate(pickle.load(sys.stdin.buffer)):
        try:
            result = check.compute_reference(spec)
        except Exception:
            errors[index] = traceback.format_exc()
            continue
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(result, fh)
        os.replace(tmp, path)
    sys.stdout.buffer.write(pickle.dumps(errors))
