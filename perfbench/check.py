"""Correctness check: every simulated statistic must equal the reference's.

Results are reduced to a canonical form (``RunResult.to_dict()`` per core,
plus ``global_cycles`` for mixes) in which floats are written with
``float.hex``, so equality is bit-exact.  The reference comes from a
different implementation than the run it checks:

- runs on the compiled kernel are checked against the pure-Python kernel
  (``repro/kernel/pykernel.py``, the executable spec);
- pollution-recording runs, which take the object-model loop, are
  checked against the compiled kernel on the same spec without recording.

References are computed in worker processes (reference.py), which are
waited for before the check goes on, and cached per spec fingerprint.  The fingerprint salts in the simulator's source, so a
changed simulator never reads an old reference.

Both sides of that comparison still share trace generation, object
construction, Python prefetcher training and the multi-core scheduler.
So every run is also checked against ``pins.json``: digests of the
canonical results, committed with the benchmark, of every single-core
cell any seed can draw and of the default seed's mixes, plus digests of
the three logs a pollution-recording run produces, which no second
implementation computes.  ``pin.py`` regenerates the file after an
intended change to the simulated model.
"""

import dataclasses
import hashlib
import json
import math
import numbers
import pickle
import subprocess
import sys
from pathlib import Path

from repro.engine import compute, configure
from repro.engine.specs import MixSpec
from repro.workloads.catalog import WORKLOADS

#: How a reference is computed: engine kernel setting and the spec change.
PY_SPEC = "py-spec"
COMPILED_NO_RECORDING = "compiled-no-recording"

#: The committed digests (see :class:`Pins`).
PINS_FILE = Path(__file__).resolve().parent / "pins.json"
#: The script a reference worker process runs.
WORKER = Path(__file__).resolve().parent / "reference.py"


def canonical(result):
    """Bit-exact, JSON-ready form of a ``RunResult`` or mix result."""
    if hasattr(result, "per_core"):
        return {
            "per_core": [_encode(core.to_dict()) for core in result.per_core],
            "global_cycles": _encode(result.global_cycles),
        }
    return _encode(result.to_dict())


def digest(value):
    """sha256 of a JSON-ready value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def log_digests(result):
    """Length and digest of each log a pollution-recording run returns."""
    logs = {
        "pollution_events": [[e.ordinal, e.victim_line] for e in result.pollution_events],
        "demand_log": result.demand_log,
        "prefetch_fill_log": result.prefetch_fill_log,
    }
    return {
        name: {"entries": len(entries), "sha256": digest(_encode(entries))}
        for name, entries in logs.items()
    }


def _encode(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    raise TypeError(f"cannot compare a {type(value).__name__}")


def first_difference(expected, got, path=""):
    """Path of the first field where two canonical results differ, or None."""
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in sorted(set(expected) | set(got)):
            where = f"{path}.{key}" if path else key
            if key not in expected or key not in got:
                return where
            diff = first_difference(expected[key], got[key], where)
            if diff is not None:
                return diff
        return None
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return f"{path}[len]"
        for i, (e, g) in enumerate(zip(expected, got)):
            diff = first_difference(e, g, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    if type(expected) is not type(got) or expected != got:
        return path or "<root>"
    return None


def field_at(result, path):
    """The value at a ``first_difference`` path (for error messages)."""
    value = result
    for part in path.replace("[", ".[").split("."):
        if not part:
            continue
        if part.startswith("["):
            index = part[1:-1]
            if index == "len":
                return len(value)
            value = value[int(index)]
        else:
            value = value.get(part)
    return value


#: Worker processes computing missing references (the host has 2 cores).
REFERENCE_WORKERS = 2


def reference_kind(spec):
    """Which independent implementation checks ``spec``."""
    if getattr(spec, "record_pollution", False):
        return COMPILED_NO_RECORDING
    return PY_SPEC


def compute_reference(spec):
    """Canonical reference result for ``spec``, computed in this process.

    Runs in a worker process (reference.py) started by
    :meth:`References.compute_missing`.
    Refuses a result that did not run on the kernel its kind names.
    """
    from spans import KernelLog

    if reference_kind(spec) == PY_SPEC:
        kernel = "py"
    else:
        kernel = "compiled"
        spec = dataclasses.replace(spec, record_pollution=False)
    configure(kernel=kernel)
    log = KernelLog()
    with log.run() as kinds:
        if isinstance(spec, MixSpec):
            result = compute.simulate_mix(spec)
        else:
            trace = WORKLOADS[spec.workload].build(spec.length)
            result = compute.simulate_run(spec, trace)
    if kinds != [kernel]:
        raise RuntimeError(f"reference for {spec} ran on {kinds or ['object']}, not {kernel}")
    return canonical(result)


class References:
    """Reference results, cached on disk under the spec's fingerprint."""

    def __init__(self, cache_dir):
        self.cache_dir = cache_dir
        self.computed = 0
        self.loaded = 0

    def _path(self, spec):
        key = f"{spec.fingerprint()}|{reference_kind(spec)}"
        return self.cache_dir / f"{hashlib.sha256(key.encode()).hexdigest()[:32]}.json"

    def compute_missing(self, specs):
        """Compute the uncached references of ``specs`` in worker processes.

        Every worker has ended when this returns, on any path out of it.
        Returns ``{spec: traceback}`` for each reference that failed.
        """
        missing = [spec for spec in dict.fromkeys(specs) if not self._path(spec).exists()]
        if not missing:
            return {}
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        jobs = [(spec, str(self._path(spec))) for spec in missing]
        chunks = [jobs[i::REFERENCE_WORKERS] for i in range(min(REFERENCE_WORKERS, len(jobs)))]
        workers = []
        errors = {}
        try:
            for chunk in chunks:
                proc = subprocess.Popen(
                    [sys.executable, str(WORKER)],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
                workers.append((chunk, proc))
                proc.stdin.write(pickle.dumps(chunk))
                proc.stdin.close()
            for chunk, proc in workers:
                out = proc.stdout.read()
                if proc.wait() != 0:
                    for spec, _ in chunk:
                        errors[spec] = f"reference worker exited with code {proc.returncode}"
                    continue
                for index, error in pickle.loads(out).items():
                    errors[chunk[index][0]] = error
                self.computed += sum(1 for spec, _ in chunk if spec not in errors)
        finally:
            for _, proc in workers:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
        return errors

    def load(self, spec):
        """The cached canonical reference for ``spec``."""
        with open(self._path(spec)) as fh:
            self.loaded += 1
            return json.load(fh)


def pin_key(spec):
    """Name of a cell in ``pins.json``: the spec fields the grids set."""
    if isinstance(spec, MixSpec):
        workloads = ",".join(spec.workloads)
        return f"{spec.mix_name}({workloads})/{spec.scheme}@{spec.length_per_core}"
    suffix = "+pollution" if spec.record_pollution else ""
    return f"{spec.workload}/{spec.scheme}@{spec.length}{suffix}"


def pin_record(canonical_result, logs):
    """What ``pins.json`` holds for one cell."""
    record = {"result": digest(canonical_result)}
    if logs is not None:
        record["logs"] = logs
    return record


class Pins:
    """Committed digests of reference results, keyed by :func:`pin_key`."""

    def __init__(self, path=PINS_FILE):
        with open(path) as fh:
            self.runs = json.load(fh)["runs"]

    def mismatch(self, spec, canonical_result, logs, required):
        """Why a result disagrees with its pin, or None when it agrees.

        A cell without a pin passes unless ``required``.
        """
        pinned = self.runs.get(pin_key(spec))
        if pinned is None:
            return "no pinned digest" if required else None
        diff = first_difference(pinned, pin_record(canonical_result, logs))
        if diff is None:
            return None
        return f"pinned {diff} differs"


def self_test(sample):
    """True when one-field perturbations of ``sample`` are caught and named.

    Perturbs the first integer field by one and the first float field by
    one unit in the last place, so both comparison paths are exercised.
    """
    core = sample["per_core"][0] if "per_core" in sample else sample
    int_field = next(k for k, v in core.items() if type(v) is int)
    float_field = next(k for k, v in core.items() if isinstance(v, str))
    for field in (int_field, float_field):
        perturbed = json.loads(json.dumps(sample))
        target = perturbed["per_core"][0] if "per_core" in perturbed else perturbed
        value = target[field]
        if isinstance(value, int):
            target[field] = value + 1
        else:
            target[field] = math.nextafter(float.fromhex(value), math.inf).hex()
        diff = first_difference(sample, perturbed)
        if diff is None or not diff.endswith(field):
            return False
    return True
