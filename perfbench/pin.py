"""Regenerate pins.json, the committed digests every run is checked against.

    python3 perfbench/pin.py

Pinned cells: every single-core cell any seed can draw, for each
single-core grid's schemes and for the ``none`` baseline of the traced
run (all 42 memory-intensive workloads, or the fixed draw of a grid with
``draw_seed``), with the digests of their logs for pollution-recording
cells, and the default seed's mixes.  Each is
simulated on the compiled kernel and must first match its live reference
(check.py) bit-exact; the script exits non-zero, writing nothing, if any
does not.

Run it only after an intended change to the simulated model, and say in
the change log which pins changed and why.
"""

import dataclasses
import json
import sys

import run


def pinned_cells(grids, grid):
    """The cells of ``grid`` that pins.json covers, with their traces."""
    if grid.mixes:
        seed, schemes = run.DEFAULT_SEED, grid.schemes
    else:
        # Single-core grids add the traced run's ``none`` baseline.
        schemes = tuple(dict.fromkeys(grid.schemes + ("none",)))
        seed = grid.draw_seed
        if seed is None:
            seed = run.DEFAULT_SEED
            grid = dataclasses.replace(grid, picks=len(grids.MEMORY_INTENSIVE))
    traces = grids.build_traces(grid, seed)
    st_traces = {} if grid.mixes else traces
    return grids.cells(grid, seed, traces, schemes=schemes), st_traces


def main():
    run._prepare_environment()
    import check
    import grid as grids
    import spans

    kernel_log = spans.KernelLog()
    references = check.References(run.BUILD / "reference")
    pins = {}
    failed = 0
    for name, grid in grids.GRIDS.items():
        cells, st_traces = pinned_cells(grids, grid)
        outcomes, _, _ = run.execute(cells, st_traces, kernel_log)
        errors = references.compute_missing(o.cell.spec for o in outcomes)
        for o in outcomes:
            spec = o.cell.spec
            if o.error is not None or spec in errors:
                print(f"{run._label(spec)}: {o.error or errors[spec]}", file=sys.stderr)
                failed += 1
                continue
            diff = check.first_difference(references.load(spec), o.canonical)
            compiled = o.kernels == ["compiled"] or run._records_pollution(spec)
            if diff is not None or not compiled:
                print(f"{run._label(spec)}: field {diff} or kernels {o.kernels}", file=sys.stderr)
                failed += 1
                continue
            pins[check.pin_key(spec)] = check.pin_record(o.canonical, o.logs)
        print(f"{name}: {len(cells)} cells", file=sys.stderr)
    kernel_log.close()
    if failed:
        sys.exit(f"{failed} cells did not match their references; pins.json unchanged")
    document = {
        "about": "sha256 of canonical results (check.py); regenerate with perfbench/pin.py",
        "runs": dict(sorted(pins.items())),
    }
    with open(check.PINS_FILE, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(pins)} pins to {check.PINS_FILE.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
