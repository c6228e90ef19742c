"""End-to-end and per-layer benchmark of the M2XFP serving stack.

Run from the repository root::

    python3 perfbench/run.py --workload wire-mixed --seed 1 \
        --seconds 10 --trace 0

The benchmark drives the unmodified program from outside through its
public entry points and prints one JSON result as its last stdout line.
``perfbench/NOTES.md`` records why each workload exists, the layer to
end-to-end prediction table and the findings made while defining it.
"""
