"""Memory of the chunk loop: what one chunk draw allocates, and the page
faults of a batch, for each Dirichlet-process scenario and mode at n = 1000.

For each, it prints a Markdown table row: the attempt's uniforms m (the gamma
uniform left out), beside the truncation level K of each of its processes
(``dirichlet.choose_truncation_level``, which a posterior draw gives its data
size), the rows of a chunk (``scenarios.chunk_rows``), the
traced peak (``tracemalloc``) of one draw of those rows, apart from the
chunk's own uniforms, whose size it prints beside it, and the minor page
faults (``getrusage`` ``ru_minflt``) and wall time of a 1000-draw batch,
after one such batch has warmed the allocator.  Fault counts depend on the
C library's allocator and its trimming, so the probe reports and gates
nothing.

Usage: PYTHONPATH=src python .github/scripts/chunk_probe.py [--seed 7]
"""

import argparse
import resource
import time
import tracemalloc

import numpy as np

from partialid import (
    choose_truncation_level,
    draw_set_batch,
    generate_data,
    make_config,
    prepare_draw,
)
from partialid.rng import UniformRows, seed_words, stream_uniforms
from partialid.scenarios import ROLE_DATA, attempt_stream, chunk_rows

SCENARIOS = ("interval_censored", "errors_in_variables", "interval_regression")
N, DRAWS = 1000, 1000


def attempt_uniforms(draw) -> int:
    """The uniforms an attempt of ``draw`` reads, counted on a row of 0.5s."""
    probe = UniformRows(np.broadcast_to(0.5, (1, 2**40)))
    draw(probe)
    return probe.at


def levels(cfg, mode: str) -> str:
    """The truncation level of each process of an attempt, in the order it draws them."""
    n = cfg.n if mode == "posterior" else 0
    return ", ".join(str(choose_truncation_level(n0, n)) for n0 in np.atleast_1d(cfg.hyper["n0"]))


def chunk_peak(draw, m: int, rows: int, seed: int) -> int:
    """Bytes traced at the peak of one draw of ``rows`` rows, its uniforms made before."""
    u = stream_uniforms(seed_words(seed, np.arange(rows)), m)
    draw(UniformRows(u))  # caches, such as the rho table, are filled outside the trace
    tracemalloc.start()
    try:
        draw(UniformRows(u))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def batch_faults(cfg, mode, data, seed: int) -> tuple[int, float]:
    """Minor faults and seconds of the second of two 1000-draw batches."""
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        draw_set_batch(cfg, mode, DRAWS, seed, dataset=data)
        seconds = time.perf_counter() - start
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    seed = parser.parse_args().seed
    print(f"Chunk probe: n = {N}, {DRAWS} draws, seed {seed}\n")
    print("| scenario | mode | m | K | rows | chunk peak KB | uniforms KB "
          "| batch faults | batch ms |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---:|")
    for sid in SCENARIOS:
        cfg = make_config(sid, n=N)
        data = generate_data(cfg, attempt_stream(seed, ROLE_DATA, 0))
        for mode in ("prior", "posterior"):
            draw = prepare_draw(cfg, mode, data)
            m = attempt_uniforms(draw)
            rows = chunk_rows(m + 1)  # a batch's rows also hold the gamma uniform
            peak = chunk_peak(draw, m, rows, seed)
            faults, seconds = batch_faults(cfg, mode, data, seed)
            print(f"| {sid} | {mode} | {m} | {levels(cfg, mode)} | {rows} | {peak / 1024:.0f} "
                  f"| {rows * m * 8 / 1024:.0f} | {faults} | {seconds * 1e3:.1f} |")


if __name__ == "__main__":
    main()
