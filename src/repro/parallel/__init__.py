"""Domain decomposition and parallel execution.

The paper's optimized Delaunay pipeline is a C++/CGAL/OpenMP implementation
whose speedup "scaled with the number of processing units".  This package
provides the Python equivalent: split a reconstruction's query points into
spatial chunks (:func:`chunk_indices`, :func:`split_grid`) and map work over
a process pool (:class:`ParallelExecutor`) with a serial fallback when only
one worker is available — the pattern recommended by the HPC-Python
guidance this repo follows (vectorize inside a worker, decompose across
workers).
"""

from repro.parallel.chunking import aligned_chunks, chunk_indices, split_grid, GridChunk
from repro.parallel.executor import ParallelExecutor, usable_cpus
from repro.parallel.reconstruct import parallel_reconstruct

__all__ = [
    "aligned_chunks",
    "chunk_indices",
    "split_grid",
    "GridChunk",
    "ParallelExecutor",
    "parallel_reconstruct",
    "usable_cpus",
]
