"""Facts about the workloads that the launcher needs before numpy is imported."""

import os

WORKLOADS = ("sweep_kr", "sweep_bags", "library_n8000", "theory_lab")

#: Reference digests exist for data seeds 0..REFERENCE_SEEDS-1; ``--seed s``
#: runs data seed ``s % REFERENCE_SEEDS`` so that every run can be checked.
REFERENCE_SEEDS = 16


def check_threads(name: str) -> int | None:
    """Thread-map width of the untimed pass that checks thread independence.

    Timed repetitions run at one thread.  On a two-CPU virtual machine a
    two-thread pass measured the host's CPU steal more than lidbag: its wall
    time spread by 30% across runs.  ``sweep_bags`` therefore maps its bags
    over two threads (or fewer where the process may use fewer CPUs) once,
    after timing; its output must match the one-thread reference byte for
    byte, which is the C10 property.
    """
    if name == "sweep_bags":
        return min(2, len(os.sched_getaffinity(0)))
    return None


#: Caps the BLAS/OpenMP pools at one thread: lidbag's own thread map is the
#: only parallelism, so no pass uses more threads than ``check_threads``.
THREAD_ENV = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
