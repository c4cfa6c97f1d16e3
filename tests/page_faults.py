"""Minor page faults of a long run, counted in an interpreter that imports only ``kljn``.

Importing pytest alone allocates and frees enough to raise the sizes at
which glibc's malloc maps and trims memory, and a process with raised
sizes hides a kernel that maps fresh pages on every call. So
``tests/test_blocks.py`` runs :func:`later_trial_faults` in a fresh
interpreter: ``python -c "import page_faults; print(page_faults.later_trial_faults())"``
with ``src`` and ``tests`` on ``PYTHONPATH``.
"""

import resource

from kljn import BlockAttack, NoiseSpec, ResistorPair
from kljn.engine import run_blocks


def minor_faults(run) -> int:
    """Minor page faults this process takes while ``run()`` runs: the fresh pages it touches."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def later_trial_faults(trials: int = 4, samples: int = 1_000_000) -> list[int]:
    """Minor faults of each uniform trial of a ``run_blocks`` run after its first one."""
    spec_low, spec_high = NoiseSpec("uniform", 1.0), NoiseSpec("uniform", 2.0)
    eve = BlockAttack(ResistorPair(1.0, 4.0), spec_low, spec_high, 0.01)
    run = run_blocks(eve, samples, range(trials), 1, lambda coins: (~coins[:, 0], coins[:, 0]))
    next(run)
    return [minor_faults(lambda: next(run)) for _ in range(trials - 1)]
