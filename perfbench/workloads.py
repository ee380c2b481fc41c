"""The benchmark's workloads: fixed lists of sandlab manifests.

Each workload is a list of (name, manifest text) pairs.  The benchmark seed
only chooses the manifests' own ``seed`` keys; sizes and kinds are fixed, so
every seed asks the program for the same kind and amount of work.  The
program receives nothing but the manifest text.

Why each workload exists (see NOTES.md for the layer table):

* ``spectral`` runs the sampled and exact spectral experiments.  Its time
  goes to noise sampling, batched n-d FFTs and the long-range kernel; it does
  no toppling and no growth.
* ``topple`` runs stabilizations: one long nearest-neighbour run, a
  long-range run that does an FFT per step, a d=1 run and many short
  critical runs.  Its time goes to ``stabilize``; it bypasses batched
  sampling.
* ``growth`` runs the box growth models and the obstacle solver.  It uses no
  torus FFT, so it is the workload on which a spectral or toppling change
  must not move.
"""

from __future__ import annotations

import random

SPECTRAL = (
    # d=3 mean odometer: batched 3-d FFTs over sampled replicates.
    ("mean-odometer-d3", "kind = mean-odometer\nd = 3\nn = 24, 48, 96\nsamples = 24\n"),
    ("mean-odometer-d2", "kind = mean-odometer\nd = 2\nn = 32, 64, 128, 256\nsamples = 60\n"),
    # 2000 samples keep the f/f2 agreement criterion from flipping often.
    ("variance-white",
     "kind = variance\nd = 2\nn = 16, 32, 64\nf = cos 1 0\nf2 = sin 1 1\nsamples = 2000\n"),
    ("variance-correlated",
     "kind = variance\nd = 2\nn = 16, 32, 64\nf = cos 1 0\nsamples = 1000\n"
     "sigma = correlated\ndelta = 0.25\n"),
    # Stable noise goes through the two-draw sampler.  With fewer samples the
    # doubled test function's characteristic function can sink into the noise.
    ("charfun-cauchy", "kind = charfun\nd = 2\nn = 32\nalpha = 1.0\nf = cos 1 0\nsamples = 10000\n"),
    ("kernel-decay-lr",
     "kind = kernel-decay\nd = 3\nn = 32\noperator = lr\nalpha = 1.0\nr = 1, 2\n"),
    ("kernel-decay-nn", "kind = kernel-decay\nd = 5\nn = 32\nr = 1, 2, 3\n"),
)

TOPPLE = (
    # One long run; also writes both field snapshots and a heatmap.
    ("topple-nn-d2", "kind = topple\nd = 2\nn = 32\nheatmap = true\n"),
    # Long-range toppling transforms the whole field on every step.
    ("topple-lr-d2", "kind = topple\nd = 2\nn = 24\noperator = lr\nalpha = 1.0\n"),
    ("topple-nn-d1", "kind = topple\nd = 1\nn = 96\n"),
    # Density 1.0 is critical, so both outcomes occur and runs really topple;
    # at 0.5 every site starts stable and at 1.5 the mass test refuses all.
    ("density-probe",
     "kind = density-probe\nd = 2\nn = 16\ndensity = 1.0\ntrials = 40\nexpect = none\n"),
    ("odometer-lr", "kind = odometer\nd = 2\nn = 64\noperator = lr\nalpha = 1.0\n"),
)

GROWTH = (
    ("idla", "kind = idla\nparticles = 8000\nd = 2\ntrials = 2\n"),
    ("rotor", "kind = rotor\nparticles = 4000\nd = 2\n"),
    ("point-source", "kind = point-source\nmass = 4000\nd = 2\n"),
    ("obstacle-ball",
     "kind = obstacle-shape\nd = 2\nh = 0.04\nbox = 2.0\nsource = ball 0.5 4.0\n"),
)

WORKLOADS = {"spectral": SPECTRAL, "topple": TOPPLE, "growth": GROWTH}


def with_seeds(manifests, seed: int) -> list[tuple[str, str]]:
    """Append a ``seed`` key drawn from the benchmark seed to every manifest."""
    rng = random.Random(seed)
    return [(name, f"{text}seed = {rng.randrange(2**31)}\n") for name, text in manifests]
