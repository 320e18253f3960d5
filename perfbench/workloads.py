"""The benchmark's workloads: fixed solver configurations run through the
public nsfem API.

Every workload starts from the paper's example-1 data plus a seeded
divergence-free perturbation of about 1% of its L2 norm.  The solver sees
only the summed field, so the work is the same for every seed while the
answer is not.  Seeds are folded onto ``SEED_SLOTS`` input draws, each with
stored reference values (``reference.json``), so every run's answer is
checked against a known value.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nsfem import mesh as meshmod
from nsfem import projections, space, study, timestepper
from nsfem.initial_data import VectorField, initial_data_example1
from nsfem.propsuite import random_stream_field

T_END = 0.1
MU = 0.05
ALPHA = 0.55
PERTURBATION = 0.01
SEED_SLOTS = 16


@dataclass(frozen=True)
class Workload:
    """One solver configuration.

    A march (``n_ref`` is None) projects the data on mesh ``ns[0]`` and runs
    ``timestepper.run``; a space study runs ``study.run_space_study`` over
    the meshes ``ns`` against the reference mesh ``n_ref``.
    """

    name: str
    k: int
    alfeld: bool
    tau: Fraction
    ns: tuple
    n_ref: int = None

    @property
    def cross_mesh(self):
        return self.n_ref is not None


WORKLOADS = {
    "march-fine-mesh": Workload("march-fine-mesh", k=2, alfeld=True,
                                tau=Fraction(1, 80), ns=(16,)),
    "march-many-steps": Workload("march-many-steps", k=2, alfeld=True,
                                 tau=Fraction(1, 640), ns=(8,)),
    "space-study-k4": Workload("space-study-k4", k=4, alfeld=False,
                               tau=Fraction(1, 40), ns=(4, 8), n_ref=16),
}

#: seconds-scale versions of each workload with the same code path, used
#: by the benchmark's tests and to warm caches before timing
TINY = {
    "march-fine-mesh": Workload("march-fine-mesh", k=2, alfeld=True,
                                tau=Fraction(1, 20), ns=(2,)),
    "march-many-steps": Workload("march-many-steps", k=2, alfeld=True,
                                 tau=Fraction(1, 40), ns=(2,)),
    "space-study-k4": Workload("space-study-k4", k=4, alfeld=False,
                               tau=Fraction(1, 10), ns=(1, 2), n_ref=4),
}


def _l2_norm(fn, points=64):
    """L2 norm over the unit square by a tensor Gauss-Legendre rule."""
    x, w = np.polynomial.legendre.leggauss(points)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w).ravel()
    vals = fn(np.column_stack([X.ravel(), Y.ravel()]))
    return float(np.sqrt(np.sum(W * np.sum(vals**2, axis=1))))


def seed_slot(seed):
    return seed % SEED_SLOTS


def initial_field(seed):
    """example1 plus the seed's stream-function perturbation."""
    slot = seed_slot(seed)
    base = initial_data_example1()
    perturbation = random_stream_field(np.random.default_rng(slot))
    scale = PERTURBATION * _l2_norm(base) / _l2_norm(perturbation)

    def fn(pts):
        return base(pts) + scale * perturbation(pts)

    return VectorField(fn, name=f"example1+perturbation(slot {slot})")


@dataclass
class Outcome:
    """What one run of a workload produced."""

    spaces: list          # [(V, Q)] in build order
    runs: list            # timestepper.RunResult of every march
    report: object        # study.StudyReport, or None for a march


def run_once(wl, field, tracer):
    """Run the workload once with ``tracer`` installed.

    nsfem is called through module attributes, so the tracer's wrappers see
    every call; the tracer keeps each ``timestepper.run`` result.
    """
    spaces = []

    def build_spaces(n):
        mesh = meshmod.build_structured_mesh(n)
        if wl.alfeld:
            mesh = meshmod.alfeld_split(mesh)
        V = space.build_velocity_space(mesh, wl.k)
        Q = space.build_pressure_space(mesh, wl.k - 1)
        spaces.append((V, Q))
        return V, Q

    report = None
    if wl.cross_mesh:
        report = study.run_space_study(field, build_spaces, list(wl.ns),
                                       wl.n_ref, wl.tau, T=T_END, mu=MU,
                                       alpha=ALPHA, jobs=1)
    else:
        V, Q = build_spaces(wl.ns[0])
        u0, _ = projections.l2_project_divfree(field, V, Q)
        grid = timestepper.build_graded_grid(T_END, float(wl.tau), ALPHA)
        timestepper.run(u0, grid, MU, V, Q)
    return Outcome(spaces=spaces, runs=list(tracer.kept), report=report)
