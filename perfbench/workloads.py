"""Seeded workload generators for the crspin benchmark.

Each workload is a list of ``Job``s: one crspin process per job, run one
after another (a closed loop with a single client).  The generator sees
only the seed; crspin sees only the config file written from ``Job.config``.

Why these workloads (see NOTES.md for the traced split at the seed commit):

* ``ladder3_identities``: one heisenberg m=3 config (dim 1000) running the
  identities check.  Dense full-space products dominate (assembly,
  Kronecker lifts, D*D residuals), so a block engine or cheaper assembly
  shows here.
* ``ladder3_spectral``: the same model running spectrum, cohomology and
  vanishing.  Per-degree eigensolves and kernel counts need only blocks,
  so a change that speeds kernels but densifies identities (or the
  reverse) splits the two ladder3 workloads.
* ``small_sweep``: twelve small flat configs plus one sphere config, each
  its own process.  Fixed per-call cost, recomputation across checks,
  interpreter start and artifact writing dominate, so caching and
  start-up work show here, and so does fixed overhead a block engine adds.

The sweep is stratified: every seed draws one config per (kind, m,
sector count) cell, spreads the weights ell over the cells of one
(kind, m) so each weight is used before any is repeated (ell = 0 adds the
obstruction table on m=2 torus bundles), and varies flux and sector
window freely, so the work per pass barely depends on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

ALL_CHECKS = ("identities", "spectrum", "cohomology", "vanishing", "conformal")
SPECTRAL_CHECKS = ("spectrum", "cohomology", "vanishing")


@dataclass(frozen=True)
class Job:
    """One crspin process: a name for its files and the config it reads."""

    name: str
    config: dict

    @property
    def key(self) -> str:
        """Canonical config text; the reference table is keyed by it."""
        return json.dumps(self.config, sort_keys=True, separators=(",", ":"))


def admissible_weights(m: int) -> list[int]:
    return list(range(-m, m + 1, 2))


def sector_windows(count: int) -> list[list[int]]:
    """Contiguous sector lists of the given length that are centred on 0."""
    lo = -(count // 2)
    windows = [list(range(lo, lo + count))]
    if count % 2 == 0:
        windows.append(list(range(lo + 1, lo + 1 + count)))
    return windows


def _flat_config(kind: str, m: int, ell: int, sectors: list[int], flux: int | None) -> dict:
    model = {"kind": kind, "m": m, "ell": ell, "sectors": sectors}
    if flux is not None:
        model["flux"] = flux
    return {"model": model, "checks": list(ALL_CHECKS)}


def _sphere_config(m: int, ell: int) -> dict:
    return {"model": {"kind": "sphere", "m": m, "ell": ell, "scal_w": 1.0}, "checks": ["vanishing"]}


def _ladder3_config(k: int, checks) -> dict:
    return {
        "model": {"kind": "heisenberg", "m": 3, "ell": 0, "sectors": [k],
                  "truncation": {"ladder_levels": 5}},
        "checks": list(checks),
    }


SWEEP_COUNTS = (3, 4, 5)
SWEEP_CELLS = [(kind, m, count) for kind in ("torus_bundle", "heisenberg") for m in (1, 2) for count in SWEEP_COUNTS]
SPHERE_DIMS = (2, 3)
FLUXES = (1, 2)


def cell_choices(kind: str, m: int, count: int) -> list[dict]:
    """Every config of one sweep cell, in a fixed order."""
    fluxes = FLUXES if kind == "torus_bundle" else (None,)
    return [
        _flat_config(kind, m, ell, window, flux)
        for flux in fluxes
        for ell in admissible_weights(m)
        for window in sector_windows(count)
    ]


def sphere_choices() -> list[dict]:
    return [_sphere_config(m, ell) for m in SPHERE_DIMS for ell in admissible_weights(m)]


def config_space() -> list[dict]:
    """Every config any seed can draw, for recording the reference."""
    space = [_ladder3_config(k, checks) for checks in (("identities",), SPECTRAL_CHECKS) for k in (-1, 1)]
    for cell in SWEEP_CELLS:
        space.extend(cell_choices(*cell))
    space.extend(sphere_choices())
    return space


def _spread(rng: random.Random, values: list, count: int) -> list:
    """``count`` draws that use every value once before any value twice."""
    draws = []
    while len(draws) < count:
        draws.extend(rng.sample(values, len(values)))
    return draws[:count]


def generate(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass of ``workload``; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("ladder3_identities", "ladder3_spectral"):
        checks = ("identities",) if workload == "ladder3_identities" else SPECTRAL_CHECKS
        k = rng.choice((-1, 1))
        return [Job(f"heisenberg-m3-k{k}", _ladder3_config(k, checks))]
    if workload == "small_sweep":
        jobs = []
        for kind in ("torus_bundle", "heisenberg"):
            for m in (1, 2):
                ells = _spread(rng, admissible_weights(m), len(SWEEP_COUNTS))
                for count, ell in zip(SWEEP_COUNTS, ells):
                    flux = rng.choice(FLUXES) if kind == "torus_bundle" else None
                    config = _flat_config(kind, m, ell, rng.choice(sector_windows(count)), flux)
                    jobs.append(Job(f"{kind}-m{m}-n{count}", config))
        sphere = rng.choice(sphere_choices())
        jobs.append(Job("sphere", sphere))
        return jobs
    raise ValueError(f"unknown workload {workload!r} (choices: {', '.join(WORKLOADS)})")


WORKLOADS = ("ladder3_identities", "ladder3_spectral", "small_sweep")
