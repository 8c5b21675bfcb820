"""Scaling presets for the experiment drivers.

The paper's experiments use instance orders 16–23 and up to 8,192 cores; a
pure-Python engine cannot re-run those sizes in a benchmark suite that should
finish in minutes, so every driver is parameterised by an
:class:`ExperimentScale`.  Three presets are provided:

* :meth:`ExperimentScale.smoke` — tiny; used by the unit/integration tests.
* :meth:`ExperimentScale.default` — the benchmark preset: small enough to run
  in a few minutes on a laptop, large enough that every qualitative claim of
  the paper (exponential growth, best ≪ average, near-linear multi-walk
  speed-up, exponential runtime distribution) is visible in the output.
* :meth:`ExperimentScale.paper` — the paper's actual orders and core counts;
  only practical if one is willing to let the harness run for a very long
  time, but it documents precisely what the full-scale experiment is.

Every :class:`~repro.experiments.base.ExperimentResult` names the preset that
produced it in its ``scale`` field (and in ``repro experiment --json`` output).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["ExperimentScale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Instance sizes, run counts and core counts for all experiment drivers."""

    name: str

    # ------------------------------------------------------------- sequential
    #: Orders and number of runs of the sequential evaluation (Table I).
    table1_orders: Tuple[int, ...] = (10, 11, 12, 13)
    table1_runs: int = 30

    #: Orders and runs of the AS vs Dialectic Search comparison (Table II).
    table2_orders: Tuple[int, ...] = (9, 10, 11, 12)
    table2_runs: int = 10

    #: Orders and runs of the AS vs CP comparison (Section IV-C).
    cp_orders: Tuple[int, ...] = (10, 12, 13)
    cp_runs: int = 5

    # --------------------------------------------------------------- parallel
    #: Size of the sequential run pool each parallel simulation draws from.
    pool_runs: int = 150
    #: Simulated repetitions per (instance, core-count) cell.
    cell_repetitions: int = 50

    #: Orders and core counts of the HA8000 table (Table III).
    table3_orders: Tuple[int, ...] = (11, 12, 13)
    table3_cores: Tuple[int, ...] = (1, 32, 64, 128, 256)

    #: Orders and core counts of the JUGENE table (Table IV).
    table4_orders: Tuple[int, ...] = (12, 13)
    table4_cores: Tuple[int, ...] = (512, 1024, 2048, 4096, 8192)

    #: Orders and core counts of the Grid'5000 table (Table V).
    table5_orders: Tuple[int, ...] = (11, 12, 13)
    table5_suno_cores: Tuple[int, ...] = (1, 32, 64, 128, 256)
    table5_helios_cores: Tuple[int, ...] = (1, 32, 64, 128)

    #: Order whose speed-up curve Figure 2 plots, and its reference core count.
    figure2_order: int = 13
    figure2_cores: Tuple[int, ...] = (32, 64, 128, 256)

    #: Orders of the JUGENE speed-up curves (Figure 3).
    figure3_orders: Tuple[int, ...] = (12, 13)
    figure3_cores: Tuple[int, ...] = (512, 1024, 2048, 4096, 8192)

    #: Time-to-target plot instance, core counts and sample count (Figure 4).
    figure4_order: int = 12
    figure4_cores: Tuple[int, ...] = (32, 64, 128, 256)
    figure4_samples: int = 200

    # -------------------------------------------------------------- ablations
    ablation_orders: Tuple[int, ...] = (11, 12)
    ablation_runs: int = 20

    # ---------------------------------------------------------------- presets
    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """Minutes-to-seconds preset used by the test-suite."""
        return cls(
            name="smoke",
            table1_orders=(8, 9),
            table1_runs=6,
            table2_orders=(8, 9),
            table2_runs=4,
            cp_orders=(8,),
            cp_runs=3,
            pool_runs=40,
            cell_repetitions=10,
            table3_orders=(9, 10),
            table3_cores=(1, 8, 16),
            table4_orders=(10,),
            table4_cores=(32, 64),
            table5_orders=(9, 10),
            table5_suno_cores=(1, 8, 16),
            table5_helios_cores=(1, 8),
            figure2_order=10,
            figure2_cores=(8, 16, 32),
            figure3_orders=(10,),
            figure3_cores=(32, 64),
            figure4_order=10,
            figure4_cores=(8, 16),
            figure4_samples=40,
            ablation_orders=(9,),
            ablation_runs=6,
        )

    @classmethod
    def default(cls) -> "ExperimentScale":
        """The benchmark preset (scaled-down orders, full structure)."""
        return cls(name="default")

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The paper's own orders and core counts (extremely slow in pure Python)."""
        return cls(
            name="paper",
            table1_orders=(16, 17, 18, 19, 20),
            table1_runs=100,
            table2_orders=(13, 14, 15, 16, 17, 18),
            table2_runs=100,
            cp_orders=(19,),
            cp_runs=1,
            pool_runs=500,
            cell_repetitions=50,
            table3_orders=(18, 19, 20, 21, 22),
            table3_cores=(1, 32, 64, 128, 256),
            table4_orders=(21, 22, 23),
            table4_cores=(512, 1024, 2048, 4096, 8192),
            table5_orders=(18, 19, 20, 21, 22),
            table5_suno_cores=(1, 32, 64, 128, 256),
            table5_helios_cores=(1, 32, 64, 128),
            figure2_order=22,
            figure2_cores=(32, 64, 128, 256),
            figure3_orders=(21, 22, 23),
            figure3_cores=(512, 1024, 2048, 4096, 8192),
            figure4_order=21,
            figure4_cores=(32, 64, 128, 256),
            figure4_samples=200,
            ablation_orders=(16, 17),
            ablation_runs=50,
        )

    @classmethod
    def by_name(cls, name: str) -> "ExperimentScale":
        """Look a preset up by name (``smoke``, ``default`` or ``paper``)."""
        presets: Dict[str, ExperimentScale] = {
            "smoke": cls.smoke(),
            "default": cls.default(),
            "paper": cls.paper(),
        }
        if name not in presets:
            raise ValueError(
                f"unknown scale preset {name!r}; expected one of {sorted(presets)}"
            )
        return presets[name]
