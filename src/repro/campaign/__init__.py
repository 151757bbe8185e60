"""Campaign runner: declarative controller x scenario x scale x seed sweeps.

A *campaign* evaluates the MeT-vs-Tiramola matchup across the whole
scenario catalog at multiple scales and seeds -- the experimental grid
behind the paper's Section 6 comparisons, generalised.  The subsystem is
deliberately layered like the create-results drivers of large simulation
studies:

* :mod:`repro.campaign.grid` -- the declarative grid: which cells exist,
  what spec each cell runs, and the per-cell derived seed;
* :mod:`repro.campaign.runner` -- executes cells (inline or across a
  process pool), resuming past completed cells;
* :mod:`repro.campaign.store` -- the crash-tolerant append-only results
  store (one JSON line per completed run);
* :mod:`repro.campaign.analysis` -- offline aggregation: comparison
  tables.

Everything a worker computes is deterministic (no wall-clock in records),
so the same grid + master seed produce *byte-identical* stores regardless
of pool size or how many resume passes it took to finish.
"""

from repro.campaign.analysis import (
    AggregateRow,
    aggregate_records,
    render_campaign_table,
    render_seed_quantile_table,
)
from repro.campaign.grid import (
    BASELINE_SCALE,
    CampaignCell,
    CampaignGrid,
    ScaleSpec,
    apply_scale,
    derive_seed,
)
from repro.campaign.runner import CampaignReport, cell_record, run_campaign
from repro.campaign.store import ResultsStore

__all__ = [
    "AggregateRow",
    "BASELINE_SCALE",
    "CampaignCell",
    "CampaignGrid",
    "CampaignReport",
    "ResultsStore",
    "ScaleSpec",
    "aggregate_records",
    "apply_scale",
    "cell_record",
    "derive_seed",
    "render_campaign_table",
    "render_seed_quantile_table",
    "run_campaign",
]
