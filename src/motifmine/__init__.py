"""motifmine: daily mobility motif mining from geo-located point records."""

from .annotate import (
    AnnotatedPoint,
    HomeAssignment,
    UserDay,
    active_locations,
    annotate_history,
    infer_home,
    select_active_days,
    split_days,
    stationary_bot_filter,
)
from .ingest import (
    FilterConfig,
    ParseReport,
    PointRecord,
    RecordSchema,
    UserTrack,
    parse_records,
    prefilter,
    residency_filter,
    speed_filter,
)
from .motifs import (
    ABM,
    LBM,
    DailyNetwork,
    MotifCensus,
    abm_reduce,
    build_daily_network,
    canonical_signature,
    census_from_signatures,
)
from .parcels import (
    ActivityScheme,
    Parcel,
    SpatialIndex,
    load_parcels,
    nearest_parcel,
)
from .shape import (
    AlignedTrajectory,
    DegenerateTrajectory,
    DistanceStats,
    ReferenceFrameDensity,
    align_trajectory,
    density_histogram,
    distance_stats,
    gyradius_from_home,
    pearson_r,
)
from .synth import BotSpec, SynthConfig, TemplateSpec, generate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
