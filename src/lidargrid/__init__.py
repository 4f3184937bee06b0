"""Projection-based LiDAR obstacle detection and evaluation."""

from .core import (
    EmptyFrame,
    LidarGridError,
    ObstacleEstimate,
    Point3,
    PointCloudFrame,
    ValidatedFrame,
    range_of,
    validate_frame,
)
from .ground import (
    DegenerateInput,
    NoPlaneFound,
    PlaneModel,
    RansacParams,
    fit_plane_ransac,
    split_ground,
)
from .grid import (
    CellHistogram,
    GridConfig,
    OccupancyGrid,
    ThresholdProfile,
    binary_close,
    binary_dilate,
    binary_erode,
    binary_open,
    morph_open_close,
    occupancy_from_counts,
    project_to_grid,
    threshold_for_range,
)
from .cluster import (
    DimensionMismatch,
    LabelGrid,
    extract_obstacles,
    label_components,
)
from .bev import (
    BevConfig,
    ChannelImage,
    GeometryMismatch,
    OutputAttributeGrid,
    RawCluster,
    cluster_output_grid,
    extract_channels,
    height_gap_detector,
    load_channel_image,
    postprocess_clusters,
)
from .evaluate import (
    DimensionStats,
    EgoPose,
    EmptySeries,
    InvalidLatitude,
    OffsetStats,
    RelativePosition,
    SchemaError,
    associate,
    dimension_stats,
    geodetic_to_plane,
    offset_stats,
    transform_to_local,
)
from .synth import (
    GROUND_LABEL,
    BoxSpec,
    LabeledFrame,
    SceneSpec,
    expected_obstacles,
    generate_frame,
)
from .pcd import ParseError, UnsupportedLayout, read_frame_pcd, write_frame_pcd
from .config import ConfigError, PipelineConfig, default_config_yaml, load_config
from .pipeline import BenchReport, PipelineResult, bench, run_bev, run_geometric, run_pipeline

__version__ = "0.1.0"
