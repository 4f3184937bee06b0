"""Projection-based LiDAR obstacle detection and evaluation."""

from .config import PipelineConfig, load_config
from .pipeline import run_pipeline
from .synth import expected_obstacles, generate_frame

__version__ = "0.1.0"
