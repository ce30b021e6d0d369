"""Experiment scales and deployment presets.

The paper's experiments train 360 Keras models per predicate on a K80 GPU and
source 224x224 images; this reproduction runs the structurally identical
pipeline at a reduced scale so everything fits in CPU minutes.  Every knob is
collected in :class:`ExperimentScale`; three presets are provided:

* ``SMOKE_SCALE`` — minutes-of-seconds scale used by the test suite,
* ``DEFAULT_SCALE`` — the scale of the committed ``PAPER_RESULTS.json``
  (``python -m benchmarks.paper``),
* ``PAPER_SCALE`` — the paper's own grid sizes, for users with the time (and
  ideally a vectorizing BLAS) to run the full thing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.spec import ArchitectureSpec, standard_architecture_grid
from repro.core.thresholds import PAPER_PRECISION_TARGETS
from repro.core.trainer import TrainingConfig
from repro.costs.device import SERVER_GPU, DeviceProfile
from repro.costs.scenario import ARCHIVE, CAMERA, INFER_ONLY, ONGOING, Scenario
from repro.data.categories import list_category_names
from repro.storage.tiers import StorageTier
from repro.transforms.spec import TransformSpec, standard_transform_grid

__all__ = [
    "ExperimentScale",
    "SMOKE_SCALE",
    "DEFAULT_SCALE",
    "PAPER_SCALE",
    "simulation_scenarios",
    "SIMULATED_SSD",
]

#: Storage tier used by the simulated ARCHIVE/ONGOING scenarios.  Bandwidth is
#: deliberately modest so byte counts (not fixed latency) dominate load times
#: at the reduced image scale, preserving the paper's scenario ordering.
SIMULATED_SSD = StorageTier("ssd-sim", bandwidth_bytes_per_s=50e6, latency_s=10e-6)


def simulation_scenarios() -> dict[str, Scenario]:
    """The paper's four scenarios, with loads priced against the simulated SSD."""
    return {
        "infer_only": INFER_ONLY,
        "archive": replace(ARCHIVE, load_tier=SIMULATED_SSD),
        "ongoing": replace(ONGOING, load_tier=SIMULATED_SSD),
        "camera": CAMERA,
    }


@dataclass(frozen=True)
class ExperimentScale:
    """Every size knob of an experiment run."""

    name: str
    categories: tuple[str, ...]
    image_size: int
    n_train: int
    n_config: int
    n_eval: int
    resolutions: tuple[int, ...]
    color_modes: tuple[str, ...]
    conv_layers: tuple[int, ...]
    conv_filters: tuple[int, ...]
    dense_units: tuple[int, ...]
    precision_targets: tuple[float, ...]
    max_depth: int
    training: TrainingConfig
    reference_epochs: int
    reference_width: int
    reference_stages: int
    reference_blocks: int
    reference_target_fps: float = 75.0
    device: DeviceProfile = SERVER_GPU
    video_frames: int = 400
    #: Resolution at which data-handling costs are priced (the paper's 224 px
    #: camera frames), independent of the reduced rendering resolution.
    cost_resolution: int = 224
    seed: int = 0

    def architectures(self) -> list[ArchitectureSpec]:
        """The architecture grid at this scale."""
        return standard_architecture_grid(self.conv_layers, self.conv_filters,
                                          self.dense_units)

    def transforms(self) -> list[TransformSpec]:
        """The transformation grid (``F``) at this scale."""
        return standard_transform_grid(self.resolutions, self.color_modes)


#: Tiny scale for the test suite: two predicates, seconds per predicate.
SMOKE_SCALE = ExperimentScale(
    name="smoke",
    categories=("komondor", "scorpion"),
    image_size=16,
    n_train=48, n_config=32, n_eval=32,
    resolutions=(8, 16),
    color_modes=("rgb", "gray"),
    conv_layers=(1, 2),
    conv_filters=(4,),
    dense_units=(8,),
    precision_targets=(0.9, 0.95),
    max_depth=2,
    training=TrainingConfig(epochs=2, batch_size=16, augment=True),
    reference_epochs=5, reference_width=8, reference_stages=2, reference_blocks=1,
    video_frames=120,
    seed=0,
)

#: The scale of the committed ``PAPER_RESULTS.json`` (CPU minutes for all figures).
DEFAULT_SCALE = ExperimentScale(
    name="default",
    categories=tuple(list_category_names()),
    image_size=32,
    n_train=96, n_config=64, n_eval=64,
    resolutions=(8, 16, 32),
    color_modes=("rgb", "red", "green", "blue", "gray"),
    conv_layers=(1, 2),
    conv_filters=(8,),
    dense_units=(16, 32),
    precision_targets=(0.93, 0.97),
    max_depth=2,
    training=TrainingConfig(epochs=4, batch_size=32, augment=True),
    reference_epochs=6, reference_width=16, reference_stages=3, reference_blocks=1,
    video_frames=400,
    seed=0,
)

#: The paper's own grid sizes (360 models per predicate, 5 precision targets).
PAPER_SCALE = ExperimentScale(
    name="paper",
    categories=tuple(list_category_names()),
    image_size=224,
    n_train=2000, n_config=800, n_eval=1000,
    resolutions=(30, 60, 120, 224),
    color_modes=("rgb", "red", "green", "blue", "gray"),
    conv_layers=(1, 2, 4),
    conv_filters=(16, 32),
    dense_units=(16, 32, 64),
    precision_targets=PAPER_PRECISION_TARGETS,
    max_depth=2,
    training=TrainingConfig(epochs=10, batch_size=32, augment=True),
    reference_epochs=10, reference_width=32, reference_stages=4, reference_blocks=2,
    video_frames=5000,
    seed=0,
)
