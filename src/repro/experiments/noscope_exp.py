"""The NoScope comparison (Figure 8): NoScope vs. TAHOMA+DD on video streams."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.baselines.difference import DifferenceDetector
from repro.baselines.noscope import (
    PipelineResult,
    TahomaWithDifferenceDetector,
    noscope_cascade,
)
from repro.baselines.reference import train_reference_model
from repro.core.optimizer import TahomaConfig, TahomaOptimizer
from repro.core.selector import select_matching_accuracy
from repro.core.spec import ModelSpec
from repro.core.thresholds import calibrate_thresholds
from repro.core.trainer import ModelTrainer
from repro.costs.device import calibrate_device
from repro.costs.profiler import CostProfiler
from repro.costs.scenario import INFER_ONLY
from repro.data.corpus import LabeledDataset, PredicateDataSplits
from repro.data.video import CORAL_PRESET, JACKSON_PRESET, VideoStream, generate_video_stream
from repro.experiments.presets import ExperimentScale
from repro.transforms.spec import TransformSpec

__all__ = ["StreamComparison", "noscope_comparison", "split_stream"]

#: Cascade threshold precision target used by both systems (paper: 0.95).
COMPARISON_PRECISION = 0.95


@dataclass
class StreamComparison:
    """Figure 8, one stream: both pipelines' results on the held-out frames."""

    stream_name: str
    noscope: PipelineResult
    tahoma_dd: PipelineResult

    @property
    def speedup(self) -> float:
        if self.noscope.throughput == 0:
            return float("inf")
        return self.tahoma_dd.throughput / self.noscope.throughput


def split_stream(stream: VideoStream, train_fraction: float = 0.4,
                 config_fraction: float = 0.2,
                 rng: np.random.Generator | None = None) -> tuple[PredicateDataSplits,
                                                                  LabeledDataset]:
    """Split a stream into train/config splits plus held-out evaluation frames.

    The evaluation frames are kept in temporal order (the difference detector
    depends on frame adjacency); the training and configuration splits are
    shuffled as usual.
    """
    if not 0 < train_fraction < 1 or not 0 < config_fraction < 1:
        raise ValueError("fractions must be in (0, 1)")
    if train_fraction + config_fraction >= 1:
        raise ValueError("train and config fractions must leave evaluation frames")
    rng = rng or np.random.default_rng(0)
    n = len(stream)
    n_train = int(n * train_fraction)
    n_config = int(n * config_fraction)

    dataset = stream.as_dataset()
    train = dataset.subset(np.arange(0, n_train)).shuffled(rng)
    config = dataset.subset(np.arange(n_train, n_train + n_config)).shuffled(rng)
    held_out = dataset.subset(np.arange(n_train + n_config, n))
    splits = PredicateDataSplits(train=train, config=config, eval=held_out)
    return splits, held_out


def _build_noscope(scale: ExperimentScale, splits: PredicateDataSplits,
                   oracle, detector: DifferenceDetector,
                   rng: np.random.Generator) -> TahomaWithDifferenceDetector:
    """Train NoScope's single specialized full-input CNN and calibrate it."""
    architectures = scale.architectures()
    # NoScope's specialized model: the largest architecture, full-size input.
    architecture = max(architectures,
                       key=lambda a: (a.conv_layers, a.conv_filters, a.dense_units))
    spec = ModelSpec(architecture=architecture,
                     transform=TransformSpec(scale.image_size, "rgb"))
    trainer = ModelTrainer(scale.training)
    specialized = trainer.train_models([spec], splits.train, rng=rng)[0]

    config_probs = specialized.predict_proba(splits.config.images)
    calibration = calibrate_thresholds(config_probs, splits.config.labels,
                                       precision_target=COMPARISON_PRECISION)
    return TahomaWithDifferenceDetector(
        noscope_cascade(specialized, calibration.thresholds, oracle),
        detector=detector, name="noscope")


def _build_tahoma_dd(scale: ExperimentScale, splits: PredicateDataSplits,
                     oracle, detector: DifferenceDetector, target_accuracy: float,
                     profiler: CostProfiler,
                     rng: np.random.Generator) -> TahomaWithDifferenceDetector:
    """Initialize TAHOMA on the stream and pick the matching-accuracy cascade."""
    config = TahomaConfig(
        architectures=tuple(scale.architectures()),
        transforms=tuple(scale.transforms()),
        precision_targets=(COMPARISON_PRECISION,),
        max_depth=scale.max_depth,
        training=scale.training)
    optimizer = TahomaOptimizer(config)
    optimizer.initialize(splits, reference_model=oracle, rng=rng)
    frontier = optimizer.frontier(profiler)
    chosen = select_matching_accuracy(frontier, target_accuracy)
    return TahomaWithDifferenceDetector(cascade=chosen.cascade, detector=detector)


def noscope_comparison(scale: ExperimentScale,
                       stream_names: tuple[str, ...] = ("coral", "jackson"),
                       seed: int = 0) -> list[StreamComparison]:
    """Figure 8: run NoScope and TAHOMA+DD on each synthetic stream.

    Both systems share the oracle (the reference network, standing in for
    YOLOv2), the difference detector and the INFER ONLY cost accounting, which
    matches the paper's measurement protocol.
    """
    presets = {"coral": CORAL_PRESET, "jackson": JACKSON_PRESET}
    results = []
    for index, stream_name in enumerate(stream_names):
        try:
            preset = presets[stream_name]
        except KeyError:
            raise KeyError(f"unknown stream {stream_name!r}; "
                           f"available: {sorted(presets)}") from None
        rng = np.random.default_rng(seed + index)
        stream_config = replace(preset, frame_size=scale.image_size,
                                n_frames=scale.video_frames)
        stream = generate_video_stream(stream_config, rng)
        splits, held_out = split_stream(stream, rng=rng)

        oracle = train_reference_model(
            splits, resolution=scale.image_size, epochs=scale.reference_epochs,
            base_width=scale.reference_width, n_stages=scale.reference_stages,
            blocks_per_stage=scale.reference_blocks,
            name=f"oracle-{stream_name}", rng=rng)

        device = calibrate_device(scale.device, oracle.flops,
                                  target_fps=scale.reference_target_fps)
        profiler = CostProfiler(device, INFER_ONLY,
                                source_resolution=scale.image_size)

        detector = DifferenceDetector()
        detector.calibrate(splits.train.images,
                           target_reuse=0.25 if stream_name == "coral" else 0.05)

        noscope = _build_noscope(scale, splits, oracle, detector, rng)
        noscope_result = noscope.run(held_out.images, held_out.labels, profiler)

        tahoma_dd = _build_tahoma_dd(scale, splits, oracle, detector,
                                     noscope_result.accuracy, profiler, rng)
        tahoma_result = tahoma_dd.run(held_out.images, held_out.labels, profiler)

        results.append(StreamComparison(stream_name=stream_name,
                                        noscope=noscope_result,
                                        tahoma_dd=tahoma_result))
    return results
