"""The paper's "Baseline" cascade set (Section VII-B).

These are NoScope-style, non-optimized cascades: a subset of TAHOMA's design
space in which every specialized model consumes the full-size, full-color
representation (no input transformations) and every cascade terminates in the
expensive reference classifier.  Comparing TAHOMA's frontier against this set
isolates the contribution of the physical-representation dimension.
"""

from __future__ import annotations

from repro.core.cascade import Cascade, CascadeBuilder
from repro.core.model import TrainedModel
from repro.core.spec import ArchitectureSpec, ModelSpec
from repro.core.thresholds import DecisionThresholds
from repro.costs.profiler import SOURCE_CHANNELS
from repro.transforms.spec import TransformSpec

__all__ = ["baseline_model_specs", "build_baseline_cascades", "is_full_representation"]


def is_full_representation(transform: TransformSpec, source_resolution: int) -> bool:
    """Whether ``transform`` is the untransformed full-size, full-color input."""
    return transform.is_native((source_resolution, source_resolution,
                                SOURCE_CHANNELS))


def baseline_model_specs(architectures: list[ArchitectureSpec],
                         source_resolution: int) -> list[ModelSpec]:
    """Model specs for the baseline: every architecture on the full input only."""
    if not architectures:
        raise ValueError("architectures must be non-empty")
    transform = TransformSpec(resolution=source_resolution, color_mode="rgb")
    return [ModelSpec(architecture=arch, transform=transform)
            for arch in architectures if arch.fits_input(source_resolution)]


def build_baseline_cascades(models: list[TrainedModel],
                            thresholds: dict[str, list[DecisionThresholds]],
                            reference_model: TrainedModel,
                            source_resolution: int) -> list[Cascade]:
    """Build the baseline cascade set from an existing trained-model pool.

    Only models consuming the full-size, full-color representation are used as
    first levels, and every cascade is ``specialized -> reference`` (plus the
    reference classifier alone), mirroring prior-work cascades.
    """
    full_input_models = [model for model in models
                         if not model.is_reference
                         and is_full_representation(model.transform,
                                                    source_resolution)]
    if not full_input_models:
        raise ValueError("no models consume the full-size full-color input; "
                         "cannot build baseline cascades")

    builder = CascadeBuilder(thresholds, max_depth=1,
                             reference_model=reference_model)
    cascades = builder.build(full_input_models, include_reference_tail=True)

    # Keep only the NoScope-style shapes: the reference classifier alone, or a
    # single thresholded full-input model followed by the reference classifier.
    from repro.core.cascade import CascadeLevel  # local import to avoid cycle noise

    reference_only = Cascade((CascadeLevel(reference_model, None),))
    baseline = [cascade for cascade in cascades if cascade.ends_in_reference()]
    return [reference_only] + baseline
