"""Deployment scenarios (paper Sections III and VII-A)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.tiers import MEMORY, SSD, StorageTier

__all__ = ["Scenario", "INFER_ONLY", "ARCHIVE", "ONGOING", "CAMERA",
           "PAPER_SCENARIOS", "get_scenario"]


@dataclass(frozen=True)
class Scenario:
    """Which cost terms a deployment pays, and from where bytes are loaded.

    Parameters
    ----------
    name:
        Scenario name.
    include_load:
        Whether image bytes must be loaded from ``load_tier`` at query time.
    include_transform:
        Whether the input transformation must be computed at query time.
    load_full_image:
        If True (ARCHIVE), the *full-size* source image is loaded and then
        transformed; if False and ``include_load`` (ONGOING), only the bytes
        of the already-materialized target representation are loaded.
    load_tier:
        Storage tier the bytes come from.  Images are stored uncompressed,
        one byte per channel value
        (:func:`~repro.storage.encoding.raw_bytes`).
    description:
        One-line description used in reports.
    """

    name: str
    include_load: bool
    include_transform: bool
    load_full_image: bool = True
    load_tier: StorageTier = SSD
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")

    @property
    def materializes_on_ingest(self) -> bool:
        """Whether this deployment transforms frames at ingest time.

        True exactly when query time loads pre-built representation bytes
        (ONGOING): no transform is paid at query time, yet bytes are loaded
        at representation (not source) size — so the representations must
        already exist on the tier, i.e. they were built when the frames
        arrived.
        """
        return (self.include_load and not self.include_transform
                and not self.load_full_image)


#: Only CNN inference time counts (the computer-vision-literature convention).
INFER_ONLY = Scenario(
    name="infer_only", include_load=False, include_transform=False,
    load_full_image=False, load_tier=MEMORY,
    description="Inference cost only; data handling ignored.")

#: Full-size archived images on SSD: load full image, then transform.
ARCHIVE = Scenario(
    name="archive", include_load=True, include_transform=True,
    load_full_image=True, load_tier=SSD,
    description="Archived full-size images on SSD; load and transform at query time.")

#: Representations materialized on ingest; load only the representation bytes.
ONGOING = Scenario(
    name="ongoing", include_load=True, include_transform=False,
    load_full_image=False, load_tier=SSD,
    description="Pre-resized representations stored on SSD at ingest time.")

#: Frames arrive from a connected camera: transform only, no load cost.
CAMERA = Scenario(
    name="camera", include_load=False, include_transform=True,
    load_full_image=False, load_tier=MEMORY,
    description="Frames already in memory from the camera; transform at query time.")

#: The four scenarios evaluated in the paper, in its reporting order.
PAPER_SCENARIOS = (INFER_ONLY, ONGOING, CAMERA, ARCHIVE)

_SCENARIOS = {scenario.name: scenario for scenario in PAPER_SCENARIOS}


def get_scenario(name: str) -> Scenario:
    """Look up one of the paper's scenarios by name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"available: {sorted(_SCENARIOS)}") from None
