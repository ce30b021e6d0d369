"""Frame-difference detection (NoScope's redundancy filter).

NoScope avoids classifying frames that look nearly identical to a recently
classified frame, reusing the earlier result.  The same mechanism is attached
to a TAHOMA cascade to form TAHOMA+DD for the Figure 8 comparison — the paper
is explicit that the difference detector is orthogonal to its contribution, so
both systems get it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FramePlan", "DifferenceDetector"]


@dataclass(frozen=True)
class FramePlan:
    """Which frames get classified and which reuse an earlier result.

    ``reuse_from[i]`` is the index of the earlier *processed* frame whose
    label frame ``i`` reuses, or ``-1`` when frame ``i`` is processed itself.
    """

    processed: np.ndarray
    reuse_from: np.ndarray

    @property
    def n_frames(self) -> int:
        return int(self.reuse_from.size)

    @property
    def n_processed(self) -> int:
        return int(self.processed.size)

    @property
    def n_reused(self) -> int:
        return self.n_frames - self.n_processed

    @property
    def reuse_fraction(self) -> float:
        if self.n_frames == 0:
            return 0.0
        return self.n_reused / self.n_frames

    def expand_labels(self, processed_labels: np.ndarray) -> np.ndarray:
        """Propagate labels of processed frames to the frames reusing them."""
        processed_labels = np.asarray(processed_labels).ravel()
        if processed_labels.size != self.n_processed:
            raise ValueError("processed_labels length does not match the plan")
        labels = np.zeros(self.n_frames, dtype=np.int64)
        labels[self.processed] = processed_labels
        reused_mask = self.reuse_from >= 0
        labels[reused_mask] = labels[self.reuse_from[reused_mask]]
        return labels


class DifferenceDetector:
    """Skips frames that are nearly identical to the last processed frame.

    Parameters
    ----------
    threshold:
        Mean-squared-difference threshold below which a frame is considered
        redundant and reuses the previous result.
    downsample:
        Comparing at a reduced resolution (every ``downsample``-th pixel)
        makes the detector cheap, as in NoScope.
    """

    def __init__(self, threshold: float = 1e-3, downsample: int = 4) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if downsample < 1:
            raise ValueError("downsample must be at least 1")
        self.threshold = threshold
        self.downsample = downsample

    def _signature(self, frame: np.ndarray) -> np.ndarray:
        return frame[::self.downsample, ::self.downsample, :]

    def frame_distance(self, frame_a: np.ndarray, frame_b: np.ndarray) -> float:
        """Mean squared difference between two frames' downsampled signatures."""
        sig_a, sig_b = self._signature(frame_a), self._signature(frame_b)
        return float(np.mean((sig_a - sig_b) ** 2))

    def plan(self, frames: np.ndarray) -> FramePlan:
        """Decide, frame by frame, whether to classify or reuse.

        The first frame is always processed.  A later frame is processed when
        its distance to the *last processed* frame exceeds the threshold;
        otherwise it reuses that frame's (future) label.
        """
        if frames.ndim != 4:
            raise ValueError(f"expected NHWC frames, got shape {frames.shape}")
        n = frames.shape[0]
        if n == 0:
            return FramePlan(processed=np.array([], dtype=np.int64),
                             reuse_from=np.array([], dtype=np.int64))

        processed: list[int] = [0]
        reuse_from = np.full(n, -1, dtype=np.int64)
        last_index = 0
        for index in range(1, n):
            distance = self.frame_distance(frames[index], frames[last_index])
            if distance <= self.threshold:
                reuse_from[index] = last_index
            else:
                processed.append(index)
                last_index = index
        return FramePlan(processed=np.asarray(processed, dtype=np.int64),
                         reuse_from=reuse_from)

    def calibrate(self, frames: np.ndarray, target_reuse: float = 0.25) -> float:
        """Set the threshold so roughly ``target_reuse`` of frames are reused.

        Uses the empirical distribution of consecutive-frame distances; the
        chosen threshold is stored on the detector and returned.
        """
        if not 0.0 <= target_reuse < 1.0:
            raise ValueError("target_reuse must be in [0, 1)")
        if frames.shape[0] < 2:
            return self.threshold
        signatures = frames[:, ::self.downsample, ::self.downsample, :]
        distances = np.mean((signatures[1:] - signatures[:-1]) ** 2, axis=(1, 2, 3))
        self.threshold = float(np.quantile(distances, target_reuse))
        return self.threshold

    def values_touched(self, frame_shape: tuple[int, int, int]) -> int:
        """Scalar comparisons per frame, used by the analytic cost model."""
        height, width, channels = frame_shape
        return (height // self.downsample) * (width // self.downsample) * channels
