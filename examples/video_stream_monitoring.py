#!/usr/bin/env python
"""Video-stream monitoring: TAHOMA+DD vs. a NoScope-style pipeline.

Scenario: a fixed camera produces a video stream and an analyst wants every
frame containing a particular object.  Consecutive frames are highly
redundant, so both systems sit behind a frame-difference detector that reuses
the previous result for near-identical frames; the question is what runs on
the frames that *do* get classified:

* NoScope-style: one specialized full-input CNN, falling back to the expensive
  oracle when its output is uncertain.
* TAHOMA+DD: a cascade selected from the physical-representation-aware design
  space at the accuracy level NoScope achieved.

This is a small-scale version of the paper's Figure 8 experiment.

Run with:  python examples/video_stream_monitoring.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines.difference import DifferenceDetector
from repro.data.video import CORAL_PRESET, JACKSON_PRESET, generate_video_stream
from repro.experiments.noscope_exp import noscope_comparison, split_stream
from repro.experiments.presets import SMOKE_SCALE


def describe_streams() -> None:
    rng = np.random.default_rng(0)
    print("synthetic stand-ins for the NoScope datasets:")
    for preset in (CORAL_PRESET, JACKSON_PRESET):
        stream = generate_video_stream(
            replace(preset, n_frames=240, frame_size=32), rng)
        detector = DifferenceDetector()
        detector.calibrate(stream.frames, target_reuse=0.25)
        plan = detector.plan(stream.frames)
        print(f"  {preset.name:8s}  frames={len(stream):4d}  "
              f"positive rate={stream.labels.mean():.2f}  "
              f"temporal redundancy={stream.temporal_redundancy():.2f}  "
              f"DD would reuse {plan.reuse_fraction * 100:.0f}% of frames")


def main() -> None:
    print("[1/2] characterizing the two synthetic streams ...")
    describe_streams()

    print("\n[2/2] running the Figure 8 comparison at smoke scale ...")
    results = noscope_comparison(SMOKE_SCALE, stream_names=("coral", "jackson"),
                                 seed=0)
    header = (f"{'stream':10s} {'system':10s} {'fps':>10s} {'accuracy':>9s} "
              f"{'oracle use':>11s} {'reused':>7s}")
    print("\n" + header)
    print("-" * len(header))
    for comparison in results:
        for result in (comparison.noscope, comparison.tahoma_dd):
            print(f"{comparison.stream_name:10s} {result.name:10s} "
                  f"{result.throughput:10,.0f} {result.accuracy:9.3f} "
                  f"{result.oracle_fraction * 100:10.0f}% "
                  f"{result.reuse_fraction * 100:6.0f}%")
        print(f"{'':10s} -> TAHOMA+DD speedup over NoScope: "
              f"{comparison.speedup:.1f}x\n")


if __name__ == "__main__":
    main()
